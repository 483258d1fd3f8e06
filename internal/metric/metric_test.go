package metric

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"kcenter/internal/rng"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func randomVec(r *rng.Source, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = r.Float64Range(-100, 100)
	}
	return v
}

func TestSqDistMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 500; trial++ {
		dim := 1 + r.Intn(40)
		a, b := randomVec(r, dim), randomVec(r, dim)
		got, want := SqDist(a, b), SqDistNaive(a, b)
		if !almostEqual(got, want, 1e-12) {
			t.Fatalf("SqDist=%v naive=%v dim=%d", got, want, dim)
		}
	}
}

func TestSqDistEdgeLengths(t *testing.T) {
	// Exercise all residue classes of the 4-way unroll.
	for dim := 1; dim <= 9; dim++ {
		a := make([]float64, dim)
		b := make([]float64, dim)
		for i := range a {
			a[i] = float64(i + 1)
			b[i] = float64(-(i + 1))
		}
		want := 0.0
		for i := range a {
			d := a[i] - b[i]
			want += d * d
		}
		if got := SqDist(a, b); !almostEqual(got, want, 1e-12) {
			t.Fatalf("dim=%d got %v want %v", dim, got, want)
		}
	}
}

// metricAxioms checks identity, symmetry, non-negativity and the triangle
// inequality on random triples.
func metricAxioms(t *testing.T, m Interface) {
	t.Helper()
	r := rng.New(99)
	for trial := 0; trial < 300; trial++ {
		dim := 1 + r.Intn(16)
		a, b, c := randomVec(r, dim), randomVec(r, dim), randomVec(r, dim)
		if d := m.Distance(a, a); d != 0 {
			t.Fatalf("%s: d(a,a)=%v != 0", m.Name(), d)
		}
		dab, dba := m.Distance(a, b), m.Distance(b, a)
		if !almostEqual(dab, dba, 1e-12) {
			t.Fatalf("%s: asymmetric %v vs %v", m.Name(), dab, dba)
		}
		if dab < 0 {
			t.Fatalf("%s: negative distance %v", m.Name(), dab)
		}
		dac, dcb := m.Distance(a, c), m.Distance(c, b)
		if dab > dac+dcb+1e-9*(1+dab) {
			t.Fatalf("%s: triangle violated: d(a,b)=%v > %v + %v", m.Name(), dab, dac, dcb)
		}
	}
}

func TestEuclideanAxioms(t *testing.T) { metricAxioms(t, Euclidean{}) }
func TestManhattanAxioms(t *testing.T) { metricAxioms(t, Manhattan{}) }
func TestChebyshevAxioms(t *testing.T) { metricAxioms(t, Chebyshev{}) }
func TestKnownDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if d := (Euclidean{}).Distance(a, b); !almostEqual(d, 5, 1e-12) {
		t.Fatalf("euclidean (3,4) = %v, want 5", d)
	}
	if d := (Manhattan{}).Distance(a, b); !almostEqual(d, 7, 1e-12) {
		t.Fatalf("manhattan (3,4) = %v, want 7", d)
	}
	if d := (Chebyshev{}).Distance(a, b); !almostEqual(d, 4, 1e-12) {
		t.Fatalf("chebyshev (3,4) = %v, want 4", d)
	}
}

func TestDatasetAtAliasesBacking(t *testing.T) {
	d := NewDataset(3, 2)
	d.At(1)[0] = 42
	if d.Data[2] != 42 {
		t.Fatal("At should alias the backing array")
	}
	if len(d.At(0)) != 2 {
		t.Fatal("At slice has wrong length")
	}
}

func TestDatasetAtFullSliceExpr(t *testing.T) {
	d := NewDataset(3, 2)
	row := d.At(0)
	if cap(row) != 2 {
		t.Fatalf("At must cap the slice at the row boundary, cap=%d", cap(row))
	}
}

func TestFromPoints(t *testing.T) {
	ds, err := FromPoints([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N != 3 || ds.Dim != 2 {
		t.Fatalf("shape %dx%d", ds.N, ds.Dim)
	}
	if ds.At(2)[1] != 6 {
		t.Fatal("wrong contents")
	}
	if _, err := FromPoints(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := FromPoints([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("expected error for ragged input")
	}
	if _, err := FromPoints([][]float64{{}}); err == nil {
		t.Fatal("expected error for zero-dim input")
	}
}

// TestFromPointsRejectsNonFinite: a NaN or ±Inf coordinate is an error that
// names its point and coordinate, not a dataset whose distances are NaN.
func TestFromPointsRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := FromPoints([][]float64{{0, 0}, {1, 1}, {v, 2}, {5, 5}})
		if err == nil {
			t.Fatalf("coordinate %v accepted", v)
		}
		if !strings.Contains(err.Error(), "point 2 coordinate 0") {
			t.Fatalf("coordinate %v: error %q does not name point 2 coordinate 0", v, err)
		}
	}
}

func TestSubsetPreservesOrder(t *testing.T) {
	ds, _ := FromPoints([][]float64{{0}, {1}, {2}, {3}})
	sub := ds.Subset([]int{3, 1})
	if sub.N != 2 || sub.At(0)[0] != 3 || sub.At(1)[0] != 1 {
		t.Fatalf("Subset wrong: %+v", sub)
	}
	// Mutating the subset must not touch the parent.
	sub.At(0)[0] = 99
	if ds.At(3)[0] != 3 {
		t.Fatal("Subset aliased parent data")
	}
}

func TestCloneIndependence(t *testing.T) {
	ds, _ := FromPoints([][]float64{{1, 1}})
	c := ds.Clone()
	c.At(0)[0] = 7
	if ds.At(0)[0] != 1 {
		t.Fatal("Clone aliased parent")
	}
}

func TestAppend(t *testing.T) {
	d := NewDataset(0, 3)
	d.Append([]float64{1, 2, 3})
	d.Append([]float64{4, 5, 6})
	if d.N != 2 || d.At(1)[2] != 6 {
		t.Fatalf("Append failed: %+v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong-dimension Append")
		}
	}()
	d.Append([]float64{1})
}

func TestBounds(t *testing.T) {
	ds, _ := FromPoints([][]float64{{1, -5}, {3, 2}, {-2, 0}})
	lo, hi := ds.Bounds()
	if lo[0] != -2 || lo[1] != -5 || hi[0] != 3 || hi[1] != 2 {
		t.Fatalf("Bounds lo=%v hi=%v", lo, hi)
	}
}

func TestNewDatasetPanicsOnBadShape(t *testing.T) {
	for _, tc := range []struct{ n, dim int }{{-1, 2}, {3, 0}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for n=%d dim=%d", tc.n, tc.dim)
				}
			}()
			NewDataset(tc.n, tc.dim)
		}()
	}
}

func TestSqDistQuickProperty(t *testing.T) {
	// Scaling both points scales squared distance quadratically.
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	f := func(ax, ay, bx, by, scaleRaw float64) bool {
		ax, ay, bx, by = clamp(ax), clamp(ay), clamp(bx), clamp(by)
		scale := math.Mod(math.Abs(clamp(scaleRaw)), 8) + 0.5
		a := []float64{ax, ay}
		b := []float64{bx, by}
		as := []float64{ax * scale, ay * scale}
		bs := []float64{bx * scale, by * scale}
		d := SqDist(a, b)
		ds := SqDist(as, bs)
		return almostEqual(ds, d*scale*scale, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSqDistDim2(b *testing.B)  { benchSqDist(b, 2) }
func BenchmarkSqDistDim16(b *testing.B) { benchSqDist(b, 16) }
func BenchmarkSqDistDim64(b *testing.B) { benchSqDist(b, 64) }

func benchSqDist(b *testing.B, dim int) {
	r := rng.New(1)
	x, y := randomVec(r, dim), randomVec(r, dim)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SqDist(x, y)
	}
	_ = sink
}
