package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestUnifBoundsAndDeterminism(t *testing.T) {
	a := Unif(UnifConfig{N: 5000, Seed: 1})
	b := Unif(UnifConfig{N: 5000, Seed: 1})
	if a.Points.N != 5000 || a.Points.Dim != 2 {
		t.Fatalf("shape %dx%d", a.Points.N, a.Points.Dim)
	}
	for i, v := range a.Points.Data {
		if v < 0 || v >= 100 {
			t.Fatalf("coordinate %d = %v outside [0,100)", i, v)
		}
		if v != b.Points.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := Unif(UnifConfig{N: 5000, Seed: 2})
	same := 0
	for i := range a.Points.Data {
		if a.Points.Data[i] == c.Points.Data[i] {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d identical coords", same)
	}
}

func TestUnifCoversSquare(t *testing.T) {
	l := Unif(UnifConfig{N: 20000, Seed: 3, Side: 10})
	lo, hi := l.Points.Bounds()
	for j := 0; j < 2; j++ {
		if lo[j] > 0.1 || hi[j] < 9.9 {
			t.Fatalf("dim %d bounds [%v,%v] does not cover [0,10]", j, lo[j], hi[j])
		}
	}
}

func TestGauClusterStructure(t *testing.T) {
	l := Gau(GauConfig{N: 20000, KPrime: 10, Seed: 4})
	if l.Points.N != 20000 {
		t.Fatalf("n = %d", l.Points.N)
	}
	// Every label in range, roughly balanced.
	counts := make([]int, 10)
	for _, lb := range l.Labels {
		if lb < 0 || lb >= 10 {
			t.Fatalf("label %d out of range", lb)
		}
		counts[lb]++
	}
	for cl, c := range counts {
		if c < 1000 || c > 3000 {
			t.Fatalf("cluster %d has %d points; want roughly 2000", cl, c)
		}
	}
	// Points with the same label are tightly grouped (σ = 0.1): the spread of
	// a cluster should be tiny compared to the Side=100 region.
	var first [10]int
	for i := range first {
		first[i] = -1
	}
	for i, lb := range l.Labels {
		if first[lb] == -1 {
			first[lb] = i
			continue
		}
		if d := l.Points.Dist(i, first[lb]); d > 2 {
			t.Fatalf("intra-cluster distance %v too large for sigma=0.1", d)
		}
	}
}

func TestUnbIsUnbalanced(t *testing.T) {
	l := Unb(GauConfig{N: 30000, KPrime: 25, Seed: 5})
	counts := make([]int, 25)
	for _, lb := range l.Labels {
		counts[lb]++
	}
	frac0 := float64(counts[0]) / 30000
	if frac0 < 0.45 || frac0 > 0.55 {
		t.Fatalf("heavy cluster holds %.2f of mass, want ~0.5", frac0)
	}
	// Remaining clusters roughly uniform.
	for cl := 1; cl < 25; cl++ {
		expected := 30000.0 * 0.5 / 24
		if f := float64(counts[cl]); f < expected*0.6 || f > expected*1.4 {
			t.Fatalf("cluster %d has %d points, want ~%.0f", cl, counts[cl], expected)
		}
	}
}

func TestGauPanicsWithoutClusters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for KPrime < 1")
		}
	}()
	gaussianMixture(GauConfig{N: 10, KPrime: -1, Dim: 2, Side: 1, Sigma: 1})
}

func TestPokerLikeMarginals(t *testing.T) {
	l := PokerLike(7)
	if l.Points.N != 25010 || l.Points.Dim != 10 {
		t.Fatalf("shape %dx%d", l.Points.N, l.Points.Dim)
	}
	for i := 0; i < l.Points.N; i++ {
		p := l.Points.At(i)
		seen := map[[2]float64]bool{}
		for c := 0; c < 5; c++ {
			suit, rank := p[2*c], p[2*c+1]
			if suit < 1 || suit > 4 || suit != math.Trunc(suit) {
				t.Fatalf("row %d card %d suit %v", i, c, suit)
			}
			if rank < 1 || rank > 13 || rank != math.Trunc(rank) {
				t.Fatalf("row %d card %d rank %v", i, c, rank)
			}
			key := [2]float64{suit, rank}
			if seen[key] {
				t.Fatalf("row %d repeats card %v (drawn with replacement?)", i, key)
			}
			seen[key] = true
		}
	}
}

func TestKDDLikeGeometry(t *testing.T) {
	l := KDDLike(KDDLikeConfig{N: 20000, Seed: 8})
	if l.Points.N != 20000 || l.Points.Dim != 38 {
		t.Fatalf("shape %dx%d", l.Points.N, l.Points.Dim)
	}
	// Dominant clusters: labels 0 and 1 should hold the majority of rows.
	counts := map[int]int{}
	for _, lb := range l.Labels {
		counts[lb]++
	}
	if frac := float64(counts[0]+counts[1]) / 20000; frac < 0.7 {
		t.Fatalf("dominant clusters hold only %.2f of mass", frac)
	}
	if counts[-1] == 0 {
		t.Fatal("expected some outlier rows")
	}
	// Feature scales must span many orders of magnitude.
	_, hi := l.Points.Bounds()
	maxV, minPosV := 0.0, math.Inf(1)
	for _, v := range hi {
		if v > maxV {
			maxV = v
		}
		if v > 0 && v < minPosV {
			minPosV = v
		}
	}
	if maxV/minPosV < 1e4 {
		t.Fatalf("feature scale span %v too small for KDD-like data", maxV/minPosV)
	}
	// All values non-negative like raw KDD counters.
	for i, v := range l.Points.Data {
		if v < 0 {
			t.Fatalf("negative feature at %d: %v", i, v)
		}
	}
}

func TestLoadCSVBasic(t *testing.T) {
	in := "1.5,2,3\n4,5,6.25\n"
	ds, err := LoadCSV(strings.NewReader(in), LoadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N != 2 || ds.Dim != 3 {
		t.Fatalf("shape %dx%d", ds.N, ds.Dim)
	}
	if ds.At(1)[2] != 6.25 {
		t.Fatalf("contents wrong: %v", ds.At(1))
	}
}

func TestLoadCSVHeaderAndColumnSelection(t *testing.T) {
	in := "a,b,c\n1,x,3\n4,y,6\n"
	ds, err := LoadCSV(strings.NewReader(in), LoadCSVOptions{SkipHeader: true, Columns: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N != 2 || ds.Dim != 2 || ds.At(0)[1] != 3 {
		t.Fatalf("unexpected %+v", ds)
	}
}

// TestLoadCSVDetectsHeader: with Columns nil and SkipHeader off, a first
// non-blank line with no numeric field is a header; only that line.
func TestLoadCSVDetectsHeader(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader("\n  \nx,label,y\n1,a,2\n3,b,4\n"), LoadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N != 2 || ds.Dim != 2 || ds.At(1)[1] != 4 {
		t.Fatalf("unexpected %+v", ds)
	}
	for _, c := range []struct {
		in   string
		opts LoadCSVOptions
		err  string
	}{
		{"x,y\na,b\n1,2\n", LoadCSVOptions{}, "dataset: line 2 has no numeric columns"},
		{"x,y\n", LoadCSVOptions{}, "dataset: no data rows"},
		{"skipped\nx,y\n1,2\n", LoadCSVOptions{SkipHeader: true}, "dataset: line 2 has no numeric columns"},
		{"x,y\n1,2\n", LoadCSVOptions{Columns: []int{0, 1}}, `dataset: line 1 column 0: strconv.ParseFloat: parsing "x": invalid syntax`},
	} {
		if _, err := LoadCSV(strings.NewReader(c.in), c.opts); fmt.Sprint(err) != c.err {
			t.Errorf("%q %+v: error %v, want %s", c.in, c.opts, err, c.err)
		}
	}
}

func TestLoadCSVAutodetectSkipsSymbolic(t *testing.T) {
	// KDD-style: symbolic protocol column in the middle.
	in := "0,tcp,181\n0,udp,239\n"
	ds, err := LoadCSV(strings.NewReader(in), LoadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dim != 2 {
		t.Fatalf("autodetect kept %d columns, want 2", ds.Dim)
	}
	if ds.At(1)[1] != 239 {
		t.Fatalf("wrong value %v", ds.At(1))
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV(strings.NewReader(""), LoadCSVOptions{}); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := LoadCSV(strings.NewReader("x,y\n"), LoadCSVOptions{}); err == nil {
		t.Fatal("expected error when no numeric columns")
	}
	if _, err := LoadCSV(strings.NewReader("1,2\n3,oops\n"), LoadCSVOptions{}); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := LoadCSV(strings.NewReader("1,2\n3\n"), LoadCSVOptions{Columns: []int{0, 1}}); err == nil {
		t.Fatal("expected error on short row")
	}
}

func TestLoadCSVIgnoreParseErrors(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader("1,2\n3,oops\n"), LoadCSVOptions{Columns: []int{0, 1}, IgnoreParseErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.At(1)[1] != 0 {
		t.Fatalf("unparseable field should become 0, got %v", ds.At(1)[1])
	}
}

// TestLoadCSVRejectsNonFinite: "NaN" and "Inf" parse as floats but are not
// coordinates; they fail like any unparseable field, naming the line and
// column, and read as 0 under IgnoreParseErrors.
func TestLoadCSVRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e999"} {
		in := "1,2\n3,4\n5," + v + "\n"
		_, err := LoadCSV(strings.NewReader(in), LoadCSVOptions{})
		if err == nil {
			t.Fatalf("%q accepted", v)
		}
		if !strings.Contains(err.Error(), "line 3 column 1") {
			t.Fatalf("%q: error %q does not name line 3 column 1", v, err)
		}
		ds, err := LoadCSV(strings.NewReader(in), LoadCSVOptions{IgnoreParseErrors: true})
		if err != nil {
			t.Fatalf("%q under IgnoreParseErrors: %v", v, err)
		}
		if ds.N != 3 || ds.At(2)[1] != 0 {
			t.Fatalf("%q under IgnoreParseErrors: %d rows, last %v, want it read as 0", v, ds.N, ds.At(2))
		}
	}
	// A non-finite value in the first data row still counts as numeric for
	// autodetection, so it fails loudly instead of dropping its column.
	if _, err := LoadCSV(strings.NewReader("1,NaN\n3,4\n"), LoadCSVOptions{}); err == nil ||
		!strings.Contains(err.Error(), "line 1 column 1") {
		t.Fatalf("NaN in the first row: error %v, want one naming line 1 column 1", err)
	}
}

func TestLoadCSVMaxRows(t *testing.T) {
	in := "1\n2\n3\n4\n"
	ds, err := LoadCSV(strings.NewReader(in), LoadCSVOptions{MaxRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N != 2 {
		t.Fatalf("MaxRows ignored, n = %d", ds.N)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	l := Unif(UnifConfig{N: 100, Seed: 11})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, l.Points); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(&buf, LoadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.N != l.Points.N || back.Dim != l.Points.Dim {
		t.Fatalf("round-trip shape %dx%d", back.N, back.Dim)
	}
	for i, v := range back.Data {
		if v != l.Points.Data[i] {
			t.Fatalf("round-trip value %d: %v != %v", i, v, l.Points.Data[i])
		}
	}
}

func TestGeneratorNames(t *testing.T) {
	if got := Unif(UnifConfig{N: 10, Seed: 1}).Name; got != "UNIF(n=10,d=2)" {
		t.Fatalf("name %q", got)
	}
	if got := Gau(GauConfig{N: 10, KPrime: 3, Seed: 1}).Name; got != "GAU(n=10,k'=3,d=2)" {
		t.Fatalf("name %q", got)
	}
	if got := Unb(GauConfig{N: 10, KPrime: 3, Seed: 1}).Name; got != "UNB(n=10,k'=3,d=2)" {
		t.Fatalf("name %q", got)
	}
}

func TestForEachCSVRowStreaming(t *testing.T) {
	in := "1,x,2\n3,y,4\n5,z,6\n"
	var rows [][]float64
	n, err := ForEachCSVRow(strings.NewReader(in), LoadCSVOptions{}, func(row []float64) error {
		// The iterator reuses the slice; keeping it requires a copy.
		rows = append(rows, append([]float64(nil), row...))
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	want := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	for i := range want {
		if rows[i][0] != want[i][0] || rows[i][1] != want[i][1] {
			t.Fatalf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}

	// A callback error stops the scan and propagates verbatim.
	sentinel := errors.New("stop")
	n, err = ForEachCSVRow(strings.NewReader(in), LoadCSVOptions{}, func([]float64) error {
		return sentinel
	})
	if err != sentinel || n != 0 {
		t.Fatalf("n=%d err=%v, want sentinel after 0 delivered rows", n, err)
	}

	if _, err := ForEachCSVRow(strings.NewReader(""), LoadCSVOptions{}, func([]float64) error { return nil }); err == nil {
		t.Fatal("empty input should fail")
	}
}

// TestLoadCSVRejectsBadColumns: a negative column is an error naming it,
// not an index panic, and LoadCSV refuses an empty column selection, whose
// rows would be points of no dimension.
func TestLoadCSVRejectsBadColumns(t *testing.T) {
	_, err := ForEachCSVRow(strings.NewReader("1,2\n3,4\n"), LoadCSVOptions{Columns: []int{-1}}, func([]float64) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "column -1") {
		t.Fatalf("Columns [-1]: error %v, want one naming column -1", err)
	}
	if _, err := LoadCSV(strings.NewReader("1,2\n3,4\n"), LoadCSVOptions{Columns: []int{1, -2}}); err == nil ||
		!strings.Contains(err.Error(), "column -2") {
		t.Fatalf("Columns [1 -2]: error %v, want one naming column -2", err)
	}
	if _, err := LoadCSV(strings.NewReader("1,2\n3,4\n"), LoadCSVOptions{Columns: []int{}}); err == nil {
		t.Fatal("an empty column selection loaded")
	}
}

// TestLoadCSVGrowth: LoadCSV's own growth of the matrix keeps every row, in
// order, at row counts on both sides of its first capacity doublings.
func TestLoadCSVGrowth(t *testing.T) {
	for _, c := range []struct{ n, dim int }{{1, 1}, {2048, 2}, {2049, 2}, {1366, 3}, {5000, 3}, {3, 5000}} {
		want := Unif(UnifConfig{N: c.n, Dim: c.dim, Seed: uint64(c.n)}).Points
		var buf bytes.Buffer
		if err := WriteCSV(&buf, want); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCSV(&buf, LoadCSVOptions{})
		if err != nil {
			t.Fatalf("%d×%d: %v", c.n, c.dim, err)
		}
		if got.N != want.N || got.Dim != want.Dim || len(got.Data) != len(want.Data) {
			t.Fatalf("%d×%d: loaded %d×%d (%d values)", c.n, c.dim, got.N, got.Dim, len(got.Data))
		}
		for i, v := range got.Data {
			if v != want.Data[i] {
				t.Fatalf("%d×%d: value %d = %v, want %v", c.n, c.dim, i, v, want.Data[i])
			}
		}
	}
}
