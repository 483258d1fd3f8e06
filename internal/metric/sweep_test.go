package metric

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"kcenter/internal/rng"
)

// TestSweepMatchesBruteForce: for random sets and queries, the sorted sweep
// keeps Lower's contract against want = min(seed, the brute-force kernel's
// squared minimum), whichever coordinate the rows are sorted by: when √want
// exceeds the cut it returns want bit for bit, and otherwise a value v ≥
// want with √v ≤ cut. The cuts are −1 and 0, √want and its neighbouring
// floats, 1e300 (whose square overflows) and +Inf. Grid sets hold duplicate
// rows and tied distances; in the constant sets coordinate 0 never varies,
// so a sweep sorted by it degrades to a full scan.
func TestSweepMatchesBruteForce(t *testing.T) {
	r := rng.New(31)
	for _, dim := range []int{1, 2, 3, 4, 5, 8} {
		for trial := 0; trial < 40; trial++ {
			n := 1 + r.Intn(300)
			if trial == 0 {
				n = 1
			}
			grid, constant := trial%2 == 1, trial%4 >= 2
			ds := NewDataset(n, dim)
			for i := range ds.Data {
				if grid {
					ds.Data[i] = float64(r.Intn(5))
				} else {
					ds.Data[i] = r.Float64Range(-50, 50)
				}
			}
			if constant {
				for i := 0; i < n; i++ {
					ds.At(i)[0] = 2
				}
			}
			// A subset in random order, so the gather has to sort it.
			set := ds.Subset(r.Perm(n)[:1+r.Intn(n)])
			sweeps := []*Sweep{NewSweep(set)}
			for axis := 0; axis < dim; axis++ {
				sweeps = append(sweeps, sweepOn(set, axis))
			}
			for qi := 0; qi < 30; qi++ {
				q := make([]float64, dim)
				switch qi % 3 {
				case 0: // a point of ds: often in the set, so at distance 0
					copy(q, ds.At(r.Intn(n)))
				case 1: // inside the set's range
					for c := range q {
						q[c] = r.Float64Range(-50, 50)
						if grid {
							q[c] = float64(r.Intn(5))
						}
					}
				case 2: // outside the set's range in every coordinate
					for c := range q {
						q[c] = r.Float64Range(60, 500)
						if r.Intn(2) == 0 {
							q[c] = -q[c]
						}
					}
				}
				_, brute := NearestInRange(set, 0, set.N, q)
				for _, seed := range []float64{math.Inf(1), 0, brute, brute / 2, 2 * brute, r.Float64Range(0, 1e4)} {
					want := math.Min(seed, brute)
					root := math.Sqrt(want)
					for _, cut := range []float64{-1, 0, root, math.Nextafter(root, 0), math.Nextafter(root, math.Inf(1)), 1e300, math.Inf(1)} {
						for _, s := range sweeps {
							got := s.Lower(q, seed, cut)
							if root > cut && math.Float64bits(got) != math.Float64bits(want) ||
								root <= cut && !(got >= want && math.Sqrt(got) <= cut) {
								t.Fatalf("dim=%d trial=%d |set|=%d query %v: sweep on axis %d gives %v for seed %v, cut %v; brute force min(seed, %v) = %v",
									dim, trial, set.N, q, s.axis, got, seed, cut, brute, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestQuickSweepWithinMatchesBruteForce: Within(q, limSq) is true exactly
// when some row has SqDist(row, q) ≤ limSq, on a sweep sorted by each
// coordinate, at dims 1–3 (the dim-2 body and the generic one).
// Sets are continuous, tie grids (duplicate rows, tied distances and
// repeated keys within one bucket) or mix ±1e154 with small values (some
// squared distances overflow, and at ±1e308 the key span overflows so
// there is no bucket table). Queries are rows, rows moved along one axis,
// draws in and far outside the range, and rows with one NaN or ±Inf
// coordinate. limSq runs over 0, the brute-force minimum and its
// neighbouring floats, the squared gap of a row moved along the sort
// axis, a random value, +Inf, −1 and NaN.
func TestQuickSweepWithinMatchesBruteForce(t *testing.T) {
	inf := math.Inf(1)
	f := func(seed uint64, nRaw, dimRaw, kindRaw uint8) bool {
		r := rng.New(seed)
		n, dim := int(nRaw%100), int(dimRaw%3)+1
		draw := func() float64 {
			switch kindRaw % 4 {
			case 0:
				return float64(r.Intn(5)) / 2
			case 1:
				return []float64{-1e154, 1e154, 0, 1, -3}[r.Intn(5)]
			case 2:
				return []float64{-1e308, 1e308, 0, 1, -3}[r.Intn(5)]
			}
			return r.Float64Range(-50, 50)
		}
		set := NewDataset(n, dim)
		for i := range set.Data {
			set.Data[i] = draw()
		}
		sweeps := []*Sweep{NewSweep(set)}
		for axis := 0; axis < dim; axis++ {
			sweeps = append(sweeps, sweepOn(set, axis))
		}
		for qi := 0; qi < 40; qi++ {
			q := make([]float64, dim)
			for c := range q {
				q[c] = draw()
			}
			if n > 0 && qi%2 == 0 {
				copy(q, set.At(r.Intn(n)))
			}
			axis := r.Intn(dim)
			switch qi % 5 {
			case 1:
				q[axis] += r.Float64Range(-5, 5)
			case 2:
				q[axis] = r.Float64Range(60, 1e6)
			case 3:
				q[axis] = []float64{math.NaN(), inf, -inf}[r.Intn(3)]
			}
			_, brute := NearestInRange(set, 0, n, q)
			lims := []float64{0, brute, math.Nextafter(brute, 0), math.Nextafter(brute, inf), r.Float64Range(0, 1e4), inf, -1, math.NaN()}
			if n > 0 {
				g := q[axis] - set.At(r.Intn(n))[axis]
				lims = append(lims, g*g)
			}
			for _, limSq := range lims {
				want := false
				for i := 0; i < n; i++ {
					if SqDist(set.At(i), q) <= limSq {
						want = true
					}
				}
				for _, s := range sweeps {
					if got := s.Within(q, limSq); got != want {
						t.Logf("dim=%d n=%d axis=%d table=%v: Within(%v, %v) = %v, brute force %v",
							dim, n, s.axis, s.start != nil, q, limSq, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepEmptySet: with no rows the carried value stands, and the argmin
// is NearestInRange's empty answer, position 0 at +Inf, with nothing
// evaluated.
func TestSweepEmptySet(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		s := NewSweep(NewDataset(0, dim))
		q := make([]float64, dim)
		for _, seed := range []float64{math.Inf(1), 7} {
			if got := s.Lower(q, seed, -1); got != seed {
				t.Fatalf("dim %d: empty sweep lowered %v to %v", dim, seed, got)
			}
		}
		if c, sq, evals := s.nearest(q); c != 0 || !math.IsInf(sq, 1) || evals != 0 {
			t.Fatalf("dim %d: empty sweep's nearest is (%d, %v) after %d evals, want (0, +Inf) after 0", dim, c, sq, evals)
		}
	}
}

// TestSweepSearch: the bucketed search finds what sort.SearchFloat64s finds
// over the sorted keys (0 for a NaN query, where SearchFloat64s answers the
// row count), for key sets with and without a bucket table: no
// rows and one row, all-equal keys, tie grids, clustered and continuous
// keys, a span of two adjacent floats, subnormal keys (the scale
// overflows), and keys at ±1e154 and ±1e308 (at ±1e308 the span
// overflows). The queries are every key, its neighbouring floats, draws
// inside and outside the range, NaN and ±Inf.
func TestSweepSearch(t *testing.T) {
	r := rng.New(53)
	inf := math.Inf(1)
	sets := map[string]func(n int) float64{
		"equal":      func(int) float64 { return 3 },
		"tie-grid":   func(int) float64 { return float64(r.Intn(5)) / 2 },
		"continuous": func(int) float64 { return r.Float64Range(-50, 50) },
		"clustered":  func(int) float64 { return float64(r.Intn(3))*1e4 + r.Float64Range(0, 1) },
		"adjacent":   func(int) float64 { return math.Nextafter(1, float64(r.Intn(2))*2) },
		"subnormal":  func(int) float64 { return float64(r.Intn(4)) * 5e-324 },
		"1e154":      func(int) float64 { return []float64{-1e154, 1e154, 0, 1, -3}[r.Intn(5)] },
		"1e308":      func(int) float64 { return []float64{-1e308, 1e308, 0, 1, -3}[r.Intn(5)] },
	}
	tabled := 0
	for name, draw := range sets {
		for _, n := range []int{0, 1, 2, 3, 7, 64, 500} {
			ds := NewDataset(n, 1)
			for i := range ds.Data {
				ds.Data[i] = draw(n)
			}
			s := NewSweep(ds)
			if s.start != nil {
				tabled++
			}
			queries := []float64{math.NaN(), inf, -inf, 0, -1e308, 1e308}
			for _, key := range s.keys {
				queries = append(queries, key, math.Nextafter(key, -inf), math.Nextafter(key, inf))
			}
			for i := 0; i < 50; i++ {
				queries = append(queries, draw(n), r.Float64Range(-1e5, 1e5))
			}
			for _, x := range queries {
				want := sort.SearchFloat64s(s.keys, x)
				if math.IsNaN(x) {
					want = 0 // no key is below NaN, nor at or above it
				}
				if got := s.search(x); got != want {
					t.Fatalf("%s n=%d (table %v): search(%v) = %d, sort.SearchFloat64s = %d", name, n, s.start != nil, x, got, want)
				}
			}
		}
	}
	if tabled == 0 {
		t.Fatal("no key set built a bucket table")
	}
}

// TestSweepNearestMatchesNearestInRange pins every Index kernel to the
// plain scan it stands in for: each forced kind (plain, sweep, pruned)
// returns the same position and bit-equal squared distance, after at most
// k evaluations, for every k from 0 to 128, query by query and through
// NearestBatch. The sweep runs at the dims NewIndex gives it (1 and 2) and
// at dim 3 (the generic body); the plain and pruned scans also at dims 4,
// 8 and 10 (their dimension-specialized and generic bodies). The inputs
// stress the tie-break, the sweep's strict stop and the pruned scan's
// certificate:
//
//   - tie grids: coordinates on {0, 0.5, …, 2}, so centers repeat and a
//     query on the grid is often equidistant from several of them;
//   - continuous centers, with queries inside and far outside their range;
//   - huge coordinates, ±1e154 beside small ones, where some squared
//     distances overflow to +Inf and, for some queries, all do — the plain
//     scan then answers position 0 at +Inf;
//   - a NaN query coordinate, which the plain scan also answers with
//     position 0 at +Inf.
func TestSweepNearestMatchesNearestInRange(t *testing.T) {
	r := rng.New(47)
	const (
		tieGrid = iota
		continuous
		huge
		inputs
	)
	draw := func(input int) float64 {
		switch input {
		case tieGrid:
			return float64(r.Intn(5)) / 2
		case huge:
			return []float64{-1e154, 1e154, 0, 1, -3}[r.Intn(5)]
		default:
			return r.Float64Range(-50, 50)
		}
	}
	const queries = 24
	outC := make([]int, queries)
	outSq := make([]float64, queries)
	for _, dim := range []int{1, 2, 3, 4, 8, 10} {
		kinds := []indexKind{kindPlain, kindPruned}
		if dim <= 3 {
			kinds = append(kinds, kindSweep)
		}
		for k := 0; k <= 128; k++ {
			for input := 0; input < inputs; input++ {
				centers := NewDataset(k, dim)
				for i := range centers.Data {
					centers.Data[i] = draw(input)
				}
				qs := NewDataset(queries, dim)
				for qi := 0; qi < queries; qi++ {
					q := qs.At(qi)
					switch {
					case qi < 4 && k > 0: // a center: distance 0, often tied
						copy(q, centers.At(r.Intn(k)))
					case qi < 16:
						for c := range q {
							q[c] = draw(input)
						}
					case qi < 20: // outside the centers' range
						for c := range q {
							q[c] = r.Float64Range(60, 1e6)
							if r.Intn(2) == 0 {
								q[c] = -q[c]
							}
						}
					default: // NaN in one coordinate
						for c := range q {
							q[c] = draw(input)
						}
						q[r.Intn(dim)] = math.NaN()
					}
				}
				for _, kind := range kinds {
					x := newIndex(centers, kind)
					var sum int64
					for qi := 0; qi < queries; qi++ {
						q := qs.At(qi)
						wantC, wantSq := NearestInRange(centers, 0, k, q)
						c, sq, evals := x.Nearest(q)
						if c != wantC || math.Float64bits(sq) != math.Float64bits(wantSq) {
							t.Fatalf("dim=%d k=%d input=%d kind=%d query %v: index (%d, %v), plain scan (%d, %v)",
								dim, k, input, kind, q, c, sq, wantC, wantSq)
						}
						if evals > int64(k) {
							t.Fatalf("dim=%d k=%d input=%d kind=%d query %v: evaluated %d > k distances", dim, k, input, kind, q, evals)
						}
						sum += evals
					}
					if evals := x.NearestBatch(qs, outC, outSq); evals != sum {
						t.Fatalf("dim=%d k=%d input=%d kind=%d: batch evaluated %d distances, queries %d", dim, k, input, kind, evals, sum)
					}
					for qi := 0; qi < queries; qi++ {
						c, sq, _ := x.Nearest(qs.At(qi))
						if outC[qi] != c || math.Float64bits(outSq[qi]) != math.Float64bits(sq) {
							t.Fatalf("dim=%d k=%d input=%d kind=%d query %d: batch (%d, %v), query (%d, %v)",
								dim, k, input, kind, qi, outC[qi], outSq[qi], c, sq)
						}
					}
				}
			}
		}
	}
}
