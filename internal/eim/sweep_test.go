package eim

import (
	"math"
	"testing"

	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// TestSweepMatchesBruteForce: for random sets and queries, the sorted sweep
// returns min(seed, the brute-force kernel's squared minimum) bit for bit,
// whichever coordinate the rows are sorted by. Grid sets hold duplicate rows
// and tied distances; in the constant sets coordinate 0 never varies, so a
// sweep sorted by it degrades to a full scan.
func TestSweepMatchesBruteForce(t *testing.T) {
	r := rng.New(31)
	for _, dim := range []int{1, 2, 3, 4, 5, 8} {
		for trial := 0; trial < 40; trial++ {
			n := 1 + r.Intn(300)
			if trial == 0 {
				n = 1
			}
			grid, constant := trial%2 == 1, trial%4 >= 2
			ds := metric.NewDataset(n, dim)
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
			idx := r.Perm(n)[:1+r.Intn(n)]
			set := ds.Subset(idx)
			sweeps := []*sweep{newSweep(ds, idx)}
			for axis := 0; axis < dim; axis++ {
				sweeps = append(sweeps, sweepOn(ds, idx, axis))
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
				_, brute := metric.NearestInRange(set, 0, set.N, q)
				for _, seed := range []float64{math.Inf(1), 0, brute, brute / 2, 2 * brute, r.Float64Range(0, 1e4)} {
					want := math.Min(seed, brute)
					for _, s := range sweeps {
						if got := s.lower(q, seed); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("dim=%d trial=%d |set|=%d query %v: sweep on axis %d gives %v for seed %v, brute force min(seed, %v) = %v",
								dim, trial, len(idx), q, s.axis, got, seed, brute, want)
						}
					}
				}
			}
		}
	}
}

// TestSweepEmptySet: with nothing sampled the carried value stands.
func TestSweepEmptySet(t *testing.T) {
	ds, _ := metric.FromPoints([][]float64{{1, 2}, {3, 4}})
	s := newSweep(ds, nil)
	for _, seed := range []float64{math.Inf(1), 7} {
		if got := s.lower(ds.At(0), seed); got != seed {
			t.Fatalf("empty sweep lowered %v to %v", seed, got)
		}
	}
}
