package core

import (
	"math"
	"testing"

	"kcenter/internal/dataset"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

func TestGonzalezParallelMatchesSequential(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 15; trial++ {
		n := 100 + r.Intn(2000)
		dim := 1 + r.Intn(6)
		k := 1 + r.Intn(12)
		ds := randomDataset(t, r, n, dim)
		seq := Gonzalez(ds, k, Options{})
		for _, workers := range []int{2, 4, 7, 16} {
			par := GonzalezParallel(ds, k, Options{}, workers)
			if len(par.Centers) != len(seq.Centers) {
				t.Fatalf("trial %d workers=%d: %d centers vs %d",
					trial, workers, len(par.Centers), len(seq.Centers))
			}
			for i := range seq.Centers {
				if par.Centers[i] != seq.Centers[i] {
					t.Fatalf("trial %d workers=%d: center %d differs: %d vs %d",
						trial, workers, i, par.Centers[i], seq.Centers[i])
				}
			}
			if math.Abs(par.Radius-seq.Radius) > 1e-12*(1+seq.Radius) {
				t.Fatalf("trial %d workers=%d: radius %v vs %v",
					trial, workers, par.Radius, seq.Radius)
			}
		}
	}
}

func TestGonzalezParallelTieBreaking(t *testing.T) {
	// A grid with many exactly-equidistant points stresses the deterministic
	// max-reduction: parallel and sequential must still agree exactly.
	pts := make([][]float64, 0, 256)
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			pts = append(pts, []float64{float64(x), float64(y)})
		}
	}
	ds := mustDataset(t, pts)
	seq := Gonzalez(ds, 9, Options{})
	for _, workers := range []int{2, 3, 8, 64} {
		par := GonzalezParallel(ds, 9, Options{}, workers)
		for i := range seq.Centers {
			if par.Centers[i] != seq.Centers[i] {
				t.Fatalf("workers=%d: tie-broken center %d differs (%d vs %d)",
					workers, i, par.Centers[i], seq.Centers[i])
			}
		}
	}
}

func TestGonzalezParallelDegenerate(t *testing.T) {
	ds := mustDataset(t, [][]float64{{1}, {1}, {1}})
	res := GonzalezParallel(ds, 3, Options{}, 8)
	if res.Radius != 0 {
		t.Fatalf("radius %v", res.Radius)
	}
	// workers <= 1 delegates to the sequential path.
	one := GonzalezParallel(ds, 2, Options{}, 1)
	if one.Radius != 0 {
		t.Fatalf("radius %v", one.Radius)
	}
	// k > n clamps.
	big := GonzalezParallel(ds, 50, Options{}, 4)
	if len(big.Centers) == 0 || len(big.Centers) > 3 {
		t.Fatalf("centers %v", big.Centers)
	}
}

func TestGonzalezParallelRandomFirst(t *testing.T) {
	r := rng.New(2)
	ds := randomDataset(t, r, 500, 2)
	first := rng.New(7).Intn(ds.N)
	a := GonzalezParallel(ds, 5, Options{First: first}, 4)
	b := Gonzalez(ds, 5, Options{First: first})
	if a.Centers[0] != first || b.Centers[0] != first {
		t.Fatalf("first centers %d and %d, want %d", a.Centers[0], b.Centers[0], first)
	}
	for i := range a.Centers {
		if a.Centers[i] != b.Centers[i] {
			t.Fatal("random-first traversals diverged")
		}
	}
}

func TestGonzalezParallelMinDist(t *testing.T) {
	r := rng.New(3)
	ds := randomDataset(t, r, 300, 3)
	res := GonzalezParallel(ds, 6, Options{}, 5)
	for i := 0; i < ds.N; i++ {
		best := math.Inf(1)
		for _, c := range res.Centers {
			if d := ds.Dist(i, c); d < best {
				best = d
			}
		}
		if math.Abs(res.MinDist[i]-best) > 1e-9*(1+best) {
			t.Fatalf("MinDist[%d] = %v, want %v", i, res.MinDist[i], best)
		}
	}
}

func TestGonzalezParallelPanics(t *testing.T) {
	ds := mustDataset(t, [][]float64{{1}})
	for name, fn := range map[string]func(){
		"k=0":   func() { GonzalezParallel(ds, 0, Options{}, 4) },
		"first": func() { GonzalezParallel(ds, 1, Options{First: 9}, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func mustDataset(t *testing.T, pts [][]float64) *metric.Dataset {
	t.Helper()
	ds, err := metric.FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func BenchmarkGonzalezParallel(b *testing.B) {
	l := dataset.Unif(dataset.UnifConfig{N: 200000, Seed: 1})
	for _, workers := range []int{1, 4, 16} {
		workers := workers
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GonzalezParallel(l.Points, 50, Options{}, workers)
			}
		})
	}
}
