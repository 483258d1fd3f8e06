package metric

import (
	"math"
	"testing"

	"kcenter/internal/rng"
)

// TestNewIndexKind pins NewIndex's rule to literal values for every k from
// 0 to 128: the sweep from k = 16 at dims 1 and 2, the pruned scan above
// k = 21 at dim 3, k = 16 at dim 4 and k = 8 from dim 8 on, the plain scan
// everywhere else. A NaN or ±Inf center coordinate keeps dims 1 and 2 on
// the plain scan, since the sweep's sort needs ordered keys. The build
// cost is the pruned scan's k² matrix and nothing for the other kinds.
func TestNewIndexKind(t *testing.T) {
	const never = math.MaxInt
	rules := []struct {
		dim         int
		sweepFrom   int // the sweep for k ≥ sweepFrom
		prunedAbove int // the pruned scan for k > prunedAbove
	}{
		{1, 16, never}, {2, 16, never},
		{3, never, 21}, {4, never, 16}, {8, never, 8},
		{10, never, 8}, {38, never, 8}, {64, never, 8},
	}
	r := rng.New(3)
	for _, rule := range rules {
		for k := 0; k <= 128; k++ {
			centers := NewDataset(k, rule.dim)
			for i := range centers.Data {
				centers.Data[i] = r.Float64Range(-10, 10)
			}
			want := kindPlain
			switch {
			case k >= rule.sweepFrom:
				want = kindSweep
			case k > rule.prunedAbove:
				want = kindPruned
			}
			x := NewIndex(centers)
			if x.kind != want {
				t.Fatalf("dim=%d k=%d: kind %d, want %d", rule.dim, k, x.kind, want)
			}
			wantBuild := int64(0)
			if want == kindPruned {
				wantBuild = int64(k) * int64(k)
			}
			if got := x.BuildEvals(); got != wantBuild {
				t.Fatalf("dim=%d k=%d: BuildEvals %d, want %d", rule.dim, k, got, wantBuild)
			}
			if k >= 16 && rule.dim <= 2 {
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					c := centers.Clone()
					c.Data[r.Intn(len(c.Data))] = bad
					if got := NewIndex(c).kind; got != kindPlain {
						t.Fatalf("dim=%d k=%d with a %v coordinate: kind %d, want plain", rule.dim, k, bad, got)
					}
				}
			}
		}
	}
}

// TestPrunedIndexCountsMatrix: on a known instance the pruned kind's
// evaluations are its k² matrix plus each query's unskipped centers.
// Centers {0} and {10}: queries 0, 1 and 4 skip the second center (the
// gap 10 is at least twice their distance to the first), 9 and 10 cannot,
// so 2² + 3·1 + 2·2 = 11.
func TestPrunedIndexCountsMatrix(t *testing.T) {
	centers, _ := FromPoints([][]float64{{0}, {10}})
	queries, _ := FromPoints([][]float64{{0}, {1}, {9}, {10}, {4}})
	x := newIndex(centers, kindPruned)
	evals := x.BuildEvals() + x.NearestBatch(queries, make([]int, 5), make([]float64, 5))
	if evals != 11 {
		t.Fatalf("pruned evaluations %d, want 11", evals)
	}
}
