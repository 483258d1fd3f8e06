package metric

import (
	"math"
	"testing"
	"testing/quick"

	"kcenter/internal/rng"
)

// kernelInstance builds a random dataset plus query for the given raw fuzz
// inputs: dims 1..16 cover every specialized kernel and the generic
// fallback, and n is kept odd half the time so range endpoints and tails
// are exercised.
func kernelInstance(seed uint64, nRaw, dimRaw uint8) (*Dataset, []float64) {
	n := int(nRaw%61) + 1 // 1..61, hits odd and even lengths
	dim := int(dimRaw%16) + 1
	r := rng.New(seed)
	ds := NewDataset(n, dim)
	for i := range ds.Data {
		ds.Data[i] = r.Float64Range(-100, 100)
	}
	q := make([]float64, dim)
	for j := range q {
		q[j] = r.Float64Range(-100, 100)
	}
	return ds, q
}

// TestQuickSqDistsIntoMatchesSqDist pins the bit-identity contract: every
// specialized kernel must reproduce SqDist's accumulation exactly, and stay
// within floating-point reassociation distance of the scalar SqDistNaive
// oracle.
func TestQuickSqDistsIntoMatchesSqDist(t *testing.T) {
	f := func(seed uint64, nRaw, dimRaw, loRaw uint8) bool {
		ds, q := kernelInstance(seed, nRaw, dimRaw)
		lo := int(loRaw) % ds.N
		hi := ds.N
		dst := make([]float64, hi-lo)
		SqDistsInto(dst, ds, lo, hi, q)
		for i := lo; i < hi; i++ {
			want := SqDist(ds.At(i), q)
			if dst[i-lo] != want {
				t.Logf("dim=%d point %d: kernel %v != SqDist %v", ds.Dim, i, dst[i-lo], want)
				return false
			}
			naive := SqDistNaive(ds.At(i), q)
			if math.Abs(dst[i-lo]-naive) > 1e-9*(1+naive) {
				t.Logf("dim=%d point %d: kernel %v vs naive %v", ds.Dim, i, dst[i-lo], naive)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNearestInRangeMatchesScan checks the fused argmin against the
// reference per-point scan: same index (ties toward the lower index) and
// the same squared distance, bit for bit.
func TestQuickNearestInRangeMatchesScan(t *testing.T) {
	f := func(seed uint64, nRaw, dimRaw, loRaw uint8) bool {
		ds, q := kernelInstance(seed, nRaw, dimRaw)
		lo := int(loRaw) % ds.N
		hi := ds.N
		best, bestSq := NearestInRange(ds, lo, hi, q)
		wantBest, wantSq := lo, math.Inf(1)
		for i := lo; i < hi; i++ {
			if sq := SqDist(ds.At(i), q); sq < wantSq {
				wantSq = sq
				wantBest = i
			}
		}
		return best == wantBest && bestSq == wantSq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRelaxFarthestMatchesScan checks the fused relax-and-argmax
// against the reference loop, including the minSq updates it writes back.
func TestQuickRelaxFarthestMatchesScan(t *testing.T) {
	f := func(seed uint64, nRaw, dimRaw, loRaw uint8) bool {
		ds, q := kernelInstance(seed, nRaw, dimRaw)
		lo := int(loRaw) % ds.N
		hi := ds.N
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		minSq := make([]float64, ds.N)
		for i := range minSq {
			if r.Bernoulli(0.2) {
				minSq[i] = math.Inf(1) // fresh point, as at traversal start
			} else {
				minSq[i] = r.Float64Range(0, 20000)
			}
		}
		ref := append([]float64(nil), minSq...)
		next, far := RelaxFarthest(ds, lo, hi, q, minSq)
		wantNext, wantFar := lo, -1.0
		for i := lo; i < hi; i++ {
			if sq := SqDist(ds.At(i), q); sq < ref[i] {
				ref[i] = sq
			}
			if ref[i] > wantFar {
				wantFar = ref[i]
				wantNext = i
			}
		}
		for i := range ref {
			if minSq[i] != ref[i] {
				return false
			}
		}
		return next == wantNext && far == wantFar
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelsEmptyRange pins the degenerate-range contract.
func TestKernelsEmptyRange(t *testing.T) {
	ds := NewDataset(4, 2)
	q := []float64{1, 2}
	if best, sq := NearestInRange(ds, 2, 2, q); best != 2 || !math.IsInf(sq, 1) {
		t.Fatalf("NearestInRange empty = (%d, %v)", best, sq)
	}
	minSq := []float64{1, 1, 1, 1}
	if next, far := RelaxFarthest(ds, 3, 3, q, minSq); next != 3 || far != -1 {
		t.Fatalf("RelaxFarthest empty = (%d, %v)", next, far)
	}
	SqDistsInto(nil, ds, 1, 1, q) // must not panic
}

// TestQuickPrunedNearestMatchesFullScan: triangle-inequality pruning must
// never change the answer — same center position, same squared distance —
// on any random center set/query.
func TestQuickPrunedNearestMatchesFullScan(t *testing.T) {
	f := func(seed uint64, kRaw, dimRaw uint8) bool {
		centers, q := kernelInstance(seed, kRaw, dimRaw)
		pr := newPruned(centers)
		best, bestSq, evals := pr.nearest(q)
		wantBest, wantSq := NearestInRange(centers, 0, centers.N, q)
		if evals < 1 || evals > int64(centers.N) {
			return false
		}
		return best == wantBest && bestSq == wantSq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPrunedSkipsEvaluations is the sanity check that pruning actually
// prunes in the regime it is built for: tight clusters far apart.
func TestPrunedSkipsEvaluations(t *testing.T) {
	const k = 32
	r := rng.New(5)
	centers := NewDataset(k, 2)
	for i := 0; i < k; i++ {
		centers.At(i)[0] = float64(i) * 1000
		centers.At(i)[1] = 0
	}
	pr := newPruned(centers)
	// Once the true center is found, everything after it prunes: a query
	// near center c costs at most c+1 evaluations (the scan walks toward c
	// improving the bound, then the tail is ruled out), never the full k.
	var total int64
	const queries = 200
	for qi := 0; qi < queries; qi++ {
		c := r.Intn(k)
		q := []float64{float64(c)*1000 + r.Float64Range(-1, 1), r.Float64Range(-1, 1)}
		best, _, evals := pr.nearest(q)
		if best != c {
			t.Fatalf("query near center %d assigned to %d", c, best)
		}
		if evals > int64(c)+1 {
			t.Fatalf("query near center %d took %d evaluations, want <= %d", c, evals, c+1)
		}
		total += evals
	}
	if avg := float64(total) / queries; avg > float64(k)*0.7 {
		t.Fatalf("average %.1f evaluations per query, want well below the full scan's %d", avg, k)
	}
	// Queries that land on the first candidate immediately prune every
	// other center: exactly one evaluation.
	for qi := 0; qi < 50; qi++ {
		q := []float64{r.Float64Range(-1, 1), r.Float64Range(-1, 1)}
		if _, _, evals := pr.nearest(q); evals != 1 {
			t.Fatalf("query on center 0 took %d evaluations, want 1", evals)
		}
	}
}
