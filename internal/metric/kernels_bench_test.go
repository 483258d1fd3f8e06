package metric

import (
	"math"
	"strconv"
	"testing"

	"kcenter/internal/rng"
)

// benchData builds an n-point dataset and query of the given dimension.
func benchData(n, dim int, seed uint64) (*Dataset, []float64) {
	r := rng.New(seed)
	ds := NewDataset(n, dim)
	for i := range ds.Data {
		ds.Data[i] = r.Float64Range(0, 100)
	}
	q := make([]float64, dim)
	for j := range q {
		q[j] = r.Float64Range(0, 100)
	}
	return ds, q
}

func dimName(dim int) string {
	return "dim=" + strconv.Itoa(dim)
}

// BenchmarkKernelRelaxFarthest measures the fused relaxation kernel against
// the per-point At()+SqDist formulation it replaced, across the specialized
// dimensions and the generic fallback (dim 5).
func BenchmarkKernelRelaxFarthest(b *testing.B) {
	const n = 50000
	for _, dim := range []int{2, 3, 4, 8, 5} {
		ds, q := benchData(n, dim, uint64(dim))
		minSq := make([]float64, n)
		b.Run("kernel/"+dimName(dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range minSq {
					minSq[j] = math.Inf(1)
				}
				RelaxFarthest(ds, 0, n, q, minSq)
			}
		})
		b.Run("perpoint/"+dimName(dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range minSq {
					minSq[j] = math.Inf(1)
				}
				next, far := 0, -1.0
				for p := 0; p < n; p++ {
					if sq := SqDist(ds.At(p), q); sq < minSq[p] {
						minSq[p] = sq
					}
					if minSq[p] > far {
						far = minSq[p]
						next = p
					}
				}
				_ = next
			}
		})
	}
}

// BenchmarkKernelNearest measures the fused argmin kernel on the 2-D
// common case.
func BenchmarkKernelNearest(b *testing.B) {
	const n = 50000
	ds, q := benchData(n, 2, 7)
	b.Run("kernel/dim=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NearestInRange(ds, 0, n, q)
		}
	})
	b.Run("perpoint/dim=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			best, bestSq := 0, math.Inf(1)
			for p := 0; p < n; p++ {
				if sq := SqDist(ds.At(p), q); sq < bestSq {
					bestSq = sq
					best = p
				}
			}
			_ = best
		}
	})
}

// prunedInstance builds the clustered workload pruning is built for: k
// tight clusters, queries near centers (assignment after clustering,
// steady-state streaming pushes).
func prunedInstance(k, dim, queries int) (*Dataset, *Dataset) {
	r := rng.New(9)
	centers := NewDataset(k, dim)
	for i := range centers.Data {
		centers.Data[i] = r.Float64Range(0, 100)
	}
	qs := NewDataset(queries, dim)
	for i := 0; i < queries; i++ {
		c := centers.At(r.Intn(k))
		for d := 0; d < dim; d++ {
			qs.At(i)[d] = c[d] + r.NormFloat64()*0.1
		}
	}
	return centers, qs
}

// BenchmarkKernelPrunedNearest measures the triangle-inequality-pruned
// nearest-center query against the full kernel scan on clustered
// instances. The original single shape (k=25, dim=2) sits right at the
// crossover; the (k, dim) sweep samples both sides of it in every
// dimension class so NewIndex's pruned crossover can be validated (and
// refitted) against measured data rather than one point — see the fit on
// NewIndex.
func BenchmarkKernelPrunedNearest(b *testing.B) {
	const queries = 10000
	run := func(name string, k, dim int) {
		centers, qs := prunedInstance(k, dim, queries)
		pr := newPruned(centers)
		b.Run("pruned/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < queries; qi++ {
					pr.nearest(qs.At(qi))
				}
			}
		})
		b.Run("fullscan/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < queries; qi++ {
					NearestInRange(centers, 0, k, qs.At(qi))
				}
			}
		})
	}
	// The historical headline shape first, keeping the baseline row
	// comparable across BENCH_kernels.json generations.
	run("k=25/dim=2", 25, 2)
	for _, dim := range []int{2, 3, 4, 8} {
		for _, k := range []int{8, 16, 50, 100} {
			run("k="+itoa(k)+"/dim="+itoa(dim), k, dim)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
