package core

import (
	"fmt"
	"math"
	"testing"

	"kcenter/internal/dataset"
	"kcenter/internal/metric"
)

// gonzalezReference is the pre-kernel formulation of the traversal — the
// per-point SqDist loop the fused RelaxFarthest kernel replaced, with the
// assignment carried by the same strict-< update. The kernel-backed and
// blocked traversals must reproduce it bit for bit: same centers, same
// radius, same MinDist, same Assignment.
func gonzalezReference(ds *metric.Dataset, k, first int) *Result {
	n := ds.N
	if k > n {
		k = n
	}
	res := &Result{Centers: make([]int, 0, k), Assignment: make([]int, n)}
	minSq := make([]float64, n)
	for i := range minSq {
		minSq[i] = math.Inf(1)
	}
	center := first
	for len(res.Centers) < k {
		res.Centers = append(res.Centers, center)
		cp := ds.At(center)
		next, far := center, -1.0
		for i := 0; i < n; i++ {
			if sq := metric.SqDist(ds.At(i), cp); sq < minSq[i] {
				minSq[i] = sq
				res.Assignment[i] = len(res.Centers) - 1
			}
			if minSq[i] > far {
				far = minSq[i]
				next = i
			}
		}
		res.DistEvals += int64(n)
		if len(res.Centers) == k {
			res.Radius = math.Sqrt(far)
			break
		}
		if far == 0 {
			res.Radius = 0
			break
		}
		center = next
	}
	res.MinDist = make([]float64, n)
	for i, sq := range minSq {
		res.MinDist[i] = math.Sqrt(sq)
	}
	return res
}

type referenceWorkload struct {
	name string
	ds   *metric.Dataset
	k    int
}

// referenceWorkloads covers the paper's workload families and dimensions
// hitting every specialized kernel plus the generic fallback.
func referenceWorkloads() []referenceWorkload {
	return []referenceWorkload{
		{"UNIF-2D", dataset.Unif(dataset.UnifConfig{N: 4000, Seed: 41}).Points, 25},
		{"GAU-2D", dataset.Gau(dataset.GauConfig{N: 4000, KPrime: 25, Seed: 42}).Points, 25},
		{"GAU-3D", dataset.Gau(dataset.GauConfig{N: 3000, KPrime: 10, Dim: 3, Seed: 43}).Points, 10},
		{"UNIF-4D", dataset.Unif(dataset.UnifConfig{N: 3000, Dim: 4, Seed: 44}).Points, 8},
		{"UNIF-8D", dataset.Unif(dataset.UnifConfig{N: 2000, Dim: 8, Seed: 45}).Points, 8},
		{"UNIF-5D", dataset.Unif(dataset.UnifConfig{N: 2000, Dim: 5, Seed: 46}).Points, 8},
	}
}

// requireSameAsReference fails unless got matches the reference loop's
// centers, radius, evaluation count and MinDist bit for bit, and its
// Assignment too when got carries one.
func requireSameAsReference(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Centers) != len(want.Centers) {
		t.Fatalf("%s: %d centers != %d", label, len(got.Centers), len(want.Centers))
	}
	for i := range want.Centers {
		if got.Centers[i] != want.Centers[i] {
			t.Fatalf("%s: center %d is %d, reference %d", label, i, got.Centers[i], want.Centers[i])
		}
	}
	if got.Radius != want.Radius {
		t.Fatalf("%s: radius %v != %v", label, got.Radius, want.Radius)
	}
	if got.DistEvals != want.DistEvals {
		t.Fatalf("%s: evals %d != %d", label, got.DistEvals, want.DistEvals)
	}
	for i := range want.MinDist {
		if got.MinDist[i] != want.MinDist[i] {
			t.Fatalf("%s: MinDist[%d] %v != %v", label, i, got.MinDist[i], want.MinDist[i])
		}
	}
	for i := range got.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			t.Fatalf("%s: Assignment[%d] %d != %d", label, i, got.Assignment[i], want.Assignment[i])
		}
	}
}

// TestGonzalezBitIdenticalToReference pins the kernel rewrite against the
// reference loop across the workloads and several first centers.
func TestGonzalezBitIdenticalToReference(t *testing.T) {
	for _, w := range referenceWorkloads() {
		for _, first := range []int{0, w.ds.N / 2, w.ds.N - 1} {
			want := gonzalezReference(w.ds, w.k, first)
			got := Gonzalez(w.ds, w.k, Options{First: first})
			requireSameAsReference(t, fmt.Sprintf("%s first=%d", w.name, first), got, want)
		}
	}
}

// TestGonzalezPooledBitIdenticalToReference pins the pooled split of the
// relaxation pass against the reference loop rather than against
// sequential Gonzalez, which shares the traversal with it: pool sizes 1, 2,
// 3 and 8, plus a pool larger than the dataset, where the surplus workers
// must not take part.
func TestGonzalezPooledBitIdenticalToReference(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		pool := NewPool(workers)
		for _, w := range referenceWorkloads() {
			for _, first := range []int{0, w.ds.N - 1} {
				want := gonzalezReference(w.ds, w.k, first)
				got := GonzalezPooled(w.ds, w.k, Options{First: first}, pool)
				requireSameAsReference(t, fmt.Sprintf("workers=%d %s first=%d", workers, w.name, first), got, want)
			}
		}
		pool.Close()
	}
	small, err := metric.FromPoints([][]float64{{0, 0}, {3, 1}, {1, 4}, {-2, 2}, {5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(8)
	defer pool.Close()
	for k := 1; k <= 6; k++ {
		requireSameAsReference(t, fmt.Sprintf("n=5 workers=8 k=%d", k),
			GonzalezPooled(small, k, Options{First: 2}, pool), gonzalezReference(small, k, 2))
	}
}
