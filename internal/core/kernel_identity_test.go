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
// hitting every specialized kernel plus the generic fallback, a tie-heavy
// integer grid (many exactly equidistant points, so the argmax must keep
// the lowest index) and a five-point input asked for more centers than
// it has.
func referenceWorkloads() []referenceWorkload {
	grid := metric.NewDataset(16*16, 2)
	for i := 0; i < grid.N; i++ {
		grid.Data[2*i], grid.Data[2*i+1] = float64(i/16), float64(i%16)
	}
	tiny, err := metric.FromPoints([][]float64{{0, 0}, {3, 1}, {1, 4}, {-2, 2}, {5, 5}})
	if err != nil {
		panic(err)
	}
	return []referenceWorkload{
		{"UNIF-2D", dataset.Unif(dataset.UnifConfig{N: 4000, Seed: 41}).Points, 25},
		{"GAU-2D", dataset.Gau(dataset.GauConfig{N: 4000, KPrime: 25, Seed: 42}).Points, 25},
		{"GAU-3D", dataset.Gau(dataset.GauConfig{N: 3000, KPrime: 10, Dim: 3, Seed: 43}).Points, 10},
		{"UNIF-4D", dataset.Unif(dataset.UnifConfig{N: 3000, Dim: 4, Seed: 44}).Points, 8},
		{"UNIF-8D", dataset.Unif(dataset.UnifConfig{N: 2000, Dim: 8, Seed: 45}).Points, 8},
		{"UNIF-5D", dataset.Unif(dataset.UnifConfig{N: 2000, Dim: 5, Seed: 46}).Points, 8},
		{"GRID-16x16", grid, 9},
		{"TINY-k>n", tiny, 6},
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

// tieGrid is the side×side integer grid in row-major order. Many of its
// points lie exactly equidistant from the chosen centers, so every argmax
// of the traversal must keep the lowest index.
func tieGrid(side int) *metric.Dataset {
	ds := metric.NewDataset(side*side, 2)
	for i := 0; i < ds.N; i++ {
		ds.Data[2*i], ds.Data[2*i+1] = float64(i/side), float64(i%side)
	}
	return ds
}

// TestGonzalezParallelTieBreaking pins the tie-breaks of Gonzalez and
// GonzalezAssign against the reference loop on integer grids. The name dates
// from the partitioned traversal, whose max-reduction the 16×16 grid first
// checked. The 96×96 grid is large enough for the blocked layout, whose
// per-block maxima must resolve ties the same way.
func TestGonzalezParallelTieBreaking(t *testing.T) {
	for _, c := range []struct{ side, k int }{{16, 9}, {96, 20}} {
		ds := tieGrid(c.side)
		if blocked := preferBlocks(ds.N, c.k, 2); blocked != (c.side == 96) {
			t.Fatalf("side=%d k=%d: preferBlocks = %v", c.side, c.k, blocked)
		}
		for _, first := range []int{0, ds.N / 2, ds.N - 1} {
			want := gonzalezReference(ds, c.k, first)
			label := fmt.Sprintf("side=%d k=%d first=%d", c.side, c.k, first)
			requireSameAsReference(t, label+" Gonzalez", Gonzalez(ds, c.k, Options{First: first}), want)
			requireSameAsReference(t, label+" GonzalezAssign", GonzalezAssign(ds, c.k, Options{First: first}), want)
		}
	}
}

// TestGonzalezPooledTieBreaking runs the 16×16 tie grid from every first
// center: each traversal must reproduce the reference loop's tie-breaks
// (lowest index wins). The name dates from the worker-pool traversal, which
// this grid checked at several pool sizes.
func TestGonzalezPooledTieBreaking(t *testing.T) {
	ds := tieGrid(16)
	for first := 0; first < ds.N; first++ {
		requireSameAsReference(t, fmt.Sprintf("first=%d", first),
			Gonzalez(ds, 9, Options{First: first}), gonzalezReference(ds, 9, first))
	}
}

// TestGonzalezParallelDegenerate runs the traversal on inputs whose points
// are all equal, below and at the size where the blocked layout engages:
// the radius is 0, one center is returned whatever k is, and the result
// matches the reference loop. The name dates from the partitioned traversal,
// which this case first checked.
func TestGonzalezParallelDegenerate(t *testing.T) {
	three, err := metric.FromPoints([][]float64{{1}, {1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	same := metric.NewDataset(minBlockedN+808, 2)
	for i := range same.Data {
		same.Data[i] = 0.25
	}
	for _, c := range []struct {
		ds *metric.Dataset
		k  int
	}{{three, 2}, {three, 3}, {three, 50}, {same, 20}, {same, same.N + 1}} {
		label := fmt.Sprintf("n=%d k=%d", c.ds.N, c.k)
		want := gonzalezReference(c.ds, c.k, 0)
		for _, got := range []*Result{
			Gonzalez(c.ds, c.k, Options{}),
			GonzalezAssign(c.ds, c.k, Options{}),
		} {
			if got.Radius != 0 || len(got.Centers) != 1 {
				t.Fatalf("%s: radius %v, centers %v", label, got.Radius, got.Centers)
			}
			requireSameAsReference(t, label, got, want)
		}
	}
}

// TestGonzalezPooledBitIdenticalToReference pins a five-point input against
// the reference loop for every k from 1 to 6, one past n, and every first
// center. The name dates from the worker-pool traversal, where this input
// checked that a pool larger than the dataset left its surplus workers out.
func TestGonzalezPooledBitIdenticalToReference(t *testing.T) {
	small, err := metric.FromPoints([][]float64{{0, 0}, {3, 1}, {1, 4}, {-2, 2}, {5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 6; k++ {
		for first := 0; first < small.N; first++ {
			want := gonzalezReference(small, k, first)
			label := fmt.Sprintf("n=5 k=%d first=%d", k, first)
			requireSameAsReference(t, label+" Gonzalez", Gonzalez(small, k, Options{First: first}), want)
			requireSameAsReference(t, label+" GonzalezAssign", GonzalezAssign(small, k, Options{First: first}), want)
		}
	}
}
