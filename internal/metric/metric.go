// Package metric provides the point representation and distance functions
// used by every k-center algorithm in this repository.
//
// The paper evaluates on points in low- to medium-dimensional Euclidean
// space, with distances "computed as required from the locations of the
// points" (§7.2) rather than from a materialized n×n matrix. We follow that
// design: a Dataset stores coordinates contiguously and algorithms evaluate
// distances on demand.
//
// Internally the k-center algorithms compare squared Euclidean distances
// (monotone in the true distance, so argmax/argmin decisions are identical)
// and take a square root only when a radius is reported. The Interface
// abstraction allows swapping in other metrics — the k-center guarantees hold
// for any metric satisfying the triangle inequality.
//
// # Distance-kernel engine
//
// On top of the point representation the package provides the two layers
// every hot path in the repository is built from:
//
//   - One-to-many kernels (kernels.go): SqDistsInto, NearestInRange and
//     RelaxFarthest scan a contiguous point range of the flat Data array
//     against one query, with dimension-specialized inner loops for dims
//     2/3/4/8 and a generic unrolled fallback. A one-to-many scan
//     amortizes what the per-point SqDist(ds.At(i), q) formulation pays n
//     times — slice-header construction, a non-inlined call, loop setup —
//     and at dim 2 (the paper's UNIF/GAU experiments) that overhead is
//     2–3× the four flops of actual arithmetic, which is exactly the
//     speedup the kernels recover (see BenchmarkKernelRelaxFarthest).
//
//   - Triangle-inequality pruning (pruned.go): Pruned precomputes the k×k
//     center-center distance matrix so nearest-center queries can skip any
//     candidate c' with d(c_best, c') >= 2·d(p, c_best), making the number
//     of distance evaluations per query sub-linear in k in the common
//     case. Assignment (assign.Evaluate), streaming coverage tests
//     (stream.Summary.Push, with the matrix maintained incrementally as
//     centers change) and stream.Cover all query through it.
//
// Beside them, Grid (grid.go) is the spatial bucketing of two coordinates
// that the blocked farthest-first traversal (internal/core) and the
// grid-filtered assignment (internal/assign) share; both take each
// bucket's exact bounding box from its points, so the grid only decides
// how much they prune, never what they return.
//
// Both layers preserve results bit for bit: kernels accumulate in SqDist's
// exact floating-point order and scan in ascending index order, and
// pruning only ever skips candidates that provably cannot win under the
// same strict-< tie-breaking. The property tests in kernels_test.go and
// the identity tests in core/assign pin this.
package metric

import (
	"fmt"
	"math"
)

// Interface is a metric (or at least a dissimilarity whose comparisons the
// caller trusts). Distance must be symmetric, non-negative and zero on
// identical inputs; the approximation guarantees additionally require the
// triangle inequality.
type Interface interface {
	// Distance returns the dissimilarity between coordinate vectors a and b,
	// which must have equal length.
	Distance(a, b []float64) float64
	// Name identifies the metric in experiment output.
	Name() string
}

// Euclidean is the L2 metric used throughout the paper's experiments.
type Euclidean struct{}

// Distance returns the L2 distance between a and b.
func (Euclidean) Distance(a, b []float64) float64 {
	return math.Sqrt(SqDist(a, b))
}

// Name implements Interface.
func (Euclidean) Name() string { return "euclidean" }

// Manhattan is the L1 metric.
type Manhattan struct{}

// Distance returns the L1 distance between a and b.
func (Manhattan) Distance(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Name implements Interface.
func (Manhattan) Name() string { return "manhattan" }

// Chebyshev is the L∞ metric.
type Chebyshev struct{}

// Distance returns the L∞ distance between a and b.
func (Chebyshev) Distance(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Name implements Interface.
func (Chebyshev) Name() string { return "chebyshev" }

// Minkowski is the Lp metric for p >= 1.
type Minkowski struct{ P float64 }

// Distance returns the Lp distance between a and b.
func (m Minkowski) Distance(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Pow(math.Abs(a[i]-b[i]), m.P)
	}
	return math.Pow(s, 1/m.P)
}

// Name implements Interface.
func (m Minkowski) Name() string { return fmt.Sprintf("minkowski(p=%g)", m.P) }

// SqDist returns the squared Euclidean distance between a and b. The loop is
// written with 4-way unrolling over the common prefix: on the hot path this
// is the single most executed function in the repository (Gonzalez evaluates
// it k·n times), and the unrolled form lets the compiler keep four
// independent accumulator chains in flight.
func SqDist(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// SqDistNaive is the straightforward scalar loop; kept for the layout/unroll
// ablation benchmark and as a correctness oracle for SqDist.
func SqDistNaive(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dataset holds n points of dimension dim in one contiguous backing array,
// row-major. A contiguous layout keeps the farthest-first traversal's inner
// loop streaming linearly through memory; the ablation benchmark
// BenchmarkAblationLayout quantifies the win over [][]float64.
type Dataset struct {
	Data []float64 // len == N*Dim
	N    int
	Dim  int
}

// NewDataset allocates an all-zero dataset of n points with dimension dim.
func NewDataset(n, dim int) *Dataset {
	if n < 0 || dim <= 0 {
		panic(fmt.Sprintf("metric: invalid dataset shape n=%d dim=%d", n, dim))
	}
	return &Dataset{Data: make([]float64, n*dim), N: n, Dim: dim}
}

// FromPoints builds a Dataset by copying a slice of equal-length points.
// Every coordinate must be finite: a NaN or ±Inf would make every distance
// to its point meaningless and leave coordinates without a total order.
func FromPoints(points [][]float64) (*Dataset, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("metric: FromPoints requires at least one point")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("metric: FromPoints requires non-empty points")
	}
	ds := NewDataset(len(points), dim)
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("metric: point %d has dimension %d, want %d", i, len(p), dim)
		}
		for j, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("metric: point %d coordinate %d is %v, want a finite value", i, j, v)
			}
		}
		copy(ds.Data[i*dim:(i+1)*dim], p)
	}
	return ds, nil
}

// At returns the coordinates of point i as a slice aliasing the backing
// array. Callers must not resize it; mutating it mutates the dataset.
func (d *Dataset) At(i int) []float64 {
	return d.Data[i*d.Dim : (i+1)*d.Dim : (i+1)*d.Dim]
}

// Len returns the number of points.
func (d *Dataset) Len() int { return d.N }

// SqDist returns the squared Euclidean distance between points i and j.
func (d *Dataset) SqDist(i, j int) float64 {
	return SqDist(d.At(i), d.At(j))
}

// Dist returns the Euclidean distance between points i and j.
func (d *Dataset) Dist(i, j int) float64 {
	return math.Sqrt(d.SqDist(i, j))
}

// Subset copies the points named by idx into a fresh Dataset, preserving
// order. It is the mapper-side primitive for shipping a partition (or a
// center set) to a simulated reducer.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := NewDataset(len(idx), d.Dim)
	for row, i := range idx {
		copy(out.Data[row*d.Dim:(row+1)*d.Dim], d.At(i))
	}
	return out
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	out := NewDataset(d.N, d.Dim)
	copy(out.Data, d.Data)
	return out
}

// Append adds a point (copied) to the dataset, growing the backing array.
func (d *Dataset) Append(p []float64) {
	if len(p) != d.Dim {
		panic(fmt.Sprintf("metric: Append dimension %d, want %d", len(p), d.Dim))
	}
	d.Data = append(d.Data, p...)
	d.N++
}

// Bounds returns per-dimension minima and maxima. For an empty dataset both
// slices are zero-filled.
func (d *Dataset) Bounds() (lo, hi []float64) {
	lo = make([]float64, d.Dim)
	hi = make([]float64, d.Dim)
	if d.N == 0 {
		return lo, hi
	}
	copy(lo, d.At(0))
	copy(hi, d.At(0))
	for i := 1; i < d.N; i++ {
		p := d.At(i)
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	return lo, hi
}
