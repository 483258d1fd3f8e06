package stream

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"kcenter/internal/dataset"
	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// scanCovered is the Euclidean coverage test as a plain matrix-pruned scan
// from center 0 at every size and dimension, the way Summary answered it
// before the sorted sweep: with best-so-far center c_b at squared distance
// d_b², a candidate c with cc(c_b, c) ≥ 2·(d_b² + lim²) is skipped.
func scanCovered(s *Summary, p []float64, lim float64) bool {
	n, stride := s.centers.N, s.k+1
	if n == 0 {
		return false
	}
	limSq := lim * lim
	bestSq := metric.SqDist(s.centers.At(0), p)
	if bestSq <= limSq {
		return true
	}
	best := 0
	skip := 2 * (bestSq + limSq)
	for c := 1; c < n; c++ {
		if s.cc[best*stride+c] >= skip {
			continue
		}
		sq := metric.SqDist(s.centers.At(c), p)
		if sq <= limSq {
			return true
		}
		if sq < bestSq {
			bestSq, best = sq, c
			skip = 2 * (bestSq + limSq)
		}
	}
	return false
}

// scanPush is Summary.Push with scanCovered as its coverage test; the
// append, the first overflow's radius and the doubling are Summary's own.
func scanPush(s *Summary, p []float64) {
	if s.centers == nil {
		s.centers = metric.NewDataset(0, len(p))
		s.cc = make([]float64, (s.k+1)*(s.k+1))
	}
	s.n++
	if scanCovered(s, p, 4*s.r) {
		return
	}
	s.appendCenter(p)
	if s.centers.N <= s.k {
		return
	}
	if s.r == 0 {
		dmin := math.Inf(1)
		for i := 0; i < s.centers.N; i++ {
			for j := i + 1; j < s.centers.N; j++ {
				dmin = math.Min(dmin, s.ccDist(i, j))
			}
		}
		s.r = dmin / 2
	}
	s.mergeDown()
}

// equivStream is a named point stream for the equivalence tests.
type equivStream struct {
	name string
	pts  *metric.Dataset
	k    int
}

// equivStreams returns GAU and UNIF at dims 1 and 2 for k ∈ {8, 16, 50,
// 100}, a GAU cloud drifting across the plane, and a stream in which every
// point escapes: each lies 16 times further out than the last.
func equivStreams() []equivStream {
	var out []equivStream
	const n = 6000
	for _, dim := range []int{1, 2} {
		gau := dataset.Gau(dataset.GauConfig{N: n, KPrime: 25, Dim: dim, Seed: 61}).Points
		unif := dataset.Unif(dataset.UnifConfig{N: n, Dim: dim, Seed: 62}).Points
		for _, k := range []int{8, 16, 50, 100} {
			out = append(out,
				equivStream{fmt.Sprintf("gau/dim=%d/k=%d", dim, k), gau, k},
				equivStream{fmt.Sprintf("unif/dim=%d/k=%d", dim, k), unif, k})
		}
	}
	drift := metric.NewDataset(n, 2)
	r := rng.New(63)
	for i := 0; i < n; i++ {
		p, c := drift.At(i), float64(r.Intn(20))*5
		p[0] = float64(i)/20 + c + r.NormFloat64()
		p[1] = float64(i)/60 - c + r.NormFloat64()
	}
	out = append(out, equivStream{"drift/k=16", drift, 16}, equivStream{"drift/k=50", drift, 50})
	escape := metric.NewDataset(120, 2)
	for i := 0; i < escape.N; i++ {
		x := math.Pow(16, float64(i)/2)
		escape.At(i)[0], escape.At(i)[1] = x, -x/3
	}
	return append(out, equivStream{"escape/k=8", escape, 8}, equivStream{"escape/k=16", escape, 16})
}

// TestSummaryMatchesMatrixScan: pushing a stream through Summary, whose
// coverage test walks a sorted sweep from 8 centers at dim ≤ 2, and through
// scanPush leaves identical exported states after every batch — the same
// centers bit for bit, radius, doubling level, count and version — so the
// sweep changes no discard, append or doubling.
func TestSummaryMatchesMatrixScan(t *testing.T) {
	const batch = 250
	for _, st := range equivStreams() {
		got, want := NewSummary(st.k, Options{}), NewSummary(st.k, Options{})
		swept := false
		for lo := 0; lo < st.pts.N; lo += batch {
			for i := lo; i < min(lo+batch, st.pts.N); i++ {
				v := want.Version()
				got.Push(st.pts.At(i))
				scanPush(want, st.pts.At(i))
				if strings.HasPrefix(st.name, "escape") && want.Version() == v {
					t.Fatalf("%s: point %d was covered; the stream should escape every time", st.name, i)
				}
				swept = swept || got.sweep != nil
			}
			if g, w := got.ExportState(), want.ExportState(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s after %d points: summary state %+v, matrix scan %+v", st.name, min(lo+batch, st.pts.N), g, w)
			}
		}
		if !swept {
			t.Fatalf("%s: the coverage test never used the sweep", st.name)
		}
	}
}

// TestSummaryRestoreThenPushMatchesMatrixScan: restoring an earlier state
// into a summary whose sweep describes later centers, and pushing the rest
// of the stream again, matches the matrix scan fed the stream once. Then
// both restore the final state with every center moved by the same
// offset: the version is the one the summary's sweep was built at, but
// the centers are not, so a sweep cached against the version would answer
// for the wrong centers.
func TestSummaryRestoreThenPushMatchesMatrixScan(t *testing.T) {
	for _, st := range equivStreams() {
		half := st.pts.N / 2
		got, want := NewSummary(st.k, Options{}), NewSummary(st.k, Options{})
		for i := 0; i < half; i++ {
			got.Push(st.pts.At(i))
			scanPush(want, st.pts.At(i))
		}
		saved := got.ExportState()
		for i := half; i < st.pts.N; i++ {
			got.Push(st.pts.At(i))
		}
		if err := got.restoreState(saved, 0); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for i := half; i < st.pts.N; i++ {
			got.Push(st.pts.At(i))
			scanPush(want, st.pts.At(i))
			if i%500 == 0 || i == st.pts.N-1 {
				if g, w := got.ExportState(), want.ExportState(); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s, restored, after %d points: summary state %+v, matrix scan %+v", st.name, i+1, g, w)
				}
			}
		}

		got.coveredWithin(st.pts.At(0), 0) // the sweep is fresh
		moved := got.ExportState()
		for _, c := range moved.Centers {
			c[0] += 1000
		}
		for _, s := range []*Summary{got, want} {
			if err := s.restoreState(moved, 0); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		for i := 0; i < st.pts.N; i++ {
			got.Push(st.pts.At(i))
			scanPush(want, st.pts.At(i))
		}
		if g, w := got.ExportState(), want.ExportState(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s, moved: summary state %+v, matrix scan %+v", st.name, g, w)
		}
	}
}
