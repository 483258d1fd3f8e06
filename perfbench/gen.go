package main

import (
	"math"
	"math/rand"
	"strconv"
)

// Input model: the paper's GAU family (k′ = 25 Gaussian clusters with
// σ = 0.1 around means uniform in [0, 100]², 2-D). Every input the program
// receives is drawn here from the run's --seed, so the same seed gives
// byte-identical CSV text and request bodies. math/rand's seeded sources
// are stable across Go releases, and the generator shares no code with the
// program under test, so a change to the program cannot move its inputs.
//
// The cluster layout (means and drift directions) is drawn once from
// layoutSeed, and --seed draws the points around it: runs with different
// seeds then differ by sampling, not by geometry, which keeps the quality
// ratios of one workload comparable from run to run.
const (
	layoutSeed  = 1
	gauClusters = 25
	gauSide     = 100.0
	gauSigma    = 0.1
	dim         = 2
	// quantum is the coordinate grid: points are rounded to 4 decimals so
	// the wire text is short and decodes to exactly the float64 the
	// benchmark keeps (m/1e4 is the correctly rounded value of the decimal
	// text, which is what strconv.ParseFloat returns too).
	quantum = 1e4
)

// Stream salts: independent sub-streams of one seed.
const (
	saltModel uint64 = iota + 1
	saltPoints
	saltQueries
	saltEIM
)

// subSeed derives a sub-stream seed from the run seed (splitmix64 finalizer).
func subSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// model is a GAU mixture whose means move at a constant velocity per
// million points of the stream (drift 0 keeps it static).
type model struct {
	means [gauClusters][dim]float64
	vel   [gauClusters][dim]float64
}

// newModel draws the cluster means and, when drift > 0, a random direction
// per cluster scaled to drift plane units per million points.
func newModel(drift float64) *model {
	r := rand.New(rand.NewSource(subSeed(layoutSeed, saltModel)))
	m := &model{}
	for c := range m.means {
		for j := range m.means[c] {
			m.means[c][j] = r.Float64() * gauSide
		}
		theta := r.Float64() * 2 * math.Pi
		m.vel[c] = [dim]float64{drift * math.Cos(theta), drift * math.Sin(theta)}
	}
	return m
}

// fixedPrefix is how many points at the head of every point stream are
// drawn from layoutSeed rather than --seed. It fixes two inputs whose
// sampling noise would otherwise swamp a run-to-run comparison: the EIM
// subset (the first 100,000 points; EIM's iteration count, and so its work,
// jumps by a quarter between samples), and the first points each server
// shard sees, which set the doubling algorithm's initial radius and so the
// factor-of-2 ladder its served radius climbs. With eimConfig's fixed
// sampling seed, --seed therefore does not reach EIM at all: eim_ms,
// eim_radius_ratio and the eim.* layer metrics measure one fixed input.
const fixedPrefix = 100_000

// pointStream yields the model's points in order; point i of a stream is a
// pure function of (seed, salt, i), so a stream can be regenerated after a
// run to check what the server holds.
type pointStream struct {
	m      *model
	prefix *rand.Rand // drawn from while i < fixedPrefix; nil: no prefix
	r      *rand.Rand
	i      int64
}

// stream returns the sub-stream salt of seed.
func (m *model) stream(seed int64, salt uint64) *pointStream {
	return &pointStream{m: m, r: rand.New(rand.NewSource(subSeed(seed, salt)))}
}

// points returns the stream of points a workload ingests or clusters: the
// fixed prefix, then points drawn from seed.
func (m *model) points(seed int64) *pointStream {
	s := m.stream(seed, saltPoints)
	s.prefix = rand.New(rand.NewSource(subSeed(layoutSeed, saltPoints)))
	return s
}

func quantize(x float64) float64 { return math.Round(x*quantum) / quantum }

// next appends the stream's next point to dst.
func (s *pointStream) next(dst []float64) []float64 {
	r := s.r
	if s.prefix != nil && s.i < fixedPrefix {
		r = s.prefix
	}
	c := r.Intn(gauClusters)
	t := float64(s.i) / 1e6
	s.i++
	for j := 0; j < dim; j++ {
		x := s.m.means[c][j] + s.m.vel[c][j]*t + r.NormFloat64()*gauSigma
		dst = append(dst, quantize(x))
	}
	return dst
}

// take appends the stream's next n points (flat, dim-strided) to dst.
func (s *pointStream) take(dst []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		dst = s.next(dst)
	}
	return dst
}

// appendCoord writes a quantized coordinate as fixed-point decimal text.
func appendCoord(b []byte, x float64) []byte {
	m := int64(math.Round(x * quantum))
	if m < 0 {
		b = append(b, '-')
		m = -m
	}
	b = strconv.AppendInt(b, m/quantum, 10)
	frac := m % quantum
	b = append(b, '.', byte('0'+frac/1000), byte('0'+frac/100%10), byte('0'+frac/10%10), byte('0'+frac%10))
	return b
}

// pointsBody encodes flat points as a /v1/ingest or /v1/assign body.
func pointsBody(pts []float64) []byte {
	return appendPointsBody(make([]byte, 0, 16+len(pts)/dim*20), pts)
}

// appendPointsBody appends the body encoding of pts to b.
func appendPointsBody(b []byte, pts []float64) []byte {
	b = append(b, `{"points":[`...)
	for i := 0; i < len(pts); i += dim {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j := 0; j < dim; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendCoord(b, pts[i+j])
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// csvText encodes flat points as CSV rows, the batch workload's input file.
func csvText(pts []float64) []byte {
	b := make([]byte, 0, len(pts)/dim*20)
	for i := 0; i < len(pts); i += dim {
		for j := 0; j < dim; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendCoord(b, pts[i+j])
		}
		b = append(b, '\n')
	}
	return b
}

// bodiesOf cuts flat points into request bodies of batch points each.
func bodiesOf(pts []float64, batch int) [][]byte {
	stride := batch * dim
	out := make([][]byte, 0, (len(pts)+stride-1)/stride)
	for lo := 0; lo < len(pts); lo += stride {
		out = append(out, pointsBody(pts[lo:min(lo+stride, len(pts))]))
	}
	return out
}
