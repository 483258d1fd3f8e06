package main

import (
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The host's speed is measured with a fixed calibration kernel that shares
// no code with the program under test, and every end-to-end time is
// reported at the speed of the reference host: measured / slowdown, where
// slowdown is the median kernel time over the samples taken around the
// measurement (the same part of the run), divided by calibRefMs. A change to
// the program moves its times and leaves the kernel alone, so it still
// shows; a change of the whole VM's speed moves both and cancels. On the
// 2-vCPU VM the bounds were fitted on, the kernel's median moved by a fifth
// between runs a minute apart, and two sets of runs made an hour apart gave
// raw GON medians of 424 and 284 ms on the same code.
//
// The kernel resembles the program's work: a streaming float pass over a
// working set the size of the batch dataset's (the Gonzalez relaxation's
// access pattern) and a decimal format-and-parse loop (the request codecs'),
// split over one worker per vCPU of that host.
const (
	calibWorkers = 2
	calibPoints  = 1 << 20 // 2-D points: 16 MiB, plus 8 MiB of minima
	calibPasses  = 6       // relaxation passes per worker per round
	calibTexts   = 40_000  // values formatted and parsed per worker per round
	calibReps    = 3       // rounds timed, one sample each, per sample() call
	// calibRefMs is the kernel's median round on the reference host
	// (2-vCPU Intel Xeon VM, quiet neighbours).
	calibRefMs = 50.0
)

// calibrator holds the kernel's buffers and the run's samples.
type calibrator struct {
	pts, minSq []float64
	bufs       [calibWorkers][]byte
	samples    []float64 // ms per sample
	sink       float64
}

func newCalibrator() *calibrator {
	c := &calibrator{pts: make([]float64, 2*calibPoints), minSq: make([]float64, calibPoints)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.pts {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.pts[i] = float64(x>>11) / (1 << 53) * 100
	}
	return c
}

// sample times calibReps rounds of the kernel, one sample each. It starts
// from a collected heap, so no GC cycle of the measured work's garbage
// competes with the workers.
func (c *calibrator) sample() {
	runtime.GC()
	for r := 0; r < calibReps; r++ {
		start := time.Now()
		var wg sync.WaitGroup
		sums := make([]float64, calibWorkers)
		for w := 0; w < calibWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sums[w] = c.work(w)
			}(w)
		}
		wg.Wait()
		c.samples = append(c.samples, ms(time.Since(start)))
		for _, s := range sums {
			c.sink += s
		}
	}
}

// work is one worker's share of a round: relaxation passes over its slice
// of the points, then a decimal round trip of calibTexts values.
func (c *calibrator) work(w int) float64 {
	lo, hi := w*calibPoints/calibWorkers, (w+1)*calibPoints/calibWorkers
	pts, minSq := c.pts[2*lo:2*hi], c.minSq[lo:hi]
	for i := range minSq {
		minSq[i] = 1e300
	}
	var far float64
	for p := 0; p < calibPasses; p++ {
		cx, cy := pts[2*p], pts[2*p+1]
		far = 0
		for i := range minSq {
			dx, dy := pts[2*i]-cx, pts[2*i+1]-cy
			d := dx*dx + dy*dy
			if d < minSq[i] {
				minSq[i] = d
			}
			if minSq[i] > far {
				far = minSq[i]
			}
		}
	}
	var sum float64
	for i := 0; i < calibTexts; i++ {
		b := strconv.AppendFloat(c.bufs[w][:0], pts[i%len(pts)], 'f', 4, 64)
		c.bufs[w] = b
		v, _ := strconv.ParseFloat(string(b), 64)
		sum += v
	}
	return far + sum
}

// mark returns the position of the next sample, to delimit the samples
// taken around one measurement.
func (c *calibrator) mark() int { return len(c.samples) }

// slowdown is the median of the samples between two marks over the
// reference: above 1 when the host ran slower than the reference host.
func (c *calibrator) slowdown(from, to int) float64 { return median(c.samples[from:to]) / calibRefMs }
