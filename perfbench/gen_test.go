package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"kcenter/internal/stream"
)

// inputs renders what a run of one seed sends to the program, from the
// start of each stream to a little past the fixed prefix.
func inputs(seed int64) (warm, queries [][]byte, csv []byte) {
	mod := newModel(mixedWorkload.drift)
	warm = bodiesOf(mod.points(seed).take(nil, fixedPrefix+10_000), warmBatch)
	_, queries = queryPool(mod, seed)
	csv = csvText(newModel(0).points(seed).take(nil, fixedPrefix+5_000))
	return warm, queries, csv
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	w1, q1, c1 := inputs(7)
	w2, q2, c2 := inputs(7)
	w3, q3, c3 := inputs(8)
	same := func(a, b [][]byte) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	if !same(w1, w2) || !same(q1, q2) || !bytes.Equal(c1, c2) {
		t.Fatal("the same seed produced different request bodies")
	}
	if same(w1, w3) || same(q1, q3) || bytes.Equal(c1, c3) {
		t.Fatal("different seeds produced identical request bodies")
	}
	// The fixed prefix is the same for every seed; what follows is not.
	head := fixedPrefix / warmBatch
	if !same(w1[:head], w3[:head]) || same(w1[head+1:], w3[head+1:]) {
		t.Fatal("the fixed prefix should be seed-independent and the rest seed-dependent")
	}
}

// The wire text must decode to exactly the floats the benchmark keeps, or
// the post-run checks would compare against points the server never saw.
func TestBodiesDecodeToTheKeptPoints(t *testing.T) {
	pts := newModel(mixedWorkload.drift).points(3).take(nil, 5_000)
	for i, x := range pts {
		if x != quantize(x) {
			t.Fatalf("generated coordinate %d = %v is off the grid", i, x)
		}
	}
	pts = append(pts, -0.00005, 1e-4, -12.3456, 99.99995)
	var req struct{ Points [][]float64 }
	if err := json.Unmarshal(pointsBody(pts), &req); err != nil {
		t.Fatal(err)
	}
	for i, p := range req.Points {
		for j, x := range p {
			if want := quantize(pts[i*dim+j]); x != want {
				t.Fatalf("point %d coord %d: decoded %v, want %v", i, j, x, want)
			}
		}
	}
}

// centerChanges replays n points after warm into a sharded ingester of
// the server's shape and counts center-set version steps after the warm
// prefix.
func centerChanges(t *testing.T, drift float64, warm, n int) uint64 {
	t.Helper()
	pts := newModel(drift).points(5).take(nil, warm+n)
	sh, err := stream.NewSharded(stream.ShardedConfig{K: serveK, Shards: serveShards})
	if err != nil {
		t.Fatal(err)
	}
	push := func(lo, hi int) {
		rows := make([][]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, pts[i*dim:(i+1)*dim])
		}
		if err := sh.PushBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < warm; lo += warmBatch {
		push(lo, min(lo+warmBatch, warm))
	}
	waitShards(sh, int64(warm))
	v0 := sh.CentersVersion()
	for lo := warm; lo < warm+n; lo += ingestBatch {
		push(lo, min(lo+ingestBatch, warm+n))
	}
	waitShards(sh, int64(warm+n))
	v := sh.CentersVersion()
	if _, err := sh.Finish(); err != nil {
		t.Fatal(err)
	}
	return v - v0
}

func TestDriftKeepsCentersChanging(t *testing.T) {
	static := centerChanges(t, 0, 200_000, 400_000)
	drifting := centerChanges(t, mixedWorkload.drift, 200_000, 400_000)
	if drifting == 0 || drifting <= static {
		t.Fatalf("center changes after warm-up: drifting %d, static %d; drift should keep the centers moving", drifting, static)
	}
	t.Logf("center changes after warm-up: drifting %d, static %d", drifting, static)
}
