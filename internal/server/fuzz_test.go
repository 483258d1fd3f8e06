package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kcenter/internal/checkpoint"
	"kcenter/internal/stream"
)

// fuzzSvc lazily builds one service per fuzzing process: an ingest target
// (whose state the fuzzer is free to mutate) and a frozen assign target
// (pre-ingested, never ingested again, so every assign against it is
// deterministic and can be replayed for aliasing checks).
var (
	fuzzOnce      sync.Once
	fuzzIngestSvc *Service
	fuzzAssignSvc *Service
)

func fuzzServices(f *testing.F) (*Service, *Service) {
	f.Helper()
	fuzzOnce.Do(func() {
		var err error
		fuzzIngestSvc, err = New(Config{K: 8, Shards: 2, MaxBatch: 256})
		if err != nil {
			panic(err)
		}
		fuzzAssignSvc, err = New(Config{K: 8, Shards: 2, MaxBatch: 256})
		if err != nil {
			panic(err)
		}
		pts := genPoints(400, 31)
		for lo := 0; lo < len(pts); lo += 200 {
			body, _ := json.Marshal(ingestRequest{Points: pts[lo : lo+200]})
			rec := fuzzPost(fuzzAssignSvc, "/v1/ingest", body)
			if rec.Code != http.StatusAccepted {
				panic("fuzz setup ingest failed: " + rec.Body.String())
			}
		}
		deadline := time.Now().Add(30 * time.Second)
		for fuzzAssignSvc.ingestedPoints.Load() < 400 {
			if time.Now().After(deadline) {
				panic("fuzz setup: ingest never drained")
			}
			time.Sleep(time.Millisecond)
		}
	})
	return fuzzIngestSvc, fuzzAssignSvc
}

// fuzzPost drives one handler invocation directly (no TCP) and returns the
// recorded response.
func fuzzPost(svc *Service, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	return rec
}

// knownStatus is the closed set of statuses the decode paths may answer
// with; anything else means a handler wandered off the documented wire
// contract (a 500 additionally means the recovery middleware caught a
// panic, checked separately via the panic counter).
func knownStatus(code int) bool {
	switch code {
	case http.StatusOK, http.StatusAccepted,
		http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
		http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
		http.StatusServiceUnavailable:
		return true
	}
	return false
}

// addDecodeShapes seeds a decode target's corpus with every fallback shape
// of the points codec and the edge cases of its fast path.
func addDecodeShapes(f *testing.F) {
	for _, s := range append(fallbackShapes, fastShapes...) {
		f.Add([]byte(s))
	}
}

// FuzzDecodeIngest feeds arbitrary bytes to the ingest decode path: the
// handler must answer a documented status with a valid JSON body and never
// panic, whatever the bytes are, and the points codec must agree with
// encoding/json on every input (checkDecodeOracle).
func FuzzDecodeIngest(f *testing.F) {
	f.Add([]byte(`{"points":[[1,2],[3,4]]}`))
	f.Add([]byte(`{"points":[]}`))
	f.Add([]byte(`{"points":[[1e308,1e308]]}`))
	f.Add([]byte(`{"points":[[1,2],[3]]}`))
	f.Add([]byte(`{"points":[[null]],"tenant":"x"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	addDecodeShapes(f)
	ingestSvc, _ := fuzzServices(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeOracle(t, body)
		before := ingestSvc.handlerPanics.Load()
		rec := fuzzPost(ingestSvc, "/v1/ingest", body)
		if ingestSvc.handlerPanics.Load() != before {
			t.Fatalf("ingest decode panicked on %q", body)
		}
		if !knownStatus(rec.Code) {
			t.Fatalf("ingest answered undocumented status %d for %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("ingest answered invalid JSON %q", rec.Body.Bytes())
		}
	})
}

// FuzzDecodeAssign feeds arbitrary bytes to the assign decode path against
// a frozen snapshot. Beyond no-panic and valid-JSON it sends every input
// TWICE and requires byte-identical responses: the pooled decode buffers
// are recycled between the two calls, so any aliasing of pooled memory into
// the response surfaces as a diff. The points codec must agree with
// encoding/json on every input (checkDecodeOracle).
func FuzzDecodeAssign(f *testing.F) {
	f.Add([]byte(`{"points":[[1,2],[3,4]]}`))
	f.Add([]byte(`{"points":[[0,0]]}`))
	f.Add([]byte(`{"points":[[1,2,3]]}`))
	f.Add([]byte(`{"points":[["a"]]}`))
	f.Add([]byte(`{"points":[[NaN,1]]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte{'{', 0x00})
	addDecodeShapes(f)
	_, assignSvc := fuzzServices(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeOracle(t, body)
		before := assignSvc.handlerPanics.Load()
		first := fuzzPost(assignSvc, "/v1/assign", body)
		second := fuzzPost(assignSvc, "/v1/assign", body)
		if assignSvc.handlerPanics.Load() != before {
			t.Fatalf("assign decode panicked on %q", body)
		}
		if !knownStatus(first.Code) {
			t.Fatalf("assign answered undocumented status %d for %q", first.Code, body)
		}
		if !json.Valid(first.Body.Bytes()) {
			t.Fatalf("assign answered invalid JSON %q", first.Body.Bytes())
		}
		if first.Code != second.Code || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("assign is not deterministic on a frozen snapshot (pooled buffer aliasing?)\nfirst:  %d %q\nsecond: %d %q",
				first.Code, first.Body.Bytes(), second.Code, second.Body.Bytes())
		}
	})
}

// Replicate fuzzing gets its own service (separate from the shared ingest /
// assign pair: a successful fold mutates the merged view, which must not
// perturb the frozen-snapshot determinism check above).
var (
	fuzzReplOnce  sync.Once
	fuzzReplSvc   *Service
	fuzzReplFrame []byte // one valid encoded peer state, for seeding
)

func fuzzReplicate(f *testing.F) (*Service, []byte) {
	f.Helper()
	fuzzReplOnce.Do(func() {
		var err error
		fuzzReplSvc, err = New(Config{K: 2, Shards: 1, MaxBatch: 256})
		if err != nil {
			panic(err)
		}
		// The smallest state that still folds two centers and a merge:
		// when an input turns up new coverage, the engine minimizes it
		// with a pass quadratic in its length, and a frame of ~250 bytes
		// rather than ~800 makes that pass about ten times shorter.
		donor, err := stream.NewSharded(stream.ShardedConfig{K: 2, Shards: 1, Origin: "peer"})
		if err != nil {
			panic(err)
		}
		for _, p := range [][]float64{{0, 0}, {9, 9}, {1, 0}} {
			if err := donor.Push(p); err != nil {
				panic(err)
			}
		}
		if _, err := donor.Finish(); err != nil {
			panic(err)
		}
		fuzzReplFrame, err = checkpoint.Encode(checkpoint.Capture(donor, ""))
		if err != nil {
			panic(err)
		}
	})
	return fuzzReplSvc, fuzzReplFrame
}

// FuzzDecodeReplicate POSTs arbitrary bytes to /v1/replicate. The contract
// under fuzz: every reply is a documented status with a valid JSON body, the
// handler never panics, and — the never-half-merge guarantee — any reply
// other than 200 leaves the tenant's merged version (and hence its folded
// state) exactly as it was. The checkpoint frame's CRC makes almost every
// mutation of a valid frame detectably corrupt; what survives framing still
// has to pass the full MergeState validation before anything is retained.
func FuzzDecodeReplicate(f *testing.F) {
	svc, frame := fuzzReplicate(f)
	f.Add(frame)
	f.Add(frame[:len(frame)/2])
	f.Add([]byte("KCENTCKP"))
	f.Add([]byte(`{"k":8,"state":{}}`))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00})
	if len(frame) > 40 {
		flipped := append([]byte(nil), frame...)
		flipped[40] ^= 0x01
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := svc.handlerPanics.Load()
		vbefore := svc.tenant.sh.MergedVersion()
		// http.NewRequest, not httptest.NewRequest: it skips parsing a
		// request from wire text, a third of an exec on a rejected frame.
		req, err := http.NewRequest(http.MethodPost, "/v1/replicate", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(OriginHeader, "peer")
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, req)
		if svc.handlerPanics.Load() != before {
			t.Fatalf("replicate panicked on %d bytes", len(body))
		}
		if !knownStatus(rec.Code) {
			t.Fatalf("replicate answered undocumented status %d", rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("replicate answered invalid JSON %q", rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK && svc.tenant.sh.MergedVersion() != vbefore {
			t.Fatalf("half-merge: status %d but merged version moved %d -> %d",
				rec.Code, vbefore, svc.tenant.sh.MergedVersion())
		}
	})
}
