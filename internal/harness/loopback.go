// Loopback fixture for the serving experiments (restart, chaos and
// serve-replicate): a Service behind a loopback HTTP listener, one JSON
// client per tenant, and the request bodies, warm-up poll and drain wait
// those experiments share. Serving latency itself is measured by perfbench
// (p50_ms on its assign and mixed workloads), not here.

package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"kcenter/internal/metric"
	"kcenter/internal/server"
	"kcenter/internal/stream"
)

// node is one Service behind a loopback HTTP listener.
type node struct {
	svc *server.Service
	ts  *httptest.Server
}

// startNode starts a Service from cfg and serves it over loopback HTTP.
func startNode(cfg server.Config) (*node, error) {
	svc, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &node{svc: svc, ts: httptest.NewServer(svc.Handler())}, nil
}

// close shuts the listener, then drains and closes the Service.
func (n *node) close() (*stream.Result, error) {
	n.ts.Close()
	return n.svc.Close(context.Background())
}

// client returns a client of the node for tenant ("" is the default
// tenant).
func (n *node) client(tenant string) *client {
	return &client{base: n.ts.URL, tenant: tenant, hc: &http.Client{Timeout: 60 * time.Second}}
}

// client speaks the service's JSON API as one tenant.
type client struct {
	base, tenant string
	hc           *http.Client
}

func (c *client) do(method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tenant != "" {
		req.Header.Set(server.TenantHeader, c.tenant)
	}
	return c.hc.Do(req)
}

// post sends body and returns the reply's status, discarding its body.
func (c *client) post(path string, body []byte) (int, error) {
	resp, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// get decodes the 200 reply to GET path into out.
func (c *client) get(path string, out any) error {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// stats is the slice of a tenant's /v1/stats reply the experiments read.
type stats struct {
	AcceptedPoints   int64 `json:"accepted_points"`
	IngestedPoints   int64 `json:"ingested_points"`
	PendingBatches   int64 `json:"pending_batches"`
	ShedPoints       int64 `json:"shed_points"`
	DroppedPoints    int64 `json:"dropped_points"`
	CheckpointErrors int64 `json:"checkpoint_errors"`
	Degraded         bool  `json:"degraded"`
	PerShard         []struct {
		Ingested int64 `json:"ingested"`
	} `json:"per_shard"`
	Replication *struct {
		Origins []struct {
			Merges           int64   `json:"merges"`
			StalenessSeconds float64 `json:"staleness_seconds"`
		} `json:"origins"`
	} `json:"replication"`
}

func (c *client) stats() (stats, error) {
	var st stats
	err := c.get("/v1/stats", &st)
	return st, err
}

// summarized is how many points the tenant's shards have consumed.
func (st stats) summarized() int64 {
	var n int64
	for _, sh := range st.PerShard {
		n += sh.Ingested
	}
	return n
}

// warm ingests seed and waits until the tenant answers assigns.
func (c *client) warm(seed [][]float64) error {
	body, err := pointsBody(seed)
	if err != nil {
		return err
	}
	code, err := c.post("/v1/ingest", body)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("seed ingest %q: status %d", c.tenant, code)
	}
	return c.awaitAssign(seed[:1])
}

// awaitAssign polls an assign of pts past the cold 409 a tenant answers
// before its first snapshot, until the service answers 200.
func (c *client) awaitAssign(pts [][]float64) error {
	body, err := pointsBody(pts)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, err := c.post("/v1/assign", body)
		switch {
		case err != nil:
			return err
		case code == http.StatusOK:
			return nil
		case code != http.StatusConflict:
			return fmt.Errorf("assign %q: status %d", c.tenant, code)
		case time.Now().After(deadline):
			return fmt.Errorf("assign %q never left the cold 409 window", c.tenant)
		}
		time.Sleep(time.Millisecond)
	}
}

// ingestAll posts ds in batches, retrying every batch the service sheds
// with 429, then waits until the tenant's shards have consumed every point
// sent, so a checkpoint or a drained verdict covers the whole feed.
func (c *client) ingestAll(ds *metric.Dataset, batch int) error {
	bodies, err := batchBodies(ds, 0, ds.N, batch)
	if err != nil {
		return err
	}
	for _, body := range bodies {
		for {
			code, err := c.post("/v1/ingest", body)
			if err != nil {
				return err
			}
			if code == http.StatusAccepted {
				break
			}
			if code != http.StatusTooManyRequests {
				return fmt.Errorf("ingest: status %d", code)
			}
			time.Sleep(time.Millisecond) // shed: the feed replays as fast as the service admits
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.stats()
		if err != nil {
			return err
		}
		got := st.summarized()
		if got == int64(ds.N) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d of %d points consumed", got, ds.N)
		}
		time.Sleep(time.Millisecond)
	}
}

// pointsBody encodes pts as an ingest or assign request body.
func pointsBody(pts [][]float64) ([]byte, error) {
	return json.Marshal(struct {
		Points [][]float64 `json:"points"`
	}{pts})
}

// rows returns points [lo, hi) of ds, aliasing its backing array.
func rows(ds *metric.Dataset, lo, hi int) [][]float64 {
	pts := make([][]float64, hi-lo)
	for i := range pts {
		pts[i] = ds.At(lo + i)
	}
	return pts
}

// batchBodies encodes points [lo, hi) of ds as request bodies of batch
// points each; the last may be shorter.
func batchBodies(ds *metric.Dataset, lo, hi, batch int) ([][]byte, error) {
	var bodies [][]byte
	for b := lo; b < hi; b += batch {
		body, err := pointsBody(rows(ds, b, min(b+batch, hi)))
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// quietWorld is the quiet tenant's data in the tenant experiments: the
// first n points of ds translated by 1e6 along the first axis, a region
// disjoint from ds, so cross-tenant leakage would corrupt its centers as
// well as its latency. bodies holds up to eight pre-encoded 16-point assign
// queries drawn from it, so quietPhase measures the request path, not
// client-side encoding.
func quietWorld(ds *metric.Dataset, n int) (pts [][]float64, bodies [][]byte, err error) {
	pts = make([][]float64, n)
	for i := range pts {
		pts[i] = append([]float64(nil), ds.At(i)...)
		pts[i][0] += 1e6
	}
	for lo := 0; lo+16 <= n && len(bodies) < 8; lo += 16 {
		b, err := pointsBody(pts[lo : lo+16])
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, b)
	}
	return pts, bodies, nil
}

// quietPhase issues n sparse assign requests (bodies round-robin) and
// returns their latencies in ms.
func quietPhase(c *client, bodies [][]byte, n int) ([]float64, error) {
	ms := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		code, err := c.post("/v1/assign", bodies[i%len(bodies)])
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("quiet assign: status %d", code)
		}
		ms = append(ms, msSince(t0))
		time.Sleep(time.Millisecond) // sparse, not saturating
	}
	return ms, nil
}

// msSince is the time since t0 in milliseconds, at microsecond resolution.
func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1e3
}

// percentile returns the p-quantile (0 < p <= 1) of xs by the nearest-rank
// method; 0 for empty input. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}
