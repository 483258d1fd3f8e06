package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Serving shape shared by the assign and mixed workloads.
const (
	serveK      = 50
	serveShards = 2
	// clientConns is the connection budget: nproc on the 2-vCPU host the
	// bounds were fitted on.
	clientConns = 2
)

// server is one `kcenter serve` process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	out  sync.WaitGroup // stdout/stderr pumps
	logs bytes.Buffer   // stderr, for diagnostics on failure
	mu   sync.Mutex     // guards logs
	hc   *http.Client
}

// startServer execs the server and returns once it has printed its listen
// address. telemetry selects -telemetry=true/false.
func startServer(bin string, telemetry bool) (*server, error) {
	cmd := exec.Command(bin, "serve",
		"-addr", "127.0.0.1:0",
		"-k", strconv.Itoa(serveK),
		"-shards", strconv.Itoa(serveShards),
		"-telemetry="+strconv.FormatBool(telemetry))
	// The server dies with the benchmark even when the benchmark itself is
	// killed before it can stop the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, hc: newHTTPClient()}
	s.out.Add(1)
	go func() {
		defer s.out.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			s.mu.Lock()
			s.logs.WriteString(sc.Text() + "\n")
			s.mu.Unlock()
		}
	}()
	first := make(chan string, 1)
	s.out.Add(1)
	go func() {
		defer s.out.Done()
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		first <- line
		_, _ = io.Copy(io.Discard, br) // keep the pipe drained until exit
	}()
	select {
	case line := <-first:
		// "serving on http://127.0.0.1:PORT   k=..."
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[2], "http://") {
			s.kill()
			return nil, fmt.Errorf("unexpected server banner %q; log:\n%s", line, s.log())
		}
		s.base = f[2]
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("server printed no banner within 30s")
	}
	return s, nil
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logs.String()
}

// waitReady polls /v1/healthz until the server reports ready.
func (s *server) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var h struct {
			Ready bool `json:"ready"`
		}
		if err := s.getJSON("/v1/healthz", &h); err == nil && h.Ready {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("server not ready within 30s")
}

// peakRSSMiB reads the server's VmHWM.
func (s *server) peakRSSMiB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// vmHWM parses VmHWM (peak resident set) from a /proc status file, in MiB.
func vmHWM(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// stop asks the server to drain and exit (SIGINT), kills it after 30s,
// and waits for the process and its output pumps.
func (s *server) stop() error {
	s.hc.CloseIdleConnections()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		s.out.Wait()
		return err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		s.out.Wait()
		return fmt.Errorf("server did not exit within 30s of SIGINT")
	}
}

// kill ends the server at once (error paths).
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
	s.out.Wait()
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clientConns,
			MaxConnsPerHost:     clientConns,
			DisableCompression:  true,
		},
	}
}

// post sends body to path and reads the whole reply into dst; it returns
// the status code. Transport errors are returned as err.
func (s *server) post(path string, body []byte, dst *bytes.Buffer) (int, error) {
	resp, err := s.hc.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	dst.Reset()
	_, err = dst.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.hc.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

func (s *server) getJSON(path string, v any) error {
	b, err := s.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// Wire shapes of the replies the benchmark reads (a subset of the server's).
type snapshotMeta struct {
	Version    uint64  `json:"version"`
	Centers    int     `json:"centers"`
	Radius     float64 `json:"radius"`
	LowerBound float64 `json:"lower_bound"`
}

type assignReply struct {
	Snapshot    snapshotMeta `json:"snapshot"`
	Assignments []struct {
		Center   int     `json:"center"`
		Distance float64 `json:"distance"`
	} `json:"assignments"`
}

type centersReply struct {
	Snapshot snapshotMeta `json:"snapshot"`
	Centers  [][]float64  `json:"centers"`
}

type ingestReply struct {
	PendingBatches int64 `json:"pending_batches"`
}

type statsReply struct {
	AcceptedPoints    int64 `json:"accepted_points"`
	PendingBatches    int64 `json:"pending_batches"`
	IngestedPoints    int64 `json:"ingested_points"`
	DroppedPoints     int64 `json:"dropped_points"`
	AssignRequests    int64 `json:"assign_requests"`
	AssignPoints      int64 `json:"assign_points"`
	DistEvals         int64 `json:"dist_evals"`
	SnapshotBuilds    int64 `json:"snapshot_builds"`
	CoalescedRequests int64 `json:"coalesced_requests"`
	CoalesceBatches   int64 `json:"coalesce_batches"`
	CoalescedPoints   int64 `json:"coalesced_points"`
	ShedBatches       int64 `json:"shed_batches"`
}

func (s *server) stats() (*statsReply, error) {
	var st statsReply
	return &st, s.getJSON("/v1/stats", &st)
}

// waitIngested polls /v1/stats until want points are ingested and the
// queue is empty, and returns when that was first seen.
func (s *server) waitIngested(want int64) (time.Time, error) {
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.stats()
		if err != nil {
			return time.Time{}, err
		}
		if st.IngestedPoints > want {
			return time.Time{}, fmt.Errorf("server ingested %d points, only %d were sent", st.IngestedPoints, want)
		}
		if st.IngestedPoints == want && st.PendingBatches == 0 {
			return time.Now(), nil
		}
		time.Sleep(time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("ingest did not drain to %d points within 120s", want)
}
