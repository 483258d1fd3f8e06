package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runT runs the CLI without a signal channel; only the serve subcommand
// consumes one, and its tests construct their own.
func runT(args []string, out io.Writer) error {
	return run(args, out, nil)
}

func TestRunGON(t *testing.T) {
	var buf bytes.Buffer
	err := runT([]string{"-algo", "gon", "-dataset", "unif", "-n", "2000", "-k", "5"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "GON") || !strings.Contains(out, "value=") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunMRGVerbose(t *testing.T) {
	var buf bytes.Buffer
	err := runT([]string{"-algo", "mrg", "-dataset", "gau", "-n", "5000", "-kprime", "5", "-k", "5", "-v"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rounds=2") {
		t.Fatalf("expected 2-round MRG, got:\n%s", out)
	}
	if !strings.Contains(out, "mrg-parallel-1") || !strings.Contains(out, "mrg-final") {
		t.Fatalf("verbose round listing missing:\n%s", out)
	}
}

func TestRunEIMVerbose(t *testing.T) {
	var buf bytes.Buffer
	err := runT([]string{"-algo", "eim", "-dataset", "unif", "-n", "30000", "-k", "5", "-v"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mode=sampling") {
		t.Fatalf("expected sampling mode:\n%s", out)
	}
	if !strings.Contains(out, "iter 1:") {
		t.Fatalf("verbose iteration stats missing:\n%s", out)
	}
}

func TestRunEIMFallbackMode(t *testing.T) {
	var buf bytes.Buffer
	err := runT([]string{"-algo", "eim", "-dataset", "unif", "-n", "2000", "-k", "100"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mode=fallback-to-GON") {
		t.Fatalf("expected fallback mode:\n%s", buf.String())
	}
}

func TestRunAllGenerators(t *testing.T) {
	for _, ds := range []string{"unif", "gau", "unb", "kdd"} {
		var buf bytes.Buffer
		if err := runT([]string{"-algo", "gon", "-dataset", ds, "-n", "2000", "-k", "3"}, &buf); err != nil {
			t.Fatalf("dataset %s: %v", ds, err)
		}
	}
	// poker has a fixed size and is slower; run with small k once.
	var buf bytes.Buffer
	if err := runT([]string{"-algo", "gon", "-dataset", "poker", "-k", "2"}, &buf); err != nil {
		t.Fatalf("poker: %v", err)
	}
}

func TestRunCSVInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "points.csv")
	if err := os.WriteFile(path, []byte("0,0\n1,0\n0,1\n10,10\n11,10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runT([]string{"-algo", "gon", "-csv", path, "-k", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n=5") {
		t.Fatalf("CSV not loaded:\n%s", buf.String())
	}
}

// TestRunCSVHeader: a CSV file whose first line names its columns loads
// in both the batch and the streaming paths, the header skipped.
func TestRunCSVHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "points.csv")
	if err := os.WriteFile(path, []byte("x,label,y\n0,a,0\n1,b,0\n0,c,1\n10,d,10\n11,e,10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runT([]string{"-algo", "gon", "-csv", path, "-k", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n=5") {
		t.Fatalf("headed CSV not loaded:\n%s", buf.String())
	}
	buf.Reset()
	if err := runT([]string{"stream", "-csv", path, "-k", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "ingested=5") || !strings.Contains(out, "centers=2") {
		t.Fatalf("headed CSV not streamed:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runT([]string{"-algo", "nope"}, &buf); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if err := runT([]string{"-dataset", "nope"}, &buf); err == nil {
		t.Fatal("unknown dataset should fail")
	}
	if err := runT([]string{"-csv", "/does/not/exist.csv"}, &buf); err == nil {
		t.Fatal("missing CSV should fail")
	}
	if err := runT([]string{"-badflag"}, &buf); err == nil {
		t.Fatal("bad flag should fail")
	}
}

func TestRunStreamGenerated(t *testing.T) {
	var buf bytes.Buffer
	err := runT([]string{"stream", "-dataset", "gau", "-n", "5000", "-kprime", "5", "-k", "5", "-shards", "4", "-v"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "STREAM") || !strings.Contains(out, "ingested=5000") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "shard 0") || !strings.Contains(out, "shard 3") {
		t.Fatalf("verbose per-shard stats missing:\n%s", out)
	}
}

func TestRunStreamCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "points.csv")
	// A mixed-type row mirrors UCI files: the symbolic column is skipped by
	// the same autodetection LoadCSV uses.
	if err := os.WriteFile(path, []byte("0,a,0\n1,b,0\n0,c,1\n10,d,10\n11,e,10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runT([]string{"stream", "-csv", path, "-k", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ingested=5") {
		t.Fatalf("CSV rows not streamed:\n%s", out)
	}
	if !strings.Contains(out, "centers=2") {
		t.Fatalf("expected 2 centers:\n%s", out)
	}
}

func TestRunStreamErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runT([]string{"stream", "-k", "0"}, &buf); err == nil {
		t.Fatal("k=0 should fail")
	}
	if err := runT([]string{"stream", "-csv", "/does/not/exist.csv"}, &buf); err == nil {
		t.Fatal("missing CSV should fail")
	}
	if err := runT([]string{"stream", "-dataset", "nope"}, &buf); err == nil {
		t.Fatal("unknown dataset should fail")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runT([]string{"stream", "-csv", path, "-k", "2"}, &buf); err == nil {
		t.Fatal("empty CSV should fail")
	}
	path2 := filepath.Join(dir, "symbolic.csv")
	if err := os.WriteFile(path2, []byte("a,b\nc,d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runT([]string{"stream", "-csv", path2, "-k", "2"}, &buf); err == nil {
		t.Fatal("all-symbolic CSV should fail")
	}
}
