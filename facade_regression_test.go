package kcenter

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestRadiusZeroValueDataset is the regression test for the guard-order
// bug where Radius read d.m.N before checking d.m == nil, so a zero-value
// Dataset (never initialized through NewDataset) panicked instead of
// returning the "empty dataset" error that RadiusPoints and checkArgs
// already produced.
func TestRadiusZeroValueDataset(t *testing.T) {
	for name, d := range map[string]*Dataset{
		"nil dataset": nil,
		"zero value":  {},
	} {
		if _, err := Radius(d, []int{0}); err == nil {
			t.Fatalf("%s: expected error, got nil", name)
		}
	}
}

// TestStreamCentersMidStream exercises the snapshot API end to end: query
// the clustering before Finish, keep pushing afterwards, and confirm the
// final result is unaffected by the mid-stream reads.
func TestStreamCentersMidStream(t *testing.T) {
	st, err := NewStream(4, StreamOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Centers(); err == nil {
		t.Fatal("Centers on an empty stream should fail")
	}
	ds := Uniform(500, 41)
	for i := 0; i < 250; i++ {
		if err := st.Push(ds.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Poll gently until the shards have drained enough for a snapshot; the
	// ingester is asynchronous, so the first calls may still see nothing.
	var mid [][]float64
	for attempt := 0; len(mid) == 0; attempt++ {
		if attempt > 5000 {
			t.Fatal("snapshot never became available")
		}
		mid, _ = st.Centers()
		if len(mid) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if len(mid) > 4 {
		t.Fatalf("snapshot returned %d centers, want <= 4", len(mid))
	}
	for _, c := range mid {
		if len(c) != 2 {
			t.Fatalf("center dimension %d, want 2", len(c))
		}
	}
	for i := 250; i < 500; i++ {
		if err := st.Push(ds.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != 500 {
		t.Fatalf("ingested %d, want 500", res.Ingested)
	}
	if len(res.Centers) == 0 || len(res.Centers) > 4 {
		t.Fatalf("final centers %d, want 1..4", len(res.Centers))
	}
	realized, err := RadiusPoints(ds, res.Centers)
	if err != nil {
		t.Fatal(err)
	}
	if realized > res.Radius+1e-9 {
		t.Fatalf("realized %g escapes certified bound %g", realized, res.Radius)
	}
}

// TestNonFiniteCoordinatesRejected is the regression test for NewDataset
// and ReadCSV accepting NaN and ±Inf coordinates: Gonzalez then reported
// Radius +Inf and put every point in cluster 0.
func TestNonFiniteCoordinatesRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewDataset([][]float64{{0, 0}, {1, 1}, {v, 2}, {5, 5}}); err == nil {
			t.Fatalf("NewDataset accepted coordinate %v", v)
		}
	}
	for _, v := range []string{"NaN", "Inf", "-Inf"} {
		if _, err := ReadCSV(strings.NewReader("0,0\n1,1\n" + v + ",2\n5,5\n")); err == nil {
			t.Fatalf("ReadCSV accepted %q", v)
		}
	}
}

// TestReadCSVSkipsHeader is the regression test for ReadCSV failing on a
// file whose first line names its columns ("line 1 has no numeric
// columns"): the header is skipped and the columns are detected from the
// first data row.
func TestReadCSVSkipsHeader(t *testing.T) {
	d, err := ReadCSV(strings.NewReader("x,label,y\n1,a,2\n3,b,4\n5,c,6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 || d.Dim() != 2 {
		t.Fatalf("%d x %d, want 3 x 2", d.Len(), d.Dim())
	}
	if _, err := ReadCSV(strings.NewReader("x,y\na,b\n1,2\n")); err == nil {
		t.Fatal("a second all-symbolic line must still fail")
	}
}
