package dataset

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// TestLoadCSVByteOrderMark: a UTF-8 byte-order mark before the first line
// is dropped, so the first column is kept and a header after it is still
// detected; one anywhere else is a field's bytes.
func TestLoadCSVByteOrderMark(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []float64
		err  string
	}{
		{in: "\xef\xbb\xbf1,2\n3,4\n", want: []float64{1, 2, 3, 4}, err: "<nil>"},
		{in: "\xef\xbb\xbfx,y\n1,2\n", want: []float64{1, 2}, err: "<nil>"},
		{in: "1,2\n\xef\xbb\xbf3,4\n", err: `dataset: line 2 column 0: strconv.ParseFloat: parsing "\ufeff3": invalid syntax`},
	} {
		ds, err := LoadCSV(strings.NewReader(c.in), LoadCSVOptions{})
		if fmt.Sprint(err) != c.err {
			t.Fatalf("%q: error %v, want %s", c.in, err, c.err)
		}
		var rows []float64
		_, ferr := ForEachCSVRow(strings.NewReader(c.in), LoadCSVOptions{}, func(row []float64) error {
			rows = append(rows, row...)
			return nil
		})
		if fmt.Sprint(ferr) != fmt.Sprint(err) {
			t.Fatalf("%q: ForEachCSVRow error %v, LoadCSV error %v", c.in, ferr, err)
		}
		if err != nil {
			continue
		}
		if ds.Dim != 2 || fmt.Sprint(ds.Data) != fmt.Sprint(c.want) || fmt.Sprint(rows) != fmt.Sprint(c.want) {
			t.Fatalf("%q: loaded %d×%d %v, streamed %v, want %v", c.in, ds.N, ds.Dim, ds.Data, rows, c.want)
		}
	}
}

// TestLoadCSVChunksMatchRows: cut into blocks of a few bytes and parsed by
// one to four workers, the loader returns what the reference reader
// delivers, on the inputs of the other LoadCSV tests and on blank lines,
// errors and row limits on both sides of a block's end.
func TestLoadCSVChunksMatchRows(t *testing.T) {
	ragged := strings.Repeat("1,2\n\n 3, 4\n", 20) + "5\n" + strings.Repeat("6,7\n", 20)
	for _, c := range []struct {
		in   string
		opts LoadCSVOptions
	}{
		{"1.5,2,3\n4,5,6.25\n", LoadCSVOptions{}},
		{"a,b,c\n1,x,3\n4,y,6\n", LoadCSVOptions{SkipHeader: true, Columns: []int{0, 2}}},
		{"\n  \nx,label,y\n1,a,2\n3,b,4\n", LoadCSVOptions{}},
		{"x,y\na,b\n1,2\n", LoadCSVOptions{}},
		{"0,tcp,181\n0,udp,239\n", LoadCSVOptions{}},
		{"1,2\n3,oops\n5,6\n", LoadCSVOptions{}},
		{"1,2\n3,oops\n5,6\n", LoadCSVOptions{IgnoreParseErrors: true}},
		{"1,2\n3,4\n5,NaN\n", LoadCSVOptions{}},
		{"1,2\n3,4\n", LoadCSVOptions{Columns: []int{}}},
		{"\xef\xbb\xbf1,2\n3,4", LoadCSVOptions{}},
		{ragged, LoadCSVOptions{}},
		{ragged, LoadCSVOptions{MaxRows: 40}},
		{ragged, LoadCSVOptions{MaxRows: 41}},
		{ragged, LoadCSVOptions{MaxRows: -12}},
		{ragged, LoadCSVOptions{Columns: []int{1}, MaxRows: 50}},
	} {
		want, werr := loadCSVStrings(strings.NewReader(c.in), c.opts)
		for _, size := range []int{1, 2, 3, 5, 8, 64} {
			for workers := 1; workers <= 4; workers++ {
				got, err := loadCSV(strings.NewReader(c.in), c.opts, size, workers)
				if fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%q %+v at %d bytes, %d workers: error %v, want %v", c.in, c.opts, size, workers, err, werr)
				}
				if werr == nil && (got.N != want.N || got.Dim != want.Dim || fmt.Sprint(got.Data) != fmt.Sprint(want.Data)) {
					t.Fatalf("%q %+v at %d bytes, %d workers: loaded %d×%d %v, want %d×%d %v",
						c.in, c.opts, size, workers, got.N, got.Dim, got.Data, want.N, want.Dim, want.Data)
				}
			}
		}
	}
}

// TestLoadCSVChunksStopGoroutines: no loader goroutine outlives the call,
// whether it loads every row, stops at a parse error or at a read error.
func TestLoadCSVChunksStopGoroutines(t *testing.T) {
	rows := strings.Repeat("1,2\n", 1000)
	for _, c := range []struct {
		name string
		r    io.Reader
		err  string
	}{
		{"success", strings.NewReader(rows + rows), "<nil>"},
		{"parse error", strings.NewReader(rows + "3,x\n" + rows), `dataset: line 1001 column 1: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"read error", io.MultiReader(strings.NewReader(rows), iotest.ErrReader(errors.New("disk gone"))), "dataset: read: disk gone"},
	} {
		before := runtime.NumGoroutine()
		if _, err := loadCSV(c.r, LoadCSVOptions{}, 64, 4); fmt.Sprint(err) != c.err {
			t.Fatalf("%s: error %v, want %s", c.name, err, c.err)
		}
		// A worker has called wg.Done before it exits; give it the moment.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the load, %d before", c.name, runtime.NumGoroutine(), before)
			}
		}
	}
}

// endless repeats one line forever.
type endless struct {
	line string
	off  int
}

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = e.line[e.off]
		e.off = (e.off + 1) % len(e.line)
	}
	return len(p), nil
}

// TestLoadCSVChunksEndlessReader: a positive MaxRows returns from a reader
// that never ends, at every block size and worker count, as does a parse
// error in it; so does ForEachCSVRow's.
func TestLoadCSVChunksEndlessReader(t *testing.T) {
	for _, size := range []int{1, 64, chunkBytes} {
		for workers := 1; workers <= 4; workers++ {
			ds, err := loadCSV(&endless{line: "1,2\n\n"}, LoadCSVOptions{MaxRows: 1000}, size, workers)
			if err != nil || ds.N != 1000 || len(ds.Data) != 2000 {
				t.Fatalf("%d bytes, %d workers: %v, %v", size, workers, ds, err)
			}
			for i, v := range ds.Data {
				if v != float64(1+i%2) {
					t.Fatalf("%d bytes, %d workers: value %d = %v", size, workers, i, v)
				}
			}
			r := io.MultiReader(strings.NewReader("1,2\n3,x\n"), &endless{line: "1,2\n"})
			if _, err := loadCSV(r, LoadCSVOptions{}, size, workers); err == nil || !strings.Contains(err.Error(), "line 2 column 1") {
				t.Fatalf("%d bytes, %d workers: error %v, want one naming line 2 column 1", size, workers, err)
			}
		}
	}
	n, err := ForEachCSVRow(&endless{line: "1,2\n"}, LoadCSVOptions{MaxRows: 1000}, func([]float64) error { return nil })
	if n != 1000 || err != nil {
		t.Fatalf("ForEachCSVRow: %d rows, %v", n, err)
	}
}
