package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kcenter/internal/metric"
)

// longLine is one line as long as the scanner's 16 MiB token limit, so a
// reader that meets it fails with bufio.ErrTooLong.
var longLine = sync.OnceValue(func() []byte { return bytes.Repeat([]byte{'7'}, 1<<24) })

// FuzzForEachCSVRow holds ForEachCSVRow to the string-based reader it
// replaced, forEachCSVRowStrings: on every input and option set both
// deliver the same rows bit for bit, the same count, and the same error
// text or both nil. cols selects Columns (one byte per column, nil when
// empty), and long == 0xff appends a line over the scanner's limit; any
// other value of long appends nothing, so the fuzzer seldom pays for two
// 16 MiB scans.
func FuzzForEachCSVRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, comma rune, skipHeader bool, cols []byte, maxRows int, ignore bool, long byte) {
		opts := LoadCSVOptions{Comma: comma, SkipHeader: skipHeader, MaxRows: maxRows, IgnoreParseErrors: ignore}
		for _, c := range cols[:min(len(cols), 8)] {
			opts.Columns = append(opts.Columns, int(c%8))
		}
		input := fuzzInput(data, long)
		var got, want [][]float64
		collect := func(rows *[][]float64) func([]float64) error {
			return func(row []float64) error {
				*rows = append(*rows, append([]float64(nil), row...))
				return nil
			}
		}
		n, err := ForEachCSVRow(input(), opts, collect(&got))
		wn, werr := forEachCSVRowStrings(input(), opts, collect(&want))
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("error %v, want %v", err, werr)
		}
		if n != wn || len(got) != len(want) {
			t.Fatalf("%d rows (%d delivered), want %d (%d delivered)", n, len(got), wn, len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
			}
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
				}
			}
		}
	})
}

// fuzzInput returns a fresh reader of data each call, followed by a line
// over the scanner's limit when long == 0xff.
func fuzzInput(data []byte, long byte) func() io.Reader {
	return func() io.Reader {
		if long == 0xff {
			return io.MultiReader(bytes.NewReader(data), bytes.NewReader(longLine()))
		}
		return bytes.NewReader(data)
	}
}

// FuzzLoadCSV holds the chunked parallel loader to the string-based
// reader: cut into blocks from chunk+1 bytes (1–256) and parsed by
// workers%4+1 workers, loadCSV returns the rows forEachCSVRowStrings
// delivers as one matrix, bit for bit and with no spare capacity, or the
// same error text. The other arguments work as in FuzzForEachCSVRow,
// except that a leading 0xff in cols makes the selection non-nil, so
// []byte{0xff} selects no column at all.
func FuzzLoadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, comma rune, skipHeader bool, cols []byte, maxRows int, ignore bool, long byte, chunk, workers uint8) {
		opts := LoadCSVOptions{Comma: comma, SkipHeader: skipHeader, MaxRows: maxRows, IgnoreParseErrors: ignore}
		if len(cols) > 0 && cols[0] == 0xff {
			opts.Columns, cols = []int{}, cols[1:]
		}
		for _, c := range cols[:min(len(cols), 8)] {
			opts.Columns = append(opts.Columns, int(c%8))
		}
		input := fuzzInput(data, long)
		got, err := loadCSV(input(), opts, int(chunk)+1, int(workers%4)+1)
		want, werr := loadCSVStrings(input(), opts)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("error %v, want %v", err, werr)
		}
		if werr != nil {
			return
		}
		if got.N != want.N || got.Dim != want.Dim || len(got.Data) != len(want.Data) || cap(got.Data) != len(got.Data) {
			t.Fatalf("loaded %d×%d (%d values, capacity %d), want %d×%d", got.N, got.Dim, len(got.Data), cap(got.Data), want.N, want.Dim)
		}
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("value %d = %v, want %v", i, got.Data[i], v)
			}
		}
	})
}

// loadCSVStrings is LoadCSV on the reference reader: the rows of
// forEachCSVRowStrings appended to one matrix, and an empty column
// selection refused at the first row.
func loadCSVStrings(r io.Reader, opts LoadCSVOptions) (*metric.Dataset, error) {
	var data []float64
	n, err := forEachCSVRowStrings(r, opts, func(row []float64) error {
		if len(row) == 0 {
			return errors.New("dataset: no columns selected")
		}
		data = append(data, row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &metric.Dataset{Data: data, N: int(n), Dim: len(data) / int(n)}, nil
}

// forEachCSVRowStrings is ForEachCSVRow as it was before the byte-level
// scan, kept as the fuzz target's reference: strings.TrimSpace and
// strings.Split on sc.Text(), and strconv.ParseFloat on every field. It
// applies the same header rule (a first non-blank line with no numeric
// field is skipped when columns are autodetected and SkipHeader is off)
// and drops a UTF-8 byte-order mark from the first line, so the targets
// still pin splitting and parsing.
func forEachCSVRowStrings(r io.Reader, opts LoadCSVOptions, fn func(row []float64) error) (int64, error) {
	if opts.Comma == 0 {
		opts.Comma = ','
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var (
		cols    = opts.Columns
		row     []float64
		lineNum int
		rows    int64
		header  = cols == nil && !opts.SkipHeader
	)
	for sc.Scan() {
		lineNum++
		if opts.SkipHeader && lineNum == 1 {
			continue
		}
		line := sc.Text()
		if lineNum == 1 {
			line = strings.TrimPrefix(line, "\ufeff") // a UTF-8 byte-order mark
		}
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		fields := strings.Split(line, string(opts.Comma))
		if cols == nil {
			// Autodetect numeric columns from the first data row.
			for i, f := range fields {
				if _, err := strconv.ParseFloat(strings.TrimSpace(f), 64); err == nil {
					cols = append(cols, i)
				}
			}
			if len(cols) == 0 && header {
				header = false
				continue
			}
			if len(cols) == 0 {
				return rows, fmt.Errorf("dataset: line %d has no numeric columns", lineNum)
			}
		}
		if row == nil {
			row = make([]float64, len(cols))
		}
		for i, c := range cols {
			if c >= len(fields) {
				return rows, fmt.Errorf("dataset: line %d has %d fields, need column %d", lineNum, len(fields), c)
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(fields[c]), 64)
			if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("non-finite value %v", v)
			}
			if err != nil {
				if !opts.IgnoreParseErrors {
					return rows, fmt.Errorf("dataset: line %d column %d: %v", lineNum, c, err)
				}
				v = 0
			}
			row[i] = v
		}
		if err := fn(row); err != nil {
			return rows, err
		}
		rows++
		if opts.MaxRows > 0 && rows >= int64(opts.MaxRows) {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return rows, fmt.Errorf("dataset: read: %w", err)
	}
	if rows == 0 {
		return 0, fmt.Errorf("dataset: no data rows")
	}
	return rows, nil
}
