package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"kcenter/internal/metric"
)

// LoadCSVOptions controls LoadCSV.
type LoadCSVOptions struct {
	// Comma is the field separator; ',' when zero.
	Comma rune
	// SkipHeader drops the first line.
	SkipHeader bool
	// Columns selects which zero-based columns to keep; nil keeps every
	// column that parses as a number in the first data row. With Columns
	// nil and SkipHeader off, a first line with no numeric field is taken
	// for a header and skipped.
	Columns []int
	// MaxRows limits how many rows are read; 0 or less means unlimited.
	MaxRows int
	// IgnoreParseErrors replaces unparseable and non-finite fields with 0
	// instead of failing; non-numeric symbolic columns (e.g. KDD's protocol
	// field) are typically excluded via Columns instead.
	IgnoreParseErrors bool
}

// chunkBytes is the length from which the CSV reader cuts a run of whole
// lines at the next line end, fitted on BenchmarkLoadCSV's rows
// (ARCHITECTURE.md, "Loading"): a quarter of the scanner's 1 MiB buffer,
// it cuts even a 0.5 MB Poker Hand file into blocks for two workers.
const chunkBytes = 1 << 18

// utf8BOM is the UTF-8 byte-order mark, which spreadsheet exports such as
// Excel's "CSV UTF-8" write before the first line.
const utf8BOM = "\xef\xbb\xbf"

// ForEachCSVRow reads UCI-style comma-separated text row by row, calling fn
// with each parsed numeric row without materializing the matrix — the
// primitive behind the CLI's incremental streaming ingestion. The slice
// passed to fn is reused between calls; fn must copy what it keeps. Returns
// the number of rows delivered. A non-nil error from fn stops the scan and
// is returned verbatim. A value that parses but is not finite ("NaN",
// "Inf") is a parse error: it names its line and column, or reads as 0
// under IgnoreParseErrors. A negative entry in Columns is an error naming
// it. A header line is detected as LoadCSVOptions describes, and a UTF-8
// byte-order mark before the first line is dropped.
//
// It reads through the same chunk reader and line grammar as LoadCSV, on
// the calling goroutine: each line is trimmed and split as strings.TrimSpace
// and strings.Split would, and each field parses as strconv.ParseFloat
// would, but in place on the scanner's bytes, so a row costs no allocation
// (ARCHITECTURE.md, "Loading").
func ForEachCSVRow(r io.Reader, opts LoadCSVOptions, fn func(row []float64) error) (int64, error) {
	cr, err := newCSVReader(r, opts, chunkBytes)
	if err != nil {
		return 0, err
	}
	text, line, ok, err := cr.start()
	if err != nil {
		return 0, err
	}
	row := make([]float64, len(cr.p.cols))
	var rows int64
	for ; ok; text, ok = cr.next() {
		for len(text) > 0 {
			var l []byte
			l, text = cutLine(text)
			line++
			isRow, err := cr.p.parse(row, l, line)
			if err != nil {
				return rows, err
			}
			if !isRow {
				continue
			}
			if err := fn(row); err != nil {
				return rows, err
			}
			if rows++; opts.MaxRows > 0 && rows >= int64(opts.MaxRows) {
				return rows, nil
			}
		}
	}
	return rows, cr.end(rows)
}

// LoadCSV reads a numeric matrix from UCI-style comma-separated text, with
// ForEachCSVRow's rows, errors and options. It is how the real Poker Hand /
// KDD Cup files plug into the harness when the user has them on disk.
//
// The calling goroutine reads the text as runs of whole lines and handles
// everything up to the first data row (SkipHeader, the header rule, column
// autodetection). From the second run on, runtime.GOMAXPROCS(0) workers
// parse the runs with ForEachCSVRow's line grammar, each into a slice sized
// from its line count; input that fits in one run is parsed on the caller.
// The runs' rows are joined in input order into one Data of exactly the
// loaded size. The first error in line order wins; under a positive MaxRows
// no line past the limit is an error, and reading stops once the limit is
// reached (ARCHITECTURE.md, "Loading").
func LoadCSV(r io.Reader, opts LoadCSVOptions) (*metric.Dataset, error) {
	return loadCSV(r, opts, chunkBytes, runtime.GOMAXPROCS(0))
}

// block is one run of whole lines and what parsing made of it.
type block struct {
	text  []byte    // the lines
	line  int       // the number of the line before text
	lines int       // the lines in text
	out   []float64 // the rows parsed, in order
	err   error     // the first error in text, met after the rows in out
	done  chan struct{}
}

// loadCSV is LoadCSV with the chunk length and the worker count as
// arguments, so tests can cut small inputs into many blocks.
func loadCSV(r io.Reader, opts LoadCSVOptions, size, workers int) (*metric.Dataset, error) {
	cr, err := newCSVReader(r, opts, size)
	if err != nil {
		return nil, err
	}
	text, line, ok, err := cr.start()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, cr.end(0)
	}
	dim := len(cr.p.cols)
	if dim == 0 {
		return nil, errors.New("dataset: no columns selected")
	}
	limit := opts.MaxRows
	if limit <= 0 {
		limit = math.MaxInt
	}
	var (
		blocks []*block
		// jobs stays nil until a second block shows the input needs workers.
		jobs chan *block
		// free holds every text buffer there is, so a worker never blocks
		// returning one: one per worker and one the reader fills meanwhile.
		free   = make(chan []byte, workers+1)
		failed atomic.Bool
		wg     sync.WaitGroup
		// rows counts the rows of blocks[:counted]; need is how many more
		// lines to read before they are counted again.
		rows, counted int
		need          = limit
	)
	for i := 0; i < cap(free); i++ {
		free <- nil // grown by the first block copied into it
	}
	// parsed marks b done, and stops the reading at its error: no later
	// line can hold an earlier one.
	parsed := func(b *block) {
		if b.err != nil {
			failed.Store(true)
		}
		close(b.done)
	}
	for ok && !failed.Load() {
		b := &block{line: line, lines: countLines(text), done: make(chan struct{})}
		line += b.lines
		blocks = append(blocks, b)
		switch {
		case workers == 1:
			b.text = text // parsed before the next Scan reuses the scanner's buffer
			cr.p.parseBlock(b)
			parsed(b)
			text, ok = cr.next()
		case jobs != nil:
			b.text = append(<-free, text...)
			jobs <- b
			text, ok = cr.next()
		default:
			b.text = append(<-free, text...)
			if text, ok = cr.next(); !ok {
				cr.p.parseBlock(b) // the input fits in one block
				parsed(b)
				break
			}
			jobs = make(chan *block)
			wg.Add(workers)
			for i := 0; i < workers; i++ {
				go func(p lineParser) {
					defer wg.Done()
					for b := range jobs {
						p.parseBlock(b)
						free <- b.text[:0]
						parsed(b)
					}
				}(lineParser{sep: cr.p.sep, cols: cr.p.cols, ignore: cr.p.ignore})
			}
			jobs <- b
		}
		if need -= b.lines; need <= 0 {
			for _, b := range blocks[counted:] {
				<-b.done
				rows += len(b.out) / dim
			}
			if counted = len(blocks); rows >= limit {
				break
			}
			need = limit - rows
		}
	}
	if jobs != nil {
		close(jobs)
		wg.Wait()
	}
	return join(cr, blocks, dim, limit)
}

// join concatenates the rows of the parsed blocks in input order, keeping
// the first limit of them. The first error in line order wins unless the
// limit falls before it; with no error, the scanner's error or the lack of
// any row is reported.
func join(cr *csvReader, blocks []*block, dim, limit int) (*metric.Dataset, error) {
	n := 0
	for i, b := range blocks {
		if r := len(b.out) / dim; r < limit-n {
			if b.err != nil {
				return nil, b.err
			}
			n += r
			continue
		}
		b.out = b.out[:(limit-n)*dim]
		n, blocks = limit, blocks[:i+1]
		break
	}
	if n < limit {
		if err := cr.end(int64(n)); err != nil {
			return nil, err
		}
	}
	data := blocks[0].out
	if len(blocks) > 1 || len(data) != cap(data) {
		data = make([]float64, 0, n*dim)
		for _, b := range blocks {
			data = append(data, b.out...)
		}
	}
	return &metric.Dataset{Data: data, N: n, Dim: dim}, nil
}

// csvReader reads CSV text as chunks of whole lines through one
// bufio.Scanner, and holds the line grammar the options set.
type csvReader struct {
	sc         *bufio.Scanner
	p          lineParser
	skipHeader bool
	started    bool // a chunk was read, so a byte-order mark is behind
}

func newCSVReader(r io.Reader, opts LoadCSVOptions, size int) (*csvReader, error) {
	if opts.Comma == 0 {
		opts.Comma = ','
	}
	for _, c := range opts.Columns {
		if c < 0 {
			return nil, fmt.Errorf("dataset: column %d is negative", c)
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	sc.Split(splitChunks(size))
	return &csvReader{
		sc:         sc,
		p:          lineParser{sep: []byte(string(opts.Comma)), cols: opts.Columns, ignore: opts.IgnoreParseErrors},
		skipHeader: opts.SkipHeader,
	}, nil
}

// splitChunks is a bufio.SplitFunc that returns runs of whole lines: up to
// the first line end at or past size bytes, else every whole line in data,
// else at EOF the rest. It asks for more data exactly when bufio.ScanLines
// would, when data holds no line end, so the scanner's buffer, and with it
// the 16 MiB limit on a line and its bufio.ErrTooLong, behave as under
// ScanLines.
func splitChunks(size int) bufio.SplitFunc {
	return func(data []byte, atEOF bool) (int, []byte, error) {
		n := 0
		if len(data) >= size {
			if i := bytes.IndexByte(data[size-1:], '\n'); i >= 0 {
				n = size + i
			}
		}
		if n == 0 {
			n = bytes.LastIndexByte(data, '\n') + 1
		}
		if n == 0 && atEOF {
			n = len(data)
		}
		if n == 0 {
			return 0, nil, nil
		}
		return n, data[:n], nil
	}
}

// next returns the next chunk, valid until the next call, with a leading
// byte-order mark dropped from the first; false at the end of the input or
// on a read error.
func (r *csvReader) next() ([]byte, bool) {
	if !r.sc.Scan() {
		return nil, false
	}
	text := r.sc.Bytes()
	if !r.started {
		r.started = true
		text = bytes.TrimPrefix(text, []byte(utf8BOM))
	}
	return text, true
}

// start reads up to the first data row: it drops the first line under
// SkipHeader, skips blank lines and a header, and autodetects the columns
// when none were given. It returns the rest of the current chunk from that
// row on and the number of lines before it, or false when the input holds
// no data row.
func (r *csvReader) start() (text []byte, line int, ok bool, err error) {
	header := r.p.cols == nil && !r.skipHeader
	for text, ok = r.next(); ok; text, ok = r.next() {
		for rest := text; len(text) > 0; text = rest {
			var l []byte
			l, rest = cutLine(text)
			line++
			if r.skipHeader && line == 1 {
				continue
			}
			if r.p.fields = splitLine(r.p.fields[:0], l, r.p.sep); len(r.p.fields) == 0 {
				continue
			}
			if r.p.cols == nil {
				for i, f := range r.p.fields {
					if _, err := parseField(f); err == nil {
						r.p.cols = append(r.p.cols, i)
					}
				}
				if len(r.p.cols) == 0 && header {
					header = false // a header line: detect from the next line
					continue
				}
				if len(r.p.cols) == 0 {
					return nil, line, false, fmt.Errorf("dataset: line %d has no numeric columns", line)
				}
			}
			return text, line - 1, true, nil
		}
	}
	return nil, line, false, nil
}

// end reports why the rows ran out: the scanner's error, or no data rows
// when there were none.
func (r *csvReader) end(rows int64) error {
	if err := r.sc.Err(); err != nil {
		return fmt.Errorf("dataset: read: %w", err)
	}
	if rows == 0 {
		return errors.New("dataset: no data rows")
	}
	return nil
}

// cutLine cuts the first line, without its line end, off text.
func cutLine(text []byte) (line, rest []byte) {
	if i := bytes.IndexByte(text, '\n'); i >= 0 {
		return text[:i], text[i+1:]
	}
	return text, nil
}

// countLines counts the lines of text: one per line end, and a last line
// without one.
func countLines(text []byte) int {
	n := bytes.Count(text, []byte{'\n'})
	if len(text) > 0 && text[len(text)-1] != '\n' {
		n++
	}
	return n
}

// lineParser is the one CSV line grammar. Each goroutine parsing lines
// has its own, for the fields scratch.
type lineParser struct {
	sep    []byte
	cols   []int
	ignore bool
	fields [][]byte
}

// parse reads the selected columns of line, the line-th of the input, into
// row (one value per column) and reports whether it is a row; a blank line
// is none.
func (p *lineParser) parse(row []float64, line []byte, num int) (bool, error) {
	if p.fields = splitLine(p.fields[:0], line, p.sep); len(p.fields) == 0 {
		return false, nil
	}
	for i, c := range p.cols {
		if c >= len(p.fields) {
			return true, fmt.Errorf("dataset: line %d has %d fields, need column %d", num, len(p.fields), c)
		}
		v, err := parseField(p.fields[c])
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("non-finite value %v", v)
		}
		if err != nil {
			if !p.ignore {
				return true, fmt.Errorf("dataset: line %d column %d: %v", num, c, err)
			}
			v = 0
		}
		row[i] = v
	}
	return true, nil
}

// parseBlock parses b's lines into b.out, sized from their count, and
// stops at the first error.
func (p *lineParser) parseBlock(b *block) {
	dim := len(p.cols)
	b.out = make([]float64, 0, b.lines*dim)
	text, line := b.text, b.line
	for len(text) > 0 {
		var l []byte
		l, text = cutLine(text)
		line++
		n := len(b.out)
		isRow, err := p.parse(b.out[n:n+dim], l, line)
		if err != nil {
			b.err = err
			return
		}
		if isRow {
			b.out = b.out[:n+dim]
		}
	}
}

// splitLine appends to dst the fields of line split on sep, each one
// trimmed, exactly as strings.Split(strings.TrimSpace(line), sep) with
// strings.TrimSpace on every field would, without allocating; a blank line
// yields none.
func splitLine(dst [][]byte, line, sep []byte) [][]byte {
	if line = bytes.TrimSpace(line); len(line) == 0 {
		return dst
	}
	for {
		f, rest, ok := bytes.Cut(line, sep)
		dst = append(dst, bytes.TrimSpace(f))
		if !ok {
			return dst
		}
		line = rest
	}
}

// WriteCSV writes the dataset as comma-separated text, the inverse of
// LoadCSV. Only the CSV round-trip tests call it.
func WriteCSV(w io.Writer, ds *metric.Dataset) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < ds.N; i++ {
		p := ds.At(i)
		for j, v := range p {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
