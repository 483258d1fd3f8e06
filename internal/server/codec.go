// The points codec: a fixed-schema decoder for the /v1/ingest and
// /v1/assign bodies and append-based encoders for their replies.
//
// Decoding {"points":[[x,y,...],...],"tenant":"..."} through
// encoding/json costs about ten times the shard push per point, so the
// common shape is scanned in one pass straight into a contiguous slab
// (the fixed-schema, single-pass idea of Langdale & Lemire, "Parsing
// Gigabytes of JSON per Second", VLDB J. 2019). Anything outside that
// shape — escapes, non-ASCII, unknown, repeated or case-folded keys, null,
// empty or ragged rows, numbers ParseFloat rejects, trailing bytes — is
// handed to json.Unmarshal unchanged, so every status code and error text
// is encoding/json's. FuzzDecodeIngest and FuzzDecodeAssign hold the two
// paths to bit-identical points on every input.

package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"kcenter/internal/dataset"
	"kcenter/internal/metric"
)

// pointBatch is one decoded request body. Ownership is linear: the handler
// owns it until it either hands it to the tenant's queue (the ingest worker
// recycles it after PushBatch copies the rows into the shard slabs) or
// finishes the response.
type pointBatch struct {
	// ds holds the points row-major in one pooled slab.
	ds metric.Dataset
	// ragged holds the rows instead of ds when some row is empty or the
	// rows disagree in dimension. Such a batch always fails validation,
	// which reports the offending row.
	ragged [][]float64
	// tenant is the body's optional in-band tenant name.
	tenant string
}

// Pool retention caps: outlier requests near the body byte limit must not
// park multi-MB buffers in the pools indefinitely (the pooling exists to
// make GCs rarer, so the pools drain slowly). The slab cap counts floats,
// not rows, so a high-dimensional batch is dropped back to the GC too.
const (
	maxPooledFloats    = 1 << 16
	maxPooledRows      = 1 << 13
	maxPooledBodyBytes = 1 << 20
)

// bodyBufPool recycles request-body read buffers: a per-request
// json.Decoder allocates an internal buffer that grows to the body size
// and dies with the request. Reading into a pooled buffer and decoding
// from it keeps the decode path allocation-flat. writeJSON and /metrics
// render their replies into these buffers too, to send them whole.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBodyBuf() *bytes.Buffer {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBodyBytes {
		bodyBufPool.Put(buf)
	}
}

var batchPool = sync.Pool{New: func() any { return new(pointBatch) }}

func getBatch() *pointBatch { return batchPool.Get().(*pointBatch) }

func putBatch(b *pointBatch) {
	if cap(b.ds.Data) > maxPooledFloats {
		return
	}
	b.ragged, b.tenant = nil, ""
	batchPool.Put(b)
}

// count is the number of points in the batch.
func (b *pointBatch) count() int {
	if b.ragged != nil {
		return len(b.ragged)
	}
	return b.ds.N
}

// decode fills b from a request body. The error is encoding/json's,
// verbatim.
func (b *pointBatch) decode(body []byte) error {
	if b.scan(body) {
		return nil
	}
	var req ingestRequest // assignRequest has the same shape
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	b.fill(req.Points)
	b.tenant = req.Tenant
	return nil
}

// fill copies rows into the slab, or keeps them as ragged when they do not
// form one.
func (b *pointBatch) fill(rows [][]float64) {
	b.ragged = nil
	data := b.ds.Data[:0]
	dim := 0
	for i, p := range rows {
		if i == 0 {
			dim = len(p)
		}
		if len(p) == 0 || len(p) != dim {
			b.ds = metric.Dataset{Data: data[:0]}
			b.ragged = rows
			return
		}
		data = append(data, p...)
	}
	b.ds = metric.Dataset{Data: data, N: len(rows), Dim: dim}
}

// scan is the fast path of decode. It accepts exactly
//
//	{ ["points": [[num, ...], ...]] [, "tenant": "plain ASCII"] }
//
// with either key order, optional JSON whitespace, non-empty rows of one
// dimension, and nothing after the closing brace. It reports false, leaving
// b for decode to refill, on anything else.
func (b *pointBatch) scan(in []byte) bool {
	b.ragged, b.tenant = nil, ""
	b.ds = metric.Dataset{Data: b.ds.Data[:0]}
	i := skipSpace(in, 0)
	if i >= len(in) || in[i] != '{' {
		return false
	}
	i = skipSpace(in, i+1)
	if i < len(in) && in[i] == '}' {
		return skipSpace(in, i+1) == len(in)
	}
	var sawPoints, sawTenant bool
	for {
		ok := false
		switch {
		case hasKey(in, i, `"points"`) && !sawPoints:
			sawPoints = true
			if i, ok = colon(in, i+len(`"points"`)); ok {
				i, ok = b.scanPoints(in, i)
			}
		case hasKey(in, i, `"tenant"`) && !sawTenant:
			sawTenant = true
			if i, ok = colon(in, i+len(`"tenant"`)); ok {
				i, ok = b.scanTenant(in, i)
			}
		}
		if !ok {
			return false
		}
		i = skipSpace(in, i)
		if i >= len(in) {
			return false
		}
		switch in[i] {
		case ',':
			i = skipSpace(in, i+1)
		case '}':
			return skipSpace(in, i+1) == len(in)
		default:
			return false
		}
	}
}

// scanPoints scans the points array starting at in[i] into the slab.
func (b *pointBatch) scanPoints(in []byte, i int) (int, bool) {
	if i >= len(in) || in[i] != '[' {
		return i, false
	}
	i = skipSpace(in, i+1)
	data := b.ds.Data[:0]
	n, dim := 0, 0
	if i < len(in) && in[i] == ']' {
		return i + 1, true
	}
	for {
		if i >= len(in) || in[i] != '[' {
			return i, false
		}
		i = skipSpace(in, i+1)
		start := len(data)
		for {
			v, j, ok := parseNumber(in, i)
			if !ok {
				return i, false
			}
			data = append(data, v)
			if i = skipSpace(in, j); i >= len(in) {
				return i, false
			}
			if in[i] == ']' {
				break
			}
			if in[i] != ',' {
				return i, false
			}
			i = skipSpace(in, i+1)
		}
		if d := len(data) - start; n == 0 {
			dim = d
		} else if d != dim {
			return i, false
		}
		n++
		if i = skipSpace(in, i+1); i >= len(in) {
			return i, false
		}
		if in[i] == ']' {
			b.ds = metric.Dataset{Data: data, N: n, Dim: dim}
			return i + 1, true
		}
		if in[i] != ',' {
			return i, false
		}
		i = skipSpace(in, i+1)
	}
}

// scanTenant scans a string of printable ASCII without escapes.
func (b *pointBatch) scanTenant(in []byte, i int) (int, bool) {
	if i >= len(in) || in[i] != '"' {
		return i, false
	}
	start := i + 1
	for i = start; i < len(in); i++ {
		switch c := in[i]; {
		case c == '"':
			b.tenant = string(in[start:i])
			return i + 1, true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return i, false
		}
	}
	return i, false
}

// parseNumber parses the JSON number starting at in[i] and returns it with
// the index just past it. It reports false when in[i:] does not start with
// a number of the JSON grammar, or when strconv.ParseFloat rejects it. A
// number with no exponent takes dataset.ExactDecimal's exact step when it
// can; every other number goes to ParseFloat.
func parseNumber(in []byte, i int) (float64, int, bool) {
	start := i
	neg := i < len(in) && in[i] == '-'
	if neg {
		i++
	}
	if i >= len(in) {
		return 0, i, false
	}
	var m uint64
	digits := 0
	switch c := in[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for ; i < len(in) && isDigit(in[i]); i++ {
			if digits < 19 {
				m = m*10 + uint64(in[i]-'0')
			}
			digits++
		}
	default:
		return 0, i, false
	}
	frac := 0
	if i < len(in) && in[i] == '.' {
		i++
		fracStart := i
		for ; i < len(in) && isDigit(in[i]); i++ {
			if digits < 19 {
				m = m*10 + uint64(in[i]-'0')
			}
			digits++
		}
		if frac = i - fracStart; frac == 0 {
			return 0, i, false
		}
	}
	exp := i < len(in) && (in[i] == 'e' || in[i] == 'E')
	if exp {
		i++
		if i < len(in) && (in[i] == '+' || in[i] == '-') {
			i++
		}
		expStart := i
		for i < len(in) && isDigit(in[i]) {
			i++
		}
		if i == expStart {
			return 0, i, false
		}
	}
	if !exp {
		if f, ok := dataset.ExactDecimal(neg, m, digits, frac); ok {
			return f, i, true
		}
	}
	f, err := strconv.ParseFloat(string(in[start:i]), 64)
	return f, i, err == nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpace returns the index of the first non-whitespace byte at or after
// i (JSON whitespace: space, tab, newline, carriage return).
func skipSpace(in []byte, i int) int {
	for i < len(in) {
		switch in[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// hasKey reports whether the quoted key starts at in[i].
func hasKey(in []byte, i int, key string) bool {
	return len(in)-i >= len(key) && string(in[i:i+len(key)]) == key
}

// colon skips the ':' after a key and the whitespace around it.
func colon(in []byte, i int) (int, bool) {
	i = skipSpace(in, i)
	if i >= len(in) || in[i] != ':' {
		return i, false
	}
	return skipSpace(in, i+1), true
}

// replyScratch is a pooled reply buffer plus the assign kernel's output
// arrays.
type replyScratch struct {
	buf     []byte
	centers []int
	sqDists []float64
}

var replyPool = sync.Pool{New: func() any { return new(replyScratch) }}

func getReply(n int) *replyScratch {
	rs := replyPool.Get().(*replyScratch)
	if cap(rs.centers) < n {
		rs.centers = make([]int, n)
		rs.sqDists = make([]float64, n)
	}
	rs.centers, rs.sqDists = rs.centers[:n], rs.sqDists[:n]
	return rs
}

func putReply(rs *replyScratch) {
	if cap(rs.buf) <= maxPooledBodyBytes && cap(rs.centers) <= maxPooledRows {
		replyPool.Put(rs)
	}
}

// writeBody writes an already encoded JSON body with writeJSON's headers
// and its Content-Length, so net/http sends it in one piece rather than
// chunked.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// appendIngestAck appends the ingest acknowledgement exactly as
// json.NewEncoder(w).Encode(ingestResponse{...}) writes it.
func appendIngestAck(b []byte, r ingestResponse) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(r.Accepted), 10)
	b = append(b, `,"pending_batches":`...)
	b = strconv.AppendInt(b, r.PendingBatches, 10)
	b = append(b, `,"ingested_total":`...)
	b = strconv.AppendInt(b, r.IngestedTotal, 10)
	return append(b, "}\n"...)
}

// appendAssignReply appends the assign reply for the kernel's outputs
// exactly as json.NewEncoder(w).Encode(assignResponse{...}) writes it,
// with each distance the square root of sqDists[i]. It reports false when
// a value is not finite, which encoding/json refuses to encode.
func appendAssignReply(b []byte, m snapshotMeta, centers []int, sqDists []float64) ([]byte, bool) {
	ok := true
	b = append(b, `{"snapshot":{"version":`...)
	b = strconv.AppendUint(b, m.Version, 10)
	b = append(b, `,"centers":`...)
	b = strconv.AppendInt(b, int64(m.Centers), 10)
	b = append(b, `,"radius":`...)
	b = appendFloat(b, m.Radius, &ok)
	b = append(b, `,"lower_bound":`...)
	b = appendFloat(b, m.LowerBound, &ok)
	b = append(b, `,"ingested":`...)
	b = strconv.AppendInt(b, m.Ingested, 10)
	b = append(b, `},"assignments":[`...)
	for i, c := range centers {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"center":`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, `,"distance":`...)
		b = appendFloat(b, math.Sqrt(sqDists[i]), &ok)
		b = append(b, '}')
	}
	return append(b, "]}\n"...), ok
}

// appendFloat appends f as encoding/json encodes a float64: shortest
// round-trip digits, in 'e' notation below 1e-6 and from 1e21 on, with a
// one-digit negative exponent unpadded. It clears *ok for NaN and ±Inf.
func appendFloat(b []byte, f float64, ok *bool) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		*ok = false
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
