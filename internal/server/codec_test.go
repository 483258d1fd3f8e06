package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"testing"

	"kcenter/internal/rng"
)

// slabBatch builds a decoded batch from rows, as the fallback decode does.
func slabBatch(rows [][]float64) *pointBatch {
	b := new(pointBatch)
	b.fill(rows)
	return b
}

// checkDecodeOracle is the differential oracle behind FuzzDecodeIngest and
// FuzzDecodeAssign: the codec must accept or reject body exactly as
// json.Unmarshal does, with the same error text, and when it accepts, its
// points must equal encoding/json's bit for bit and its tenant must match.
func checkDecodeOracle(t *testing.T, body []byte) {
	t.Helper()
	var want ingestRequest
	wantErr := json.Unmarshal(body, &want)
	b := getBatch()
	defer putBatch(b)
	gotErr := b.decode(body)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("decode %q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if b.tenant != want.Tenant {
		t.Fatalf("decode %q: tenant %q, want %q", body, b.tenant, want.Tenant)
	}
	got := b.ragged
	if got == nil {
		got = make([][]float64, b.ds.N)
		for i := range got {
			got[i] = b.ds.At(i)
		}
	}
	if len(got) != len(want.Points) {
		t.Fatalf("decode %q: %d points, want %d", body, len(got), len(want.Points))
	}
	for i, p := range want.Points {
		if len(got[i]) != len(p) {
			t.Fatalf("decode %q: point %d has %d coordinates, want %d", body, i, len(got[i]), len(p))
		}
		for j, v := range p {
			if math.Float64bits(got[i][j]) != math.Float64bits(v) {
				t.Fatalf("decode %q: point %d coordinate %d is %v (%#x), want %v (%#x)",
					body, i, j, got[i][j], math.Float64bits(got[i][j]), v, math.Float64bits(v))
			}
		}
	}
}

// fallbackShapes are bodies outside the fast path's shape: each must take
// the encoding/json fallback. fastShapes are edge cases inside it. The fuzz
// targets seed their corpora with both, so plain `go test` runs the
// differential oracle on every one of them.
var (
	fallbackShapes = []string{
		`{"Points":[[1,2]]}`,
		`{"points":[[1,2]],"points":[[3,4]]}`,
		`{"tenant":"a","tenant":"b","points":[[1,2]]}`,
		`{"points":[[1,2]],"tenant":"tén"}`,
		`{"points":[[1,2]],"tenant":"t\u0031"}`,
		`{"points":[[1,2]],"tenant":null}`,
		`{"points":[[1,2]],"extra":1}`,
		`{"points":null}`,
		`{"points":[[1,2],[]]}`,
		`{"points":[[1,2],[3]]}`,
		`{"points":[[1,2],null]}`,
		`{"points":[[1e400,2]]}`,
		`{"points":[[-1e400,2]]}`,
		`{"points":[[01,2]]}`,
		`{"points":[[1.,2]]}`,
		`{"points":[[.5,2]]}`,
		`{"points":[[+1,2]]}`,
		`{"points":[[1,2]]} x`,
		`{"points":[[1,2]],}`,
		`{"points":[[1,2],]}`,
		`null`,
		`[]`,
	}
	fastShapes = []string{
		`{"tenant":"t1","points":[[1,2]]}`,
		`{"points":[[1,2]],"tenant":"t1"}`,
		`{"points":[[-0,0],[-0.0,1]]}`,
		`{"points":[[0.30000000000000004,1.2345678901234567e-7]]}`,
		`{"points":[[9007199254740993,9007199254740992]]}`,
		`{"points":[[1.5E3,2e-3,-4E+2]]}`,
		" \t\n{ \"tenant\" : \"t1\" ,\r\n \"points\" : [ [ 1 , 2 ] , [3,4] ] } \n",
		`{"points":[[1e-400,0.1234]]}`,
		`{"points":[[123456789012345678901234567890,0.00000000000000000000000001]]}`,
		`{"points":[]}`,
		`{}`,
	}
)

// TestDecodeFastPathCovers pins which bodies the scanner accepts: the
// shapes real clients send must not silently fall back to encoding/json.
func TestDecodeFastPathCovers(t *testing.T) {
	pts := genPoints(64, 5)
	marshalled, _ := json.Marshal(ingestRequest{Points: pts, Tenant: "t-1"})
	quantized := []byte(`{"points":[`)
	for i, p := range pts {
		if i > 0 {
			quantized = append(quantized, ',')
		}
		quantized = append(quantized, '[')
		quantized = strconv.AppendFloat(quantized, p[0], 'f', 4, 64)
		quantized = append(quantized, ',')
		quantized = strconv.AppendFloat(quantized, p[1], 'f', 4, 64)
		quantized = append(quantized, ']')
	}
	quantized = append(quantized, "]}"...)
	checkDecodeOracle(t, marshalled)
	checkDecodeOracle(t, quantized)
	b := new(pointBatch)
	for _, s := range append([]string{string(marshalled), string(quantized)}, fastShapes...) {
		if !b.scan([]byte(s)) {
			t.Errorf("fast path rejected %.80q", s)
		}
	}
	for _, s := range fallbackShapes {
		if b.scan([]byte(s)) {
			t.Errorf("fast path accepted %q, which needs encoding/json", s)
		}
	}
}

// TestParseNumberMatchesParseFloat: every decimal the benchmark clients and
// encoding/json send parses to ParseFloat's exact bits.
func TestParseNumberMatchesParseFloat(t *testing.T) {
	r := rng.New(17)
	var buf []byte
	for i := 0; i < 200000; i++ {
		x := (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(30)-12))
		buf = buf[:0]
		switch i % 3 {
		case 0:
			buf = strconv.AppendFloat(buf, x, 'f', r.Intn(10), 64)
		case 1:
			buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
		default:
			buf = strconv.AppendFloat(buf, x, 'e', r.Intn(17), 64)
		}
		want, err := strconv.ParseFloat(string(buf), 64)
		got, end, ok := parseNumber(buf, 0)
		if err != nil || !ok || end != len(buf) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseNumber(%s) = %v (%v, end %d), ParseFloat = %v (%v)", buf, got, ok, end, want, err)
		}
	}
}

// TestReplyEncodersMatchEncodingJSON: the append encoders write exactly
// what json.NewEncoder(w).Encode writes — headers, status and body — over
// random replies, including floats in encoding/json's 'e' range, zero,
// large counters, and non-finite values (where encoding/json decides).
func TestReplyEncodersMatchEncodingJSON(t *testing.T) {
	r := rng.New(23)
	special := []float64{0, 1e-7, 3e21, 1e-6, 1e21, 9.999999999999999e-7, 123.456, 5e-324,
		math.MaxFloat64, math.Inf(1), math.NaN()}
	pick := func() float64 {
		if r.Intn(3) == 0 {
			return special[r.Intn(len(special))]
		}
		return r.Float64() * math.Pow(10, float64(r.Intn(50)-25))
	}
	for iter := 0; iter < 2000; iter++ {
		m := snapshotMeta{
			Version:    r.Uint64(),
			Centers:    r.Intn(100),
			Radius:     pick(),
			LowerBound: pick(),
			Ingested:   int64(r.Uint64() >> 1),
		}
		n := 1 + r.Intn(20)
		rs := getReply(n)
		for i := range rs.centers {
			rs.centers[i] = r.Intn(1 << 20)
			d := pick()
			rs.sqDists[i] = d * d
			if iter%100 == 0 && i == 0 {
				rs.sqDists[i] = math.Inf(1)
			}
		}
		got := httptest.NewRecorder()
		writeAssign(got, rs, m)
		resp := assignResponse{Snapshot: m}
		for i, c := range rs.centers {
			resp.Assignments = append(resp.Assignments, assignment{Center: c, Distance: math.Sqrt(rs.sqDists[i])})
		}
		want := httptest.NewRecorder()
		writeJSON(want, 200, resp)
		sameResponse(t, "assign", got, want)
		putReply(rs)

		ack := ingestResponse{Accepted: r.Intn(5000), PendingBatches: int64(r.Intn(64)), IngestedTotal: int64(r.Uint64() >> 1)}
		if iter%2 == 0 {
			ack.IngestedTotal = 0
		}
		got = httptest.NewRecorder()
		writeBody(got, 202, appendIngestAck(nil, ack))
		want = httptest.NewRecorder()
		writeJSON(want, 202, ack)
		sameResponse(t, "ingest ack", got, want)
	}
}

func sameResponse(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
		got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("%s reply differs from encoding/json:\ngot:  %d %q\nwant: %d %q",
			what, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
	}
}
