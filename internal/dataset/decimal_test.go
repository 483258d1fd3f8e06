package dataset

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// sameParse reports whether parseField and strconv.ParseFloat agree on s:
// the same bits, and the same error text or both nil.
func sameParse(s string) (float64, bool) {
	want, werr := strconv.ParseFloat(s, 64)
	got, gerr := parseField([]byte(s))
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		return got, false
	}
	return got, math.Float64bits(got) == math.Float64bits(want)
}

// TestParseFieldMatchesParseFloat: the exact decimal step and its fallback
// give ParseFloat's bits and errors on the edges of the fast path's grammar
// and of ExactDecimal's bounds; fast says which fields take the step.
func TestParseFieldMatchesParseFloat(t *testing.T) {
	for _, c := range []struct {
		in   string
		fast bool
	}{
		{"0", true}, {"-0", true}, {"-0.0", true}, {"007", true}, {"-000123.4500", true},
		{"9007199254740992", true},   // 2^53
		{"9007199254740993", false},  // 2^53 + 1
		{"-9007199254740993", false}, // its negation
		{"900719925474099.3", false}, // 2^53 + 1 with a point
		{"0.9007199254740992", true},
		{"0000000000000000001", true},   // 19 digits
		{"00000000000000000001", false}, // 20 digits
		{"0.000000000000000001", true},  // 19 digits, 18 after the point
		{"1234567890123456789", false},  // 19 digits over 2^53
		{"0.0000000000000000000001", false},
		{"0.00000000000000000000001", false},
		{"37.1234", true}, {"-0.0001", true}, {"1.5", true},
		{"1.", false}, {".5", false}, {"+1", false}, {"1e5", false}, {"1E5", false},
		{"0x1p3", false}, {"NaN", false}, {"Inf", false}, {"-Inf", false}, {"1_0", false},
		{"", false}, {"-", false}, {"--1", false}, {"-.5", false}, {"1.2.3", false},
		{" 1", false}, {"1 ", false}, {"1,5", false}, {"1e400", false}, {"4.9e-324", false},
	} {
		if _, fast := parseDecimal([]byte(c.in)); fast != c.fast {
			t.Errorf("%q: fast path %v, want %v", c.in, fast, c.fast)
		}
		if got, ok := sameParse(c.in); !ok {
			want, err := strconv.ParseFloat(c.in, 64)
			t.Errorf("%q: parseField = %v, ParseFloat = %v (%v)", c.in, got, want, err)
		}
	}
}

// TestExactDecimalBounds: ExactDecimal takes a fraction of up to 22 digits
// and a mantissa of up to 2^53, and declines beyond either.
func TestExactDecimalBounds(t *testing.T) {
	for _, c := range []struct {
		m      uint64
		digits int
		frac   int
		ok     bool
	}{
		{12345, 5, 22, true}, {12345, 5, 23, false},
		{1 << 53, 16, 3, true}, {1<<53 + 1, 16, 3, false},
		{1, 19, 0, true}, {1, 20, 0, false},
	} {
		for _, neg := range []bool{false, true} {
			got, ok := ExactDecimal(neg, c.m, c.digits, c.frac)
			if ok != c.ok {
				t.Errorf("ExactDecimal(%v, %d, %d, %d) ok = %v, want %v", neg, c.m, c.digits, c.frac, ok, c.ok)
				continue
			}
			s := strconv.FormatUint(c.m, 10) + "e-" + strconv.Itoa(c.frac)
			if neg {
				s = "-" + s
			}
			if want, _ := strconv.ParseFloat(s, 64); ok && math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("ExactDecimal on %s = %v, ParseFloat = %v", s, got, want)
			}
		}
	}
}

// TestQuickParseFieldMatchesParseFloat: random decimals of up to 19 digits,
// with leading zeros, any point position and either sign, parse to
// ParseFloat's bits; most of them take the exact step.
func TestQuickParseFieldMatchesParseFloat(t *testing.T) {
	fast, total := 0, 0
	f := func(m uint64, n, point uint8, neg bool) bool {
		digits := 1 + int(n)%19
		s := strconv.FormatUint(m%uint64(math.Pow10(digits)), 10)
		s = strings.Repeat("0", digits-len(s)) + s
		if p := 1 + int(point)%digits; p < digits {
			s = s[:p] + "." + s[p:]
		}
		if neg {
			s = "-" + s
		}
		total++
		if _, ok := parseDecimal([]byte(s)); ok {
			fast++
		}
		_, ok := sameParse(s)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
	if fast < total/2 {
		t.Fatalf("only %d of %d decimals took the exact step", fast, total)
	}
}
