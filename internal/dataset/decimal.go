package dataset

import "strconv"

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// ExactDecimal returns the decimal whose digits, read without the point,
// form the integer m and of which frac follow the point, negated when neg,
// and reports whether that float64 is provably strconv.ParseFloat's answer.
// digits counts every digit; m must hold the first min(digits, 19) of them.
//
// When digits ≤ 19, m ≤ 2^53 and frac ≤ 22, both float64(m) and 10^frac
// are exact, so the one correctly rounded division float64(m) / 10^frac is
// the correctly rounded decimal (Clinger, "How to Read Floating Point
// Numbers Accurately", PLDI 1990). Otherwise it reports false and the
// caller parses with strconv.ParseFloat. The CSV loader and the server's
// request codec both take this step; each scans its own grammar.
func ExactDecimal(neg bool, m uint64, digits, frac int) (float64, bool) {
	if digits > 19 || m > 1<<53 || frac >= len(pow10) {
		return 0, false
	}
	f := float64(m) / pow10[frac]
	if neg {
		f = -f
	}
	return f, true
}

// parseField parses one trimmed CSV field exactly as strconv.ParseFloat
// does: a field of the form -?digits(.digits)? takes ExactDecimal's step
// when it can, and everything else goes to ParseFloat, whose error names
// the field.
func parseField(f []byte) (float64, error) {
	if v, ok := parseDecimal(f); ok {
		return v, nil
	}
	return strconv.ParseFloat(string(f), 64)
}

// parseDecimal is parseField's fast path. It reports false for anything
// outside -?digits(.digits)? and for what ExactDecimal cannot take.
func parseDecimal(f []byte) (float64, bool) {
	i := 0
	neg := len(f) > 0 && f[0] == '-'
	if neg {
		i++
	}
	var m uint64
	digits, frac, point := 0, 0, -1
	for ; i < len(f); i++ {
		c := f[i]
		switch {
		case '0' <= c && c <= '9':
			if digits < 19 {
				m = m*10 + uint64(c-'0')
			}
			digits++
		case c == '.' && point < 0 && digits > 0:
			point = digits
		default:
			return 0, false
		}
	}
	if point >= 0 {
		if frac = digits - point; frac == 0 {
			return 0, false
		}
	} else if digits == 0 {
		return 0, false
	}
	return ExactDecimal(neg, m, digits, frac)
}
