package sexp

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
)

// refParseNumber is the reader's number parser as it was before the
// strconv fast path: every integer through big.Int.SetString, every
// float through fmt.Sscanf. The fast path must agree with it exactly.
func refParseNumber(tok string) (Value, bool) {
	if tok == "" || tok == "+" || tok == "-" || tok == "." || tok == "..." {
		return nil, false
	}
	body := tok
	if body[0] == '+' || body[0] == '-' {
		body = body[1:]
		if body == "" {
			return nil, false
		}
	}
	if !strings.ContainsAny(body[:1], "0123456789.") {
		return nil, false
	}
	if i := strings.IndexByte(tok, '/'); i > 0 {
		num, ok1 := new(big.Int).SetString(tok[:i], 10)
		den, ok2 := new(big.Int).SetString(tok[i+1:], 10)
		if !ok1 || !ok2 || den.Sign() == 0 {
			return nil, false
		}
		return normRat(new(big.Rat).SetFrac(num, den)), true
	}
	if x, ok := new(big.Int).SetString(tok, 10); ok {
		return normBig(x), true
	}
	if strings.ContainsAny(tok, ".eE") {
		var f float64
		if _, err := fmt.Sscanf(tok, "%g", &f); err == nil {
			if isFloatToken(tok) {
				return Flonum(f), true
			}
		}
	}
	return nil, false
}

// sameNumber compares parse results by type and printed value, and
// flonums by bit pattern so -0.0 and 0.0 differ.
func sameNumber(a Value, aok bool, b Value, bok bool) bool {
	if aok != bok {
		return false
	}
	if !aok {
		return true
	}
	if fa, ok := a.(Flonum); ok {
		fb, ok := b.(Flonum)
		return ok && math.Float64bits(float64(fa)) == math.Float64bits(float64(fb))
	}
	return fmt.Sprintf("%T", a) == fmt.Sprintf("%T", b) && Print(a) == Print(b)
}

func TestParseNumberTable(t *testing.T) {
	cases := []struct {
		tok  string
		want string // printed value; "" = reads as a symbol
		typ  string // %T of the value
	}{
		{"0", "0", "sexp.Fixnum"},
		{"-17", "-17", "sexp.Fixnum"},
		{"+42", "42", "sexp.Fixnum"},
		{"007", "7", "sexp.Fixnum"},
		{"9223372036854775807", "9223372036854775807", "sexp.Fixnum"},
		{"-9223372036854775808", "-9223372036854775808", "sexp.Fixnum"},
		{"9223372036854775808", "9223372036854775808", "*sexp.Bignum"},
		{"-99999999999999999999", "-99999999999999999999", "*sexp.Bignum"},
		{"4/2", "2", "sexp.Fixnum"},
		{"1/3", "1/3", "*sexp.Ratio"},
		{"-6/4", "-3/2", "*sexp.Ratio"},
		{"1/0", "", ""},
		{"1.5", "1.5", "sexp.Flonum"},
		{"1.5e3", "1500.0", "sexp.Flonum"},
		{".5", "0.5", "sexp.Flonum"},
		{"1.", "1.0", "sexp.Flonum"},
		{"1e5", "100000.0", "sexp.Flonum"},
		{"1e-400", "0.0", "sexp.Flonum"},
		{"-0.0", "-0.0", "sexp.Flonum"},
		{"1e400", "", ""},
		{"-1e400", "", ""},
		{"1.2.3", "", ""},
		{"2a", "", ""},
		{"0x10", "", ""},
		{"1_000", "", ""},
		{"1e", "", ""},
		{"1e+", "", ""},
		{".e5", "", ""},
		{"inf", "", ""},
		{"+", "", ""},
		{"...", "", ""},
	}
	for _, c := range cases {
		v, ok := parseNumber(c.tok)
		if c.want == "" {
			if ok {
				t.Errorf("%q read as number %s, want a symbol", c.tok, Print(v))
			}
		} else if !ok {
			t.Errorf("%q read as a symbol, want %s", c.tok, c.want)
		} else if got, typ := Print(v), fmt.Sprintf("%T", v); got != c.want || typ != c.typ {
			t.Errorf("%q = %s (%s), want %s (%s)", c.tok, got, typ, c.want, c.typ)
		}
		if f, ok := v.(Flonum); ok && c.tok == "-0.0" && !math.Signbit(float64(f)) {
			t.Errorf("-0.0 lost its sign")
		}
		rv, rok := refParseNumber(c.tok)
		if !sameNumber(v, ok, rv, rok) {
			t.Errorf("%q: fast path %v,%t differs from reference %v,%t", c.tok, v, ok, rv, rok)
		}
	}
}

// FuzzParseNumber checks the strconv fast path against the reference
// parser on arbitrary tokens.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{"0", "-12", "9223372036854775808", "1/2", "4/-2", "1.5e3",
		"1e-400", "1e400", "-0.0", "1.2.3", "0x10", "1_000", ".e5", "1e+", "+.5", "1.e5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		v, ok := parseNumber(tok)
		rv, rok := refParseNumber(tok)
		if !sameNumber(v, ok, rv, rok) {
			t.Fatalf("%q: fast path %v,%t differs from reference %v,%t", tok, v, ok, rv, rok)
		}
	})
}
