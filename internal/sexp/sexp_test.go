package sexp

import (
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

func TestInternIdentity(t *testing.T) {
	a := Intern("foo")
	b := Intern("foo")
	if a != b {
		t.Fatalf("Intern not idempotent: %p vs %p", a, b)
	}
	if Intern("foo") == Intern("bar") {
		t.Fatalf("distinct names interned to same symbol")
	}
}

func TestGensymUnique(t *testing.T) {
	a := Gensym("f")
	b := Gensym("f")
	if a == b {
		t.Fatalf("gensyms not unique")
	}
	if a == Intern(a.Name) {
		t.Fatalf("gensym is interned")
	}
}

func TestReadAtoms(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"foo", "foo"},
		{"FOO", "foo"}, // downcasing
		{"42", "42"},
		{"-17", "-17"},
		{"+5", "5"},
		{"3.0", "3.0"},
		{"0.159154943", "0.159154943"},
		{"1e3", "1000.0"},
		{"-2.5e-2", "-0.025"},
		{"1/2", "1/2"},
		{"4/2", "2"},
		{"-3/6", "-1/2"},
		{"123456789012345678901234567890", "123456789012345678901234567890"},
		{`"hi\nthere"`, `"hi\nthere"`},
		{"#\\a", "#\\a"},
		{"#\\space", "#\\space"},
		{"1+", "1+"}, // symbol, not number
		{"-", "-"},
		{"...", "..."},
	}
	for _, c := range cases {
		v, err := ReadOne(c.in)
		if err != nil {
			t.Errorf("ReadOne(%q): %v", c.in, err)
			continue
		}
		if got := Print(v); got != c.want {
			t.Errorf("ReadOne(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestReadLists(t *testing.T) {
	cases := []struct{ in, want string }{
		{"(a b c)", "(a b c)"},
		{"( a  b  c )", "(a b c)"},
		{"(a . b)", "(a . b)"},
		{"(a b . c)", "(a b . c)"},
		{"()", "nil"},
		{"'x", "'x"},
		{"#'car", "#'car"},
		{"(quote (1 2))", "'(1 2)"},
		{"((lambda (x) x) 3)", "((lambda (x) x) 3)"},
		{"#(1 2 3)", "#(1 2 3)"},
		{"(a ; comment\n b)", "(a b)"},
		{"(a #| block |# b)", "(a b)"},
		{"`(a ,b ,@c)", "(quasiquote (a (unquote b) (unquote-splicing c)))"},
	}
	for _, c := range cases {
		v, err := ReadOne(c.in)
		if err != nil {
			t.Errorf("ReadOne(%q): %v", c.in, err)
			continue
		}
		if got := Print(v); got != c.want {
			t.Errorf("ReadOne(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{"(a b", ")", "'", `"abc`, "(a . )", "(a . b c)", "#\\toolong", "#|x", "(. x)"}
	for _, in := range bad {
		if v, err := ReadOne(in); err == nil {
			t.Errorf("ReadOne(%q) succeeded with %s, want error", in, Print(v))
		}
	}
	// Trailing junk.
	if _, err := ReadOne("a b"); err == nil {
		t.Errorf("ReadOne(\"a b\") should fail on trailing form")
	}
}

func TestReadAll(t *testing.T) {
	vs, err := ReadAll("(defun f (x) x) (f 3) ; done\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("got %d forms, want 2", len(vs))
	}
}

func TestSyntaxErrorLine(t *testing.T) {
	_, err := ReadAll("(a)\n(b\n")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want *SyntaxError, got %T: %v", err, err)
	}
	if se.Line < 2 {
		t.Errorf("error line = %d, want >= 2", se.Line)
	}
	if !strings.Contains(se.Error(), "line") {
		t.Errorf("error text should mention line: %q", se.Error())
	}
}

func TestPrintReadRoundTrip(t *testing.T) {
	forms := []string{
		"(defun quadratic (a b c) (let ((d (- (* b b) (* 4.0 a c)))) d))",
		"(a (b (c (d))) . e)",
		"#(1 (2 3) \"s\")",
		"'(1 2/3 4.5)",
	}
	for _, f := range forms {
		v1 := mustRead(f)
		v2 := mustRead(Print(v1))
		if !Equal(v1, v2) {
			t.Errorf("round trip failed for %q: %s vs %s", f, Print(v1), Print(v2))
		}
	}
}

func TestEqEqlEqual(t *testing.T) {
	if !Eq(Intern("a"), Intern("a")) {
		t.Error("eq symbols")
	}
	if Eq(NewCons(Nil, Nil), NewCons(Nil, Nil)) {
		t.Error("distinct conses are not eq")
	}
	if !Eql(Fixnum(3), Fixnum(3)) {
		t.Error("eql fixnums")
	}
	if Eql(Fixnum(3), Flonum(3)) {
		t.Error("eql across types must be false")
	}
	if !Eql(Flonum(3.5), Flonum(3.5)) {
		t.Error("eql flonums")
	}
	big1 := &Bignum{X: big.NewInt(7)}
	if !Eql(big1, Fixnum(7)) || !Eql(Fixnum(7), big1) {
		t.Error("eql fixnum/bignum of same value")
	}
	if !Equal(mustRead("(1 (2) 3)"), mustRead("(1 (2) 3)")) {
		t.Error("equal lists")
	}
	if Equal(mustRead("(1 2)"), mustRead("(1 3)")) {
		t.Error("unequal lists")
	}
	if !Equal(String("ab"), String("ab")) {
		t.Error("equal strings")
	}
}

func TestArithmeticBasics(t *testing.T) {
	type tc struct {
		op   func(a, b Value) (Value, error)
		a, b string
		want string
	}
	cases := []tc{
		{Add, "1", "2", "3"},
		{Add, "1", "2.5", "3.5"},
		{Add, "1/2", "1/3", "5/6"},
		{Add, "1/2", "1/2", "1"},
		{Sub, "10", "4", "6"},
		{Mul, "6", "7", "42"},
		{Mul, "2/3", "3/2", "1"},
		{Div, "1", "3", "1/3"},
		{Div, "6", "3", "2"},
		{Div, "1.0", "4", "0.25"},
		{Mod, "7", "3", "1"},
		{Mod, "-7", "3", "2"},
		{Rem, "-7", "3", "-1"},
		{Max, "3", "4.0", "4.0"},
		{Min, "3", "4.0", "3"},
	}
	for _, c := range cases {
		got, err := c.op(mustRead(c.a), mustRead(c.b))
		if err != nil {
			t.Errorf("(%s %s): %v", c.a, c.b, err)
			continue
		}
		if Print(got) != c.want {
			t.Errorf("op(%s,%s) = %s want %s", c.a, c.b, Print(got), c.want)
		}
	}
}

func TestFixnumOverflowPromotes(t *testing.T) {
	v, err := Add(Fixnum(math.MaxInt64), Fixnum(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.(*Bignum); !ok {
		t.Fatalf("overflowing add = %T %s, want bignum", v, Print(v))
	}
	v2, err := Mul(Fixnum(math.MaxInt64), Fixnum(math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(big.NewInt(math.MaxInt64), big.NewInt(math.MaxInt64))
	if Print(v2) != want.String() {
		t.Fatalf("big multiply wrong: %s", Print(v2))
	}
	// And demotion back down.
	v3, err := Sub(v, Fixnum(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v3.(Fixnum); !ok {
		t.Fatalf("bignum-1 should demote to fixnum, got %T", v3)
	}
}

func TestDivisionModes(t *testing.T) {
	cases := []struct {
		mode   DivMode
		a, b   int64
		q, rem int64
	}{
		{DivFloor, 7, 2, 3, 1},
		{DivFloor, -7, 2, -4, 1},
		{DivCeiling, 7, 2, 4, -1},
		{DivTruncate, -7, 2, -3, -1},
		{DivRound, 7, 2, 4, -1}, // 3.5 rounds to even 4
		{DivRound, 5, 2, 2, 1},  // 2.5 rounds to even 2
		{DivRound, -5, 2, -2, -1},
	}
	for _, c := range cases {
		q, r, err := IntDiv(c.mode, Fixnum(c.a), Fixnum(c.b))
		if err != nil {
			t.Fatal(err)
		}
		if q != Value(Fixnum(c.q)) || r != Value(Fixnum(c.rem)) {
			t.Errorf("IntDiv(%v,%d,%d) = %s,%s want %d,%d",
				c.mode, c.a, c.b, Print(q), Print(r), c.q, c.rem)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	if _, err := Div(Fixnum(1), Fixnum(0)); err == nil {
		t.Error("exact division by zero should fail")
	}
	if v, err := Div(Flonum(1), Fixnum(0)); err != nil {
		t.Errorf("float division by zero should give Inf: %v", err)
	} else if f, _ := ToFloat(v); !math.IsInf(f, 1) {
		t.Errorf("1.0/0 = %v, want +Inf", v)
	}
	if _, _, err := IntDiv(DivFloor, Fixnum(1), Fixnum(0)); err == nil {
		t.Error("floor by zero should fail")
	}
}

func TestNonNumericArithmetic(t *testing.T) {
	if _, err := Add(Intern("x"), Fixnum(1)); err == nil {
		t.Error("adding symbol should fail")
	}
	if _, err := Compare(Fixnum(1), String("s")); err == nil {
		t.Error("comparing string should fail")
	}
	if _, err := Oddp(Flonum(1.5)); err == nil {
		t.Error("oddp of flonum should fail")
	}
}

func TestPredicates(t *testing.T) {
	check := func(name string, got bool, err error, want bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s = %v want %v", name, got, want)
		}
	}
	z, err := Zerop(Fixnum(0))
	check("zerop 0", z, err, true)
	z, err = Zerop(Flonum(0))
	check("zerop 0.0", z, err, true)
	o, err := Oddp(Fixnum(3))
	check("oddp 3", o, err, true)
	e, err := Evenp(Fixnum(3))
	check("evenp 3", e, err, false)
	p, err := Plusp(mustRead("1/2"))
	check("plusp 1/2", p, err, true)
	m, err := Minusp(mustRead("-3"))
	check("minusp -3", m, err, true)
}

// Oddp and Evenp answer fixnums without building a big.Int, and agree
// with the big.Int parity they fall back to for bignums.
func TestParityFixnumFastPath(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 2, -3, math.MaxInt64, math.MinInt64} {
		odd, err := Oddp(Fixnum(n))
		even, err2 := Evenp(Fixnum(n))
		if err != nil || err2 != nil {
			t.Fatalf("%d: %v %v", n, err, err2)
		}
		if want := big.NewInt(n).Bit(0) == 1; odd != want || even == want {
			t.Errorf("%d: oddp=%v evenp=%v, want oddp=%v", n, odd, even, want)
		}
	}
	if a := testing.AllocsPerRun(100, func() { Oddp(Fixnum(-7)); Evenp(Fixnum(8)) }); a != 0 {
		t.Errorf("fixnum parity allocates %v times per call pair", a)
	}
}

// Property: integer addition over fixnums agrees with big.Int arithmetic
// regardless of overflow.
func TestAddMatchesBigInt(t *testing.T) {
	f := func(a, b int64) bool {
		got, err := Add(Fixnum(a), Fixnum(b))
		if err != nil {
			return false
		}
		want := new(big.Int).Add(big.NewInt(a), big.NewInt(b))
		return Print(got) == want.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for integers and floor mode, a = q*b + r and 0 <= r < |b|.
func TestFloorDivInvariant(t *testing.T) {
	f := func(a int64, b int32) bool {
		if b == 0 {
			return true
		}
		q, r, err := IntDiv(DivFloor, Fixnum(a), Fixnum(int64(b)))
		if err != nil {
			return false
		}
		qb, err := Mul(q, Fixnum(int64(b)))
		if err != nil {
			return false
		}
		sum, err := Add(qb, r)
		if err != nil {
			return false
		}
		eq, err := NumEqual(sum, Fixnum(a))
		if err != nil || !eq {
			return false
		}
		ri, err := ToInt64(r)
		if err != nil {
			return false
		}
		ab := int64(b)
		if ab < 0 {
			ab = -ab
		}
		if int64(b) > 0 {
			return ri >= 0 && ri < ab
		}
		return ri <= 0 && -ri < ab
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Print/Read round-trips fixnums and flonums.
func TestNumberRoundTrip(t *testing.T) {
	fi := func(a int64) bool {
		v := mustRead(Print(Fixnum(a)))
		return Eql(v, Fixnum(a))
	}
	if err := quick.Check(fi, nil); err != nil {
		t.Error(err)
	}
	fl := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		v, err := ReadOne(Print(Flonum(a)))
		if err != nil {
			return false
		}
		got, err := ToFloat(v)
		if err != nil {
			return false
		}
		// %g keeps enough digits for approximate round trip; require
		// close agreement rather than bit equality.
		if a == 0 {
			return got == 0
		}
		return math.Abs(got-a) <= 1e-9*math.Abs(a)
	}
	if err := quick.Check(fl, nil); err != nil {
		t.Error(err)
	}
}

func TestListHelpers(t *testing.T) {
	l := List(Fixnum(1), Fixnum(2), Fixnum(3))
	if Length(l) != 3 {
		t.Errorf("Length = %d", Length(l))
	}
	s, err := ListToSlice(l)
	if err != nil || len(s) != 3 {
		t.Fatalf("ListToSlice: %v %v", s, err)
	}
	if Length(NewCons(Nil, Fixnum(1))) != -1 {
		t.Error("dotted list should have Length -1")
	}
	if _, err := ListToSlice(NewCons(Nil, Fixnum(1))); err == nil {
		t.Error("ListToSlice of dotted list should fail")
	}
	if Length(Nil) != 0 {
		t.Error("Length nil = 0")
	}
}

func TestTruthy(t *testing.T) {
	if Truthy(Nil) {
		t.Error("nil is false")
	}
	if !Truthy(Fixnum(0)) {
		t.Error("0 is true in Lisp")
	}
	if Bool(true) != Value(T) || Bool(false) != Value(Nil) {
		t.Error("Bool conversion")
	}
}

// mustRead parses one form, panicking on error — a test-table
// convenience; the production reader paths all return errors.
func mustRead(src string) Value {
	v, err := ReadOne(src)
	if err != nil {
		panic(err)
	}
	return v
}
