package sexp

import (
	"fmt"
	"math"
	"math/big"
)

// The numeric tower. The dialect provides "integers of indefinite size,
// rational numbers, floating-point numbers … and complex numbers"; we
// implement fixnums (with silent bignum overflow), bignums, ratios and a
// single flonum precision. Generic operations apply float contagion and
// normalize exact results (bignums that fit become fixnums, ratios with
// unit denominators become integers).

// IsNumber reports whether v is any numeric type.
func IsNumber(v Value) bool {
	switch v.(type) {
	case Fixnum, *Bignum, *Ratio, Flonum:
		return true
	}
	return false
}

// IsInteger reports whether v is a fixnum or bignum.
func IsInteger(v Value) bool {
	switch v.(type) {
	case Fixnum, *Bignum:
		return true
	}
	return false
}

// normBig demotes a bignum to a fixnum when it fits.
func normBig(x *big.Int) Value {
	if x.IsInt64() {
		return Fixnum(x.Int64())
	}
	return &Bignum{X: new(big.Int).Set(x)}
}

// normRat demotes a rational to an integer when the denominator is 1.
func normRat(x *big.Rat) Value {
	if x.IsInt() {
		return normBig(x.Num())
	}
	return &Ratio{X: new(big.Rat).Set(x)}
}

func toBig(v Value) (*big.Int, bool) {
	switch x := v.(type) {
	case Fixnum:
		return big.NewInt(int64(x)), true
	case *Bignum:
		return x.X, true
	}
	return nil, false
}

func toRat(v Value) (*big.Rat, bool) {
	switch x := v.(type) {
	case Fixnum:
		return new(big.Rat).SetInt64(int64(x)), true
	case *Bignum:
		return new(big.Rat).SetInt(x.X), true
	case *Ratio:
		return x.X, true
	}
	return nil, false
}

// ToFloat converts any number to float64.
func ToFloat(v Value) (float64, error) {
	switch x := v.(type) {
	case Fixnum:
		return float64(x), nil
	case *Bignum:
		f, _ := new(big.Float).SetInt(x.X).Float64()
		return f, nil
	case *Ratio:
		f, _ := x.X.Float64()
		return f, nil
	case Flonum:
		return float64(x), nil
	}
	return 0, fmt.Errorf("sexp: %s is not a number", Print(v))
}

// ToInt64 converts an integer value to int64, failing on overflow or
// non-integers.
func ToInt64(v Value) (int64, error) {
	switch x := v.(type) {
	case Fixnum:
		return int64(x), nil
	case *Bignum:
		if x.X.IsInt64() {
			return x.X.Int64(), nil
		}
		return 0, fmt.Errorf("sexp: %s does not fit in a machine word", Print(v))
	}
	return 0, fmt.Errorf("sexp: %s is not an integer", Print(v))
}

type numErr struct{ op string }

func (e numErr) Error() string { return "sexp: " + e.op + ": non-numeric argument" }

// binop dispatches a generic binary operation with contagion
// fixnum→bignum→ratio→flonum.
func binop(op string, a, b Value,
	fi func(x, y int64) (Value, bool),
	bi func(x, y *big.Int) Value,
	ra func(x, y *big.Rat) Value,
	fl func(x, y float64) Value,
) (Value, error) {
	if !IsNumber(a) || !IsNumber(b) {
		return nil, fmt.Errorf("sexp: %s: non-numeric argument %s",
			op, Print(pickNonNumber(a, b)))
	}
	if af, aok := a.(Flonum); aok {
		bf, err := ToFloat(b)
		if err != nil {
			return nil, err
		}
		return fl(float64(af), bf), nil
	}
	if bf, bok := b.(Flonum); bok {
		af, err := ToFloat(a)
		if err != nil {
			return nil, err
		}
		return fl(af, float64(bf)), nil
	}
	if ax, aok := a.(Fixnum); aok {
		if bx, bok := b.(Fixnum); bok && fi != nil {
			if r, ok := fi(int64(ax), int64(bx)); ok {
				return r, nil
			}
		}
	}
	if ar, aok := a.(*Ratio); aok {
		br, _ := toRat(b)
		return ra(ar.X, br), nil
	}
	if br, bok := b.(*Ratio); bok {
		ar, _ := toRat(a)
		return ra(ar, br.X), nil
	}
	ax, _ := toBig(a)
	bx, _ := toBig(b)
	if bi == nil {
		ar, _ := toRat(a)
		br, _ := toRat(b)
		return ra(ar, br), nil
	}
	return bi(ax, bx), nil
}

func pickNonNumber(a, b Value) Value {
	if !IsNumber(a) {
		return a
	}
	return b
}

// Add returns a+b with contagion and overflow promotion.
func Add(a, b Value) (Value, error) {
	return binop("+", a, b,
		func(x, y int64) (Value, bool) {
			s := x + y
			if (x > 0 && y > 0 && s < 0) || (x < 0 && y < 0 && s >= 0) {
				return nil, false
			}
			return Fixnum(s), true
		},
		func(x, y *big.Int) Value { return normBig(new(big.Int).Add(x, y)) },
		func(x, y *big.Rat) Value { return normRat(new(big.Rat).Add(x, y)) },
		func(x, y float64) Value { return Flonum(x + y) })
}

// Sub returns a-b.
func Sub(a, b Value) (Value, error) {
	return binop("-", a, b,
		func(x, y int64) (Value, bool) {
			d := x - y
			if (x >= 0 && y < 0 && d < 0) || (x < 0 && y > 0 && d >= 0) {
				return nil, false
			}
			return Fixnum(d), true
		},
		func(x, y *big.Int) Value { return normBig(new(big.Int).Sub(x, y)) },
		func(x, y *big.Rat) Value { return normRat(new(big.Rat).Sub(x, y)) },
		func(x, y float64) Value { return Flonum(x - y) })
}

// Mul returns a*b.
func Mul(a, b Value) (Value, error) {
	return binop("*", a, b,
		func(x, y int64) (Value, bool) {
			if x == 0 || y == 0 {
				return Fixnum(0), true
			}
			p := x * y
			if p/y != x || (x == -1 && y == math.MinInt64) || (y == -1 && x == math.MinInt64) {
				return nil, false
			}
			return Fixnum(p), true
		},
		func(x, y *big.Int) Value { return normBig(new(big.Int).Mul(x, y)) },
		func(x, y *big.Rat) Value { return normRat(new(big.Rat).Mul(x, y)) },
		func(x, y float64) Value { return Flonum(x * y) })
}

// Div returns a/b: exact (possibly a ratio) for exact operands, flonum
// otherwise. Division by exact zero is an error.
func Div(a, b Value) (Value, error) {
	_, aFloat := a.(Flonum)
	_, bFloat := b.(Flonum)
	if !aFloat && !bFloat {
		if z, err := zeroDivisor(b); err != nil {
			return nil, err
		} else if z {
			return nil, fmt.Errorf("sexp: /: division by zero")
		}
	}
	return binop("/", a, b,
		nil,
		nil,
		func(x, y *big.Rat) Value { return normRat(new(big.Rat).Quo(x, y)) },
		func(x, y float64) Value { return Flonum(x / y) })
}

func zeroDivisor(b Value) (bool, error) {
	switch x := b.(type) {
	case Fixnum:
		return x == 0, nil
	case *Bignum:
		return x.X.Sign() == 0, nil
	case *Ratio:
		return x.X.Sign() == 0, nil
	case Flonum:
		return false, nil // IEEE semantics: produce Inf/NaN
	}
	return false, fmt.Errorf("sexp: /: non-numeric argument %s", Print(b))
}

// Neg returns -a.
func Neg(a Value) (Value, error) { return Sub(Fixnum(0), a) }

// Compare returns -1, 0 or +1 ordering a and b numerically.
func Compare(a, b Value) (int, error) {
	if !IsNumber(a) || !IsNumber(b) {
		return 0, fmt.Errorf("sexp: compare: non-numeric argument %s",
			Print(pickNonNumber(a, b)))
	}
	if _, ok := a.(Flonum); ok {
		return cmpFloat(a, b)
	}
	if _, ok := b.(Flonum); ok {
		return cmpFloat(a, b)
	}
	ar, _ := toRat(a)
	br, _ := toRat(b)
	return ar.Cmp(br), nil
}

func cmpFloat(a, b Value) (int, error) {
	x, err := ToFloat(a)
	if err != nil {
		return 0, err
	}
	y, err := ToFloat(b)
	if err != nil {
		return 0, err
	}
	switch {
	case x < y:
		return -1, nil
	case x > y:
		return 1, nil
	}
	return 0, nil
}

// NumEqual reports a = b numerically (across types, unlike Eql).
func NumEqual(a, b Value) (bool, error) {
	c, err := Compare(a, b)
	return c == 0, err
}

// Zerop reports whether v is numerically zero.
func Zerop(v Value) (bool, error) { return predInt(v, func(c int) bool { return c == 0 }) }

// Plusp reports v > 0; Minusp reports v < 0.
func Plusp(v Value) (bool, error)  { return predInt(v, func(c int) bool { return c > 0 }) }
func Minusp(v Value) (bool, error) { return predInt(v, func(c int) bool { return c < 0 }) }

func predInt(v Value, f func(int) bool) (bool, error) {
	c, err := Compare(v, Fixnum(0))
	if err != nil {
		return false, err
	}
	return f(c), nil
}

// Oddp and Evenp test integer parity.
func Oddp(v Value) (bool, error) {
	if f, ok := v.(Fixnum); ok {
		return f&1 == 1, nil
	}
	x, ok := toBig(v)
	if !ok {
		return false, fmt.Errorf("sexp: oddp: %s is not an integer", Print(v))
	}
	return x.Bit(0) == 1, nil
}

// Evenp reports whether the integer v is even.
func Evenp(v Value) (bool, error) {
	odd, err := Oddp(v)
	return !odd, err
}

// DivMode selects one of the paper's rounding modes for integer division
// ("floor, ceiling, truncate, round, mod, and rem are all primitive
// instructions" on the S-1).
type DivMode int

// Division rounding modes.
const (
	DivFloor DivMode = iota
	DivCeiling
	DivTruncate
	DivRound
)

// IntDiv divides a by b under the given rounding mode, returning quotient
// and remainder such that a = q*b + r.
func IntDiv(mode DivMode, a, b Value) (Value, Value, error) {
	if af, ok := a.(Flonum); ok {
		bf, err := ToFloat(b)
		if err != nil {
			return nil, nil, err
		}
		q := roundFloat(mode, float64(af)/bf)
		return Flonum(q), Flonum(float64(af) - q*bf), nil
	}
	if bf, ok := b.(Flonum); ok {
		af, err := ToFloat(a)
		if err != nil {
			return nil, nil, err
		}
		q := roundFloat(mode, af/float64(bf))
		return Flonum(q), Flonum(af - q*float64(bf)), nil
	}
	ax, aok := toBig(a)
	bx, bok := toBig(b)
	if !aok || !bok {
		// Exact ratios: divide, round, recompute remainder.
		ar, ok1 := toRat(a)
		br, ok2 := toRat(b)
		if !ok1 || !ok2 {
			return nil, nil, fmt.Errorf("sexp: division: non-numeric argument")
		}
		if br.Sign() == 0 {
			return nil, nil, fmt.Errorf("sexp: division by zero")
		}
		q := new(big.Rat).Quo(ar, br)
		qi := ratRound(mode, q)
		r := new(big.Rat).Sub(ar, new(big.Rat).Mul(new(big.Rat).SetInt(qi), br))
		return normBig(qi), normRat(r), nil
	}
	if bx.Sign() == 0 {
		return nil, nil, fmt.Errorf("sexp: division by zero")
	}
	q, r := new(big.Int), new(big.Int)
	switch mode {
	case DivTruncate:
		q.QuoRem(ax, bx, r)
	case DivFloor:
		q.QuoRem(ax, bx, r)
		if r.Sign() != 0 && (r.Sign() < 0) != (bx.Sign() < 0) {
			q.Sub(q, big.NewInt(1))
			r.Add(r, bx)
		}
	case DivCeiling:
		q.QuoRem(ax, bx, r)
		if r.Sign() != 0 && (r.Sign() < 0) == (bx.Sign() < 0) {
			q.Add(q, big.NewInt(1))
			r.Sub(r, bx)
		}
	case DivRound:
		q.QuoRem(ax, bx, r)
		// Round half to even.
		twice := new(big.Int).Mul(r, big.NewInt(2))
		twice.Abs(twice)
		ab := new(big.Int).Abs(bx)
		c := twice.Cmp(ab)
		if c > 0 || (c == 0 && q.Bit(0) == 1) {
			adj := big.NewInt(1)
			if (ax.Sign() < 0) != (bx.Sign() < 0) {
				adj.Neg(adj)
			}
			q.Add(q, adj)
			r.Sub(ax, new(big.Int).Mul(q, bx))
		}
	}
	return normBig(q), normBig(r), nil
}

func roundFloat(mode DivMode, x float64) float64 {
	switch mode {
	case DivFloor:
		return math.Floor(x)
	case DivCeiling:
		return math.Ceil(x)
	case DivTruncate:
		return math.Trunc(x)
	default:
		return math.RoundToEven(x)
	}
}

func ratRound(mode DivMode, q *big.Rat) *big.Int {
	f, _ := q.Float64()
	return big.NewInt(int64(roundFloat(mode, f)))
}

// Mod returns the floor-mode remainder; Rem the truncate-mode remainder.
func Mod(a, b Value) (Value, error) {
	_, r, err := IntDiv(DivFloor, a, b)
	return r, err
}

// Rem returns the truncating remainder of a/b.
func Rem(a, b Value) (Value, error) {
	_, r, err := IntDiv(DivTruncate, a, b)
	return r, err
}

// Min and Max over two numbers.
func Min(a, b Value) (Value, error) {
	c, err := Compare(a, b)
	if err != nil {
		return nil, err
	}
	if c <= 0 {
		return a, nil
	}
	return b, nil
}

// Max returns the larger of a and b.
func Max(a, b Value) (Value, error) {
	c, err := Compare(a, b)
	if err != nil {
		return nil, err
	}
	if c >= 0 {
		return a, nil
	}
	return b, nil
}

// Abs returns |a|.
func Abs(a Value) (Value, error) {
	m, err := Minusp(a)
	if err != nil {
		return nil, err
	}
	if m {
		return Neg(a)
	}
	return a, nil
}

// Float coerces any number to a flonum.
func Float(a Value) (Value, error) {
	f, err := ToFloat(a)
	return Flonum(f), err
}
