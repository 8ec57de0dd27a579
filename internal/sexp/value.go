// Package sexp implements the S-expression data layer of the S-1 Lisp
// reproduction: interned symbols, the numeric tower (fixnums with bignum
// overflow, ratios, flonums), conses, strings and vectors, together with a
// reader and printer.
//
// The dialect follows the paper (Brooks, Gabriel & Steele, "An Optimizing
// Compiler for Lexically Scoped LISP", 1982): all values are conceptually
// pointers to typed objects; types live on objects, not variables.
package sexp

import (
	"fmt"
	"hash/fnv"
	"math/big"
	"strings"
	"sync"
)

// Value is any Lisp datum. The concrete types are *Symbol, Fixnum, *Bignum,
// *Ratio, Flonum, String, Character, *Cons, *Vector. The empty list / false
// value NIL is the distinguished symbol Nil.
type Value interface {
	// write appends the printed representation to b.
	Write(b *strings.Builder)
}

// Symbol is an interned Lisp symbol. Two symbols with the same name read in
// the same package are identical pointers, so eq-ness is Go pointer
// equality.
type Symbol struct {
	Name string
}

func (s *Symbol) Write(b *strings.Builder) { b.WriteString(s.Name) }

// String returns the symbol's name.
func (s *Symbol) String() string { return s.Name }

// The intern table is sharded by name hash: concurrent compilation
// workers intern constantly (every symbol the optimizer's compile-time
// evaluator touches goes through here), and a single mutex would
// serialize them. Lookups of existing symbols — the overwhelmingly common
// case — take only a shard's read lock.
const internShards = 32

type internShard struct {
	mu sync.RWMutex
	m  map[string]*Symbol
}

var interned = func() [internShards]*internShard {
	var t [internShards]*internShard
	for i := range t {
		t[i] = &internShard{m: map[string]*Symbol{}}
	}
	return t
}()

func internShardFor(name string) *internShard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return interned[h.Sum32()%internShards]
}

// Intern returns the unique symbol with the given name, creating it on
// first use. Symbol names are case-sensitive; the reader downcases input,
// matching the paper's lower-case source style.
func Intern(name string) *Symbol {
	sh := internShardFor(name)
	sh.mu.RLock()
	s, ok := sh.m[name]
	sh.mu.RUnlock()
	if ok {
		return s
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.m[name]; ok {
		return s
	}
	s = &Symbol{Name: name}
	sh.m[name] = s
	return s
}

// Interned reports whether s is the interned symbol of its name, not
// one Gensym made.
func (s *Symbol) Interned() bool {
	sh := internShardFor(s.Name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.m[s.Name] == s
}

// Gensym returns a fresh uninterned symbol whose name begins with prefix.
// It is used by the optimizer when it introduces functions (the f and g of
// the paper's nested-if transformation).
func Gensym(prefix string) *Symbol {
	gensymMu.Lock()
	gensymCounter++
	n := gensymCounter
	gensymMu.Unlock()
	return &Symbol{Name: fmt.Sprintf("%s%d", prefix, n)}
}

var (
	gensymMu      sync.Mutex
	gensymCounter int
)

// Distinguished symbols. Nil doubles as the empty list and boolean false;
// T is boolean truth.
var (
	Nil = Intern("nil")
	T   = Intern("t")

	SymQuote    = Intern("quote")
	SymFunction = Intern("function")
	SymLambda   = Intern("lambda")
	SymOptional = Intern("&optional")
	SymRest     = Intern("&rest")
)

// IsNil reports whether v is the empty list / false.
func IsNil(v Value) bool { return v == Value(Nil) }

// Truthy reports Lisp truth: everything except nil is true.
func Truthy(v Value) bool { return !IsNil(v) }

// Cons is a dotted pair.
type Cons struct {
	Car, Cdr Value
}

func (c *Cons) Write(b *strings.Builder) {
	// Abbreviate (quote x) as 'x and (function f) as #'f, as the paper's
	// back-translator does for readability.
	if s, ok := c.Car.(*Symbol); ok {
		if rest, ok2 := c.Cdr.(*Cons); ok2 && IsNil(rest.Cdr) {
			switch s {
			case SymQuote:
				b.WriteByte('\'')
				rest.Car.Write(b)
				return
			case SymFunction:
				b.WriteString("#'")
				rest.Car.Write(b)
				return
			}
		}
	}
	b.WriteByte('(')
	var cur Value = c
	first := true
	for {
		cc, ok := cur.(*Cons)
		if !ok {
			b.WriteString(" . ")
			cur.Write(b)
			break
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		cc.Car.Write(b)
		if IsNil(cc.Cdr) {
			break
		}
		cur = cc.Cdr
	}
	b.WriteByte(')')
}

// NewCons builds a fresh pair.
func NewCons(car, cdr Value) *Cons { return &Cons{Car: car, Cdr: cdr} }

// List builds a proper list of the arguments.
func List(items ...Value) Value {
	var out Value = Nil
	for i := len(items) - 1; i >= 0; i-- {
		out = NewCons(items[i], out)
	}
	return out
}

// ListToSlice flattens a proper list into a slice. It returns an error for
// dotted or circular-looking (overlong) lists.
func ListToSlice(v Value) ([]Value, error) {
	var out []Value
	const limit = 1 << 24
	for !IsNil(v) {
		c, ok := v.(*Cons)
		if !ok {
			return nil, fmt.Errorf("sexp: improper list (dotted tail %s)", Print(v))
		}
		out = append(out, c.Car)
		v = c.Cdr
		if len(out) > limit {
			return nil, fmt.Errorf("sexp: list too long (circular?)")
		}
	}
	return out, nil
}

// Length returns the number of elements of a proper list, or -1 if v is
// not a proper list.
func Length(v Value) int {
	n := 0
	for !IsNil(v) {
		c, ok := v.(*Cons)
		if !ok {
			return -1
		}
		n++
		v = c.Cdr
	}
	return n
}

// String is a Lisp string.
type String string

func (s String) Write(b *strings.Builder) {
	b.WriteByte('"')
	for _, r := range string(s) {
		switch r {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteRune(r)
		case '\n':
			b.WriteString("\\n")
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
}

// Character is a Lisp character, printed #\c.
type Character rune

func (c Character) Write(b *strings.Builder) {
	switch c {
	case ' ':
		b.WriteString("#\\space")
	case '\n':
		b.WriteString("#\\newline")
	case '\t':
		b.WriteString("#\\tab")
	default:
		b.WriteString("#\\")
		b.WriteRune(rune(c))
	}
}

// Vector is a simple general vector, printed #(...).
type Vector struct {
	Items []Value
}

func (v *Vector) Write(b *strings.Builder) {
	b.WriteString("#(")
	for i, it := range v.Items {
		if i > 0 {
			b.WriteByte(' ')
		}
		it.Write(b)
	}
	b.WriteByte(')')
}

// Fixnum is a machine integer. Arithmetic that overflows promotes to
// *Bignum (the dialect's "integers of indefinite size").
type Fixnum int64

func (f Fixnum) Write(b *strings.Builder) { fmt.Fprintf(b, "%d", int64(f)) }

// Bignum is an arbitrary-precision integer.
type Bignum struct {
	X *big.Int
}

func (bn *Bignum) Write(b *strings.Builder) { b.WriteString(bn.X.String()) }

// Ratio is an exact rational with non-unit denominator.
type Ratio struct {
	X *big.Rat
}

func (r *Ratio) Write(b *strings.Builder) { b.WriteString(r.X.RatString()) }

// Flonum is a floating-point number (the paper's SWFLO world; we use the
// host's float64 as the single supported precision).
type Flonum float64

func (f Flonum) Write(b *strings.Builder) {
	s := fmt.Sprintf("%g", float64(f))
	// Ensure flonums read back as flonums: 3 prints as 3.0.
	if !strings.ContainsAny(s, ".eE") || strings.HasPrefix(s, "Inf") || strings.HasPrefix(s, "-Inf") || s == "NaN" {
		if !strings.ContainsAny(s, ".") && !strings.ContainsAny(s, "eE") {
			s += ".0"
		}
	}
	b.WriteString(s)
}

// Print renders v in reader syntax.
func Print(v Value) string {
	var b strings.Builder
	v.Write(&b)
	return b.String()
}

// Eq is object identity: pointer equality for heap objects, value equality
// for immediates of the same concrete type. As in the paper, eq is not
// guaranteed meaningful on numbers (use Eql).
func Eq(a, b Value) bool {
	switch x := a.(type) {
	case *Symbol:
		return a == b
	case Fixnum:
		y, ok := b.(Fixnum)
		return ok && x == y
	case Character:
		y, ok := b.(Character)
		return ok && x == y
	default:
		return a == b
	}
}

// Eql is Eq plus same-type numeric value equality — the paper's "object
// identity predicate for all objects".
func Eql(a, b Value) bool {
	if Eq(a, b) {
		return true
	}
	switch x := a.(type) {
	case Fixnum:
		if y, ok := b.(*Bignum); ok {
			return y.X.IsInt64() && y.X.Int64() == int64(x)
		}
	case *Bignum:
		switch y := b.(type) {
		case Fixnum:
			return x.X.IsInt64() && x.X.Int64() == int64(y)
		case *Bignum:
			return x.X.Cmp(y.X) == 0
		}
	case *Ratio:
		y, ok := b.(*Ratio)
		return ok && x.X.Cmp(y.X) == 0
	case Flonum:
		y, ok := b.(Flonum)
		return ok && x == y
	case String:
		return false // strings are eql only if eq
	}
	return false
}

// Equal is structural equality over conses, strings and vectors, with Eql
// at the leaves.
func Equal(a, b Value) bool {
	if Eql(a, b) {
		return true
	}
	switch x := a.(type) {
	case *Cons:
		y, ok := b.(*Cons)
		return ok && Equal(x.Car, y.Car) && Equal(x.Cdr, y.Cdr)
	case String:
		y, ok := b.(String)
		return ok && x == y
	case *Vector:
		y, ok := b.(*Vector)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if !Equal(x.Items[i], y.Items[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Bool converts a Go bool to Lisp t / nil.
func Bool(b bool) Value {
	if b {
		return T
	}
	return Nil
}
