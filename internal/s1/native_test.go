package s1_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/s1"
	"repro/internal/sexp"
)

// primArg is one argument of a native-primitive check: a host value,
// passed to the machine as a pdl number (a flonum on the stack, §6.3)
// when pdl is set.
type primArg struct {
	v   sexp.Value
	pdl bool
}

// nativeGrid is the value grid every native entry is checked over:
// fixnum edges, bignums, ratios, flonums (heap and pdl), nil, t,
// symbols, strings, characters, vectors, and proper, improper, nested,
// shared and long lists.
func nativeGrid() []primArg {
	var out []primArg
	for _, src := range []string{
		"0", "1", "-1", "2", "-2", "3", "7", "-7", "65521",
		"9223372036854775807", "-9223372036854775808", "-9223372036854775807",
		"18446744073709551616", "-1180591620717411303424", "1/2", "-7/3",
		"0.0", "1.5", "-2.5", "4.0",
		"nil", "t", "a", "b", `"ab"`, `#\a`, "#(1 2)",
		"(1 2 3)", "(a b)", "((a . 1) (b . 2) (2 . x) 3)", "(1 (2) 3)",
		"(1 2 . 3)", "(1 . 2)", "((1 2) (3))", "(1.5 2.5)", `("ab" "cd")`,
		"((b) (b) b)",
	} {
		out = append(out, primArg{v: mustReadValue(src)})
	}
	long := make([]sexp.Value, 300)
	for i := range long {
		long[i] = sexp.Fixnum(i)
	}
	shared := mustReadValue("(9 (8))")
	out = append(out,
		primArg{v: sexp.List(long...)},
		primArg{v: sexp.List(shared, shared, shared)},
		primArg{v: sexp.Flonum(math.NaN())},
		primArg{v: sexp.Flonum(math.Inf(-1))},
		primArg{v: sexp.Flonum(2.25), pdl: true},
		primArg{v: sexp.Flonum(-0.5), pdl: true},
	)
	return out
}

func mustReadValue(src string) sexp.Value {
	v, err := sexp.ReadOne(src)
	if err != nil {
		panic(err)
	}
	return v
}

// newPrimMachine returns a machine whose fallback primitives call in's
// builtins, the way core wires every system.
func newPrimMachine(in *interp.Interp) *s1.Machine {
	m := s1.New()
	m.SetPrimHook(func(name *sexp.Symbol, args []sexp.Value) (sexp.Value, error) {
		return in.CallNamed(name, args...)
	})
	return m
}

// checkNativePrim applies name to args natively, through the whole gateway, and
// in the interpreter. A native answer must print as the interpreter's
// and can exist only where the interpreter succeeds; a flonum it
// returns must be one it allocated, never a pdl argument; the gateway
// must print the same value or carry the interpreter's error text, and
// count exactly the calls that declined as marshaled.
func checkNativePrim(t *testing.T, in *interp.Interp, name string, args []primArg) {
	t.Helper()
	m := newPrimMachine(in)
	host := make([]sexp.Value, len(args))
	words := make([]s1.Word, len(args))
	var desc []string
	for i, a := range args {
		host[i] = a.v
		if a.pdl {
			words[i] = m.PdlFlonum(float64(a.v.(sexp.Flonum)))
			desc = append(desc, "pdl:"+sexp.Print(a.v))
		} else {
			words[i] = m.FromValue(a.v)
			desc = append(desc, sexp.Print(a.v))
		}
	}
	call := "(" + name + " " + strings.Join(desc, " ") + ")"
	want, werr := in.CallNamed(sexp.Intern(name), host...)

	out, native := m.NativePrim(name, words)
	if native {
		if werr != nil {
			t.Errorf("%s: native answered %s where the interpreter fails: %v", call, m.PrintWord(out), werr)
			return
		}
		if got := m.PrintWord(out); got != sexp.Print(want) {
			t.Errorf("%s: native = %s, interpreter = %s", call, got, sexp.Print(want))
		}
		if out.Tag == s1.TagFlonum && s1.IsStackAddr(out.Bits) {
			t.Errorf("%s: native returned pdl number %s", call, out)
		}
	}

	before := m.Stats.MarshaledPrims
	got, err := m.CallPrim(name, words)
	wantMarshaled := int64(1)
	if native {
		wantMarshaled = 0
	}
	if marshaled := m.Stats.MarshaledPrims - before; marshaled != wantMarshaled {
		t.Errorf("%s: native=%v but the gateway counted %d marshaled calls", call, native, marshaled)
	}
	switch {
	case werr != nil && err == nil:
		t.Errorf("%s: gateway = %s, interpreter fails: %v", call, m.PrintWord(got), werr)
	case werr != nil && !strings.Contains(err.Error(), werr.Error()):
		t.Errorf("%s: gateway error %q lacks the interpreter's %q", call, err, werr)
	case werr == nil && err != nil:
		t.Errorf("%s: gateway fails (%v), interpreter = %s", call, err, sexp.Print(want))
	case werr == nil && m.PrintWord(got) != sexp.Print(want):
		t.Errorf("%s: gateway = %s, interpreter = %s", call, m.PrintWord(got), sexp.Print(want))
	}
}

// TestNativePrimsMatchInterpreter checks every native entry against its
// interpreter builtin at every arity up to two over the whole value
// grid, and the variadic ones at three arguments over fixnums.
func TestNativePrimsMatchInterpreter(t *testing.T) {
	in := interp.New()
	grid := nativeGrid()
	names, minArgs, maxArgs := s1.NativePrimArity()
	for _, name := range names {
		for n := minArgs[name]; n <= 2 && (maxArgs[name] < 0 || n <= maxArgs[name]); n++ {
			switch n {
			case 1:
				for _, a := range grid {
					checkNativePrim(t, in, name, []primArg{a})
				}
			case 2:
				for _, a := range grid {
					for _, b := range grid {
						checkNativePrim(t, in, name, []primArg{a, b})
					}
				}
			}
		}
		if maxArgs[name] < 0 {
			fix := []primArg{{v: sexp.Fixnum(3)}, {v: sexp.Fixnum(math.MinInt64)}, {v: sexp.Fixnum(-2)}, {v: sexp.Fixnum(math.MaxInt64)}}
			for _, a := range fix {
				for _, b := range fix {
					checkNativePrim(t, in, name, []primArg{a, b, {v: sexp.Fixnum(0)}})
				}
			}
			checkNativePrim(t, in, name, []primArg{{v: sexp.Fixnum(1)}, {v: sexp.Fixnum(2)}, {v: sexp.Flonum(0.5)}})
		}
	}
}

// TestNativePrimsCircularList runs the list walkers on a circular list
// built in the heap: none may loop, those that would need the whole
// list decline, and the gateway then reports the marshaled path's
// conversion error instead of hanging.
func TestNativePrimsCircularList(t *testing.T) {
	m := newPrimMachine(interp.New())
	cell := m.FromValue(mustReadValue("(1 2 3)"))
	tail := cell
	for {
		cdr, err := m.CallPrim("cdr", []s1.Word{tail})
		if err != nil {
			t.Fatal(err)
		}
		if cdr.Tag != s1.TagCons {
			break
		}
		tail = cdr
	}
	if err := m.Rplacd(tail, cell); err != nil {
		t.Fatal(err)
	}
	key := m.FromValue(sexp.Fixnum(4))
	for _, call := range []struct {
		name string
		args []s1.Word
	}{
		{"length", []s1.Word{cell}},
		{"last", []s1.Word{cell}},
		{"memq", []s1.Word{key, cell}},
		{"member", []s1.Word{key, cell}},
		{"assq", []s1.Word{key, cell}},
		{"nthcdr", []s1.Word{m.FromValue(sexp.Fixnum(math.MaxInt64)), cell}},
	} {
		if out, ok := m.NativePrim(call.name, call.args); ok {
			t.Errorf("%s on a circular list answered %s natively", call.name, m.PrintWord(out))
		}
		if _, err := m.CallPrim(call.name, call.args); err == nil || !strings.Contains(err.Error(), "circular") {
			t.Errorf("%s on a circular list: gateway error %v, want the conversion's circular-list error", call.name, err)
		}
	}
	// Readers that stop early answer natively, as the interpreter would.
	if out, ok := m.NativePrim("nth", []s1.Word{m.FromValue(sexp.Fixnum(4)), cell}); !ok || m.PrintWord(out) != "2" {
		t.Errorf("(nth 4 circular) = %s, %v; want 2 natively", m.PrintWord(out), ok)
	}
	if out, ok := m.NativePrim("memq", []s1.Word{m.FromValue(sexp.Fixnum(3)), cell}); !ok || out.Tag != s1.TagCons {
		t.Errorf("(memq 3 circular) = %v, %v; want its cell natively", out, ok)
	}
}

// FuzzNativePrim checks random native calls — a primitive picked by the
// first byte, arguments built from the fuzzed integers, float bits and
// list shape — against the interpreter, as TestNativePrimsMatchInterpreter
// does over its fixed grid.
func FuzzNativePrim(f *testing.F) {
	f.Add(uint8(0), int64(7), int64(-2), uint64(0x3ff8000000000000), uint8(0), uint8(0))
	f.Add(uint8(30), int64(math.MinInt64), int64(-1), uint64(0), uint8(1), uint8(2))
	f.Add(uint8(12), int64(3), int64(0), uint64(0x7ff8000000000001), uint8(3), uint8(5))
	names, minArgs, maxArgs := s1.NativePrimArity()
	in := interp.New()
	f.Fuzz(func(t *testing.T, pick uint8, x, y int64, fbits uint64, kinds, shape uint8) {
		name := names[int(pick)%len(names)]
		n := minArgs[name]
		if maxArgs[name] != n && kinds&0x80 != 0 {
			n++
		}
		args := make([]primArg, n)
		for i := range args {
			args[i] = fuzzArg(kinds>>(3*i)&7, shape, x, y, fbits)
			x, y = y, x
		}
		checkNativePrim(t, in, name, args)
	})
}

// fuzzArg builds one argument of kind k from the fuzzed values.
func fuzzArg(k, shape uint8, x, y int64, fbits uint64) primArg {
	switch k {
	case 0:
		return primArg{v: sexp.Fixnum(x)}
	case 1:
		return primArg{v: sexp.Flonum(math.Float64frombits(fbits))}
	case 2:
		return primArg{v: sexp.Flonum(math.Float64frombits(fbits)), pdl: true}
	case 3, 4:
		// A list of shape%8 fixnums drawn from x and y, improper when
		// shape's high bit is set, with a nested element when k is 4.
		items := make([]sexp.Value, shape%8)
		for i := range items {
			items[i] = sexp.Fixnum((x + int64(i)*y) % 5)
		}
		if k == 4 && len(items) > 0 {
			items[0] = sexp.List(sexp.Fixnum(y%5), sexp.Fixnum(x%5))
		}
		var l sexp.Value = sexp.Nil
		if shape&0x80 != 0 {
			l = sexp.Fixnum(y)
		}
		for i := len(items) - 1; i >= 0; i-- {
			l = sexp.NewCons(items[i], l)
		}
		return primArg{v: l}
	case 5:
		return primArg{v: sexp.Intern([]string{"a", "b", "nil", "t"}[shape%4])}
	case 6:
		v, _ := sexp.Mul(sexp.Fixnum(x), sexp.Fixnum(math.MaxInt64)) // a bignum unless x is 0, 1 or -1
		return primArg{v: v}
	}
	r, err := sexp.Div(sexp.Fixnum(x), sexp.Fixnum(y|1))
	if err != nil {
		return primArg{v: sexp.Nil}
	}
	return primArg{v: r}
}

// TestNativePrimShadowedByDefun: once a compiled defun binds a
// primitive's name, calls the code generator still routes through the
// gateway run that definition on the machine, as the interpreter runs
// it — both the inline gateway and the #'rem stub made before the
// defun, and neither marshals.
func TestNativePrimShadowedByDefun(t *testing.T) {
	sys := core.NewSystem(core.Options{})
	if err := sys.LoadString(`(defun g (x) (funcall #'rem x 5))`); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadString(`(defun rem (a b) (+ a b 30)) (defun f (x) (list (rem x 5) (g x)))`); err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	v, err := sys.Call("f", sexp.Fixnum(7))
	if err != nil || sexp.Print(v) != "(42 42)" {
		t.Fatalf("(f 7) = %v, %v; want the defun's (42 42)", v, err)
	}
	if n := sys.Stats().MarshaledPrims; n != 0 {
		t.Errorf("marshaled prims = %d, want 0", n)
	}
	if sys.Stats().Calls < 3 {
		t.Errorf("%d calls: the definition did not run on the machine", sys.Stats().Calls)
	}
}

// TestShadowedPrimUnderStepLimit: a compiled defun named like a
// fallback primitive runs under the machine's step limit when called
// through the primitive's gateway, exactly as when called directly.
func TestShadowedPrimUnderStepLimit(t *testing.T) {
	const src = `
(defun spin (n acc) (if (= n 0) acc (spin (- n 1) (+ acc 1))))
(defun reverse (x) (spin 100 3))
(defun via-prim (x) (reverse x))
(defun direct (x) (spin 100 3))`
	for _, fn := range []string{"via-prim", "direct"} {
		sys := core.NewSystem(core.Options{MaxSteps: 1000})
		if err := sys.LoadString(src); err != nil {
			t.Fatal(err)
		}
		if v, err := sys.Call(fn, sexp.Nil); err == nil || !strings.Contains(err.Error(), "step limit exceeded") {
			t.Errorf("(%s nil) = %v, %v; want the step limit", fn, v, err)
		}
	}
	sys := core.NewSystem(core.Options{})
	if err := sys.LoadString(src); err != nil {
		t.Fatal(err)
	}
	if v, err := sys.Call("via-prim", sexp.Nil); err != nil || sexp.Print(v) != "103" {
		t.Errorf("unlimited (via-prim nil) = %v, %v; want 103", v, err)
	}
}

// TestPrimGatewayAfterReservedFrame calls the gateway from a frame that
// reserved 3000 slots with ADD SP and wrote none, so SP lies past the
// stack's end: a call without arguments must not read there, and one
// with a pushed argument finds it.
func TestPrimGatewayAfterReservedFrame(t *testing.T) {
	for _, c := range []struct {
		name string
		args []s1.Word
		want string
	}{{"append", nil, "nil"}, {"oddp", []s1.Word{s1.FixnumWord(7)}, "t"}} {
		m := newPrimMachine(interp.New())
		items := []s1.Item{s1.InstrItem(s1.Instr{Op: s1.OpADD, A: s1.R(s1.RegSP), B: s1.ImmInt(3000)})}
		for _, a := range c.args {
			items = append(items, s1.InstrItem(s1.Instr{Op: s1.OpPUSH, A: s1.Imm(a)}))
		}
		items = append(items,
			s1.InstrItem(s1.Instr{Op: s1.OpCALLSQ, TagArg: s1.SQPrim,
				B: s1.ImmInt(int64(m.InternSym(c.name))), C: s1.ImmInt(int64(len(c.args)))}),
			s1.InstrItem(s1.Instr{Op: s1.OpRET}))
		if _, err := m.AddFunction("f", 0, 0, items); err != nil {
			t.Fatal(err)
		}
		w, err := m.CallFunction("f")
		if err != nil || m.PrintWord(w) != c.want {
			t.Errorf("%s after ADD SP 3000 = %s, %v; want %s", c.name, m.PrintWord(w), err, c.want)
		}
	}
}

// TestPrimGatewayNonImmediateOperand runs the gateways with a register
// where the symbol or argument count immediate belongs, as only a
// malformed image would have: the call fails with a RuntimeError and
// applies nothing.
func TestPrimGatewayNonImmediateOperand(t *testing.T) {
	for _, c := range []struct {
		name string
		ins  s1.Instr
	}{
		{"prim symbol", s1.Instr{Op: s1.OpCALLSQ, TagArg: s1.SQPrim, B: s1.R(s1.RegA), C: s1.ImmInt(0)}},
		{"prim argc", s1.Instr{Op: s1.OpCALLSQ, TagArg: s1.SQPrim, B: s1.ImmInt(0), C: s1.R(s1.RegA)}},
		{"prim frame symbol", s1.Instr{Op: s1.OpCALLSQ, TagArg: s1.SQPrimFrame, B: s1.R(s1.RegA)}},
	} {
		m := newPrimMachine(interp.New())
		if _, err := m.AddFunction("f", 0, 0, []s1.Item{s1.InstrItem(c.ins), s1.InstrItem(s1.Instr{Op: s1.OpRET})}); err != nil {
			t.Fatal(err)
		}
		_, err := m.CallFunction("f")
		var rerr *s1.RuntimeError
		if !errors.As(err, &rerr) || !strings.Contains(err.Error(), "bad operand") {
			t.Errorf("%s: err = %v; want a bad-operand RuntimeError", c.name, err)
		}
	}
}
