// Package compilecache is a content-addressed memo of compiled function
// bodies, in the spirit of the compilation-unit caching that modern Lisp
// native-code pipelines use to make repeated loads near-free: a function
// is keyed by the printed text of its source defun together with
// everything else that can influence the generated code — the codegen
// option set, the compile-time constant bindings, the macro definition
// epoch, and the proclaimed specials its conversion consulted. A re-load of an already-seen definition then skips
// the entire middle end (optimizer fixpoint, analyses, binding,
// representation, pdl, TN packing, lowering).
//
// The cache stores the function index the body was installed at, with
// its argument range and instruction count. Within one machine a hit
// simply rebinds the name to the existing index — the code is already
// resident; the range and count let Validate check that the index still
// names that body.
package compilecache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/codegen"
	"repro/internal/s1"
)

// Entry is one cached compilation result.
type Entry struct {
	// Index is the machine function index the body was installed at.
	Index int
	// MinArgs/MaxArgs are the argument-count range (MaxArgs -1 = &rest).
	MinArgs, MaxArgs int
	// Instrs is the body's instruction count.
	Instrs int
	// Binds are the function lookups the body's emission made; a hit
	// needs codegen.ResidentBindsHold.
	Binds []codegen.FuncBind
}

// Validate sanity-checks a looked-up entry against the machine it
// claims to be resident in: the function index must exist, the
// argument-count range must match the resident descriptor, and the
// entry's instruction count must equal the resident body's extent. A
// corrupt or mismatched entry (a bug, a stale index after machine
// surgery, or an injected fault) is reported as an error so the caller
// can log a diagnostic and fall back to recompilation instead of
// rebinding a name to garbage.
func (e Entry) Validate(m *s1.Machine) error {
	if e.Index < 0 || e.Index >= len(m.Funcs) {
		return fmt.Errorf("compilecache: entry index %d out of range (machine has %d functions)",
			e.Index, len(m.Funcs))
	}
	f := m.Funcs[e.Index]
	if f.MinArgs != e.MinArgs || f.MaxArgs != e.MaxArgs {
		return fmt.Errorf("compilecache: entry arg range %d..%d does not match resident %s (%d..%d)",
			e.MinArgs, e.MaxArgs, f.Name, f.MinArgs, f.MaxArgs)
	}
	if e.Instrs <= 0 {
		return fmt.Errorf("compilecache: entry for %s has an empty body", f.Name)
	}
	if got := f.End - f.Entry; got != e.Instrs {
		return fmt.Errorf("compilecache: entry instruction count %d does not match resident %s extent %d",
			e.Instrs, f.Name, got)
	}
	// A hit rebinds the name to resident code that Run dispatches through
	// the pre-decoded stream (decode.go), so the resident extent must be
	// decoded — if it is not, the rebind would point calls at raw
	// instructions the decoded dispatcher cannot reach.
	if !m.DecodedCovers(f.Entry, f.End) {
		return fmt.Errorf("compilecache: resident %s extent [%d,%d) is outside the decoded stream",
			f.Name, f.Entry, f.End)
	}
	return nil
}

// Cache is a concurrency-safe content-addressed store of compiled
// functions.
type Cache struct {
	mu           sync.Mutex
	m            map[string]Entry
	hits, misses int64
}

// New returns an empty cache.
func New() *Cache { return &Cache{m: map[string]Entry{}} }

// Key computes the content address of one function compilation: the
// printed source form plus every compilation input that is not part of
// the form itself. constants is a canonical fingerprint of the
// compile-time constant bindings; macroEpoch counts defmacro evaluations,
// so any macro (re)definition invalidates all earlier keys — a printed
// form does not reveal which macros its expansion consumed. specials
// names the proclaimed specials the form's conversion consulted
// (convert.Converter.SpecialsUsed): a let of a proclaimed special binds
// dynamically, so the same text compiles differently once it is
// proclaimed.
func Key(source string, opts codegen.Options, constants string, macroEpoch int, specials string) string {
	h := sha256.New()
	fmt.Fprintf(h, "src=%s\x00opts=%s\x00consts=%s\x00macros=%d\x00specials=%s",
		source, OptsFingerprint(opts), constants, macroEpoch, specials)
	return hex.EncodeToString(h.Sum(nil))
}

// OptsFingerprint names the compiler options that are part of a Key:
// the phase toggles that change what a unit compiles to.
func OptsFingerprint(opts codegen.Options) string {
	return fmt.Sprintf("%t,%t,%t,%t,%t,%t",
		opts.UseTN, opts.RepAnalysis, opts.PdlNumbers,
		opts.SpecialCaching, opts.Optimize, opts.CSE)
}

// Lookup returns the entry for key, counting a hit or a miss.
func (c *Cache) Lookup(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// Store records the compilation result for key.
func (c *Cache) Store(key string, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = e
}

// Hits returns the number of successful lookups so far.
func (c *Cache) Hits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns the number of failed lookups so far.
func (c *Cache) Misses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
