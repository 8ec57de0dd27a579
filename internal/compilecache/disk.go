// The durable layer of the compile cache: a crash-safe on-disk store of
// compilation results that survives process restarts and concurrent use
// by multiple compiler processes.
//
// What is stored is not a standalone image of a compiled function — its
// code embeds machine-local symbol indices, function indices, and heap
// addresses — but a *capture* of the machine mutations its emission
// performed (s1.Capture): the symbols interned, the printed forms of the
// heap constants built, and the function bodies installed, assembled,
// each in original order. Replaying those mutations against a machine
// whose allocator context (s1.AllocContext) matches the one recorded at
// capture time reproduces the emission word for word, so a disk hit is
// byte-identical to a recompile. A context mismatch is not an error —
// the caller just compiles the unit normally.
//
// Each entry is one file <key>.e of a durable.Dir (DESIGN.md §11),
// which owns the crash-safe protocol: framing and checksum, atomic
// writes, the cross-process flock, recovery at open and quarantine of
// anything that does not verify. What this layer adds:
//
//   - an entry verifies only if it decodes (s1's wire form, wire.go),
//     names its own key, keeps every body's jump targets inside that
//     body, and its constants read back; anything else is quarantined
//     as corrupt
//   - repeated corrupt reads trip a circuit breaker (breaker.go) that
//     stops consulting the disk for a cooldown period
//   - an entry that a read fully verified is kept, decoded, in a
//     process-wide layer on the handle and shared read-only by every
//     system that replays it; later lookups of that name are served
//     from memory without touching the file. Store never fills it, so
//     only bytes that passed verification can be served from it. A
//     replay appends each body's instructions and relocates its jumps;
//     nothing is assembled again.
//   - a primary entry <key>.e is never overwritten because its capture
//     does not replay in some other allocator context; that context's
//     capture is stored beside it under VariantKey, so both replay
package compilecache

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/codegen"
	"repro/internal/diag"
	"repro/internal/durable"
	"repro/internal/s1"
	"repro/internal/sexp"
)

// entryFormat is the entry file format; bump the magic's version on any
// change to DiskEntry's encoding so old entries quarantine instead of
// misdecoding. (v2: the s1 wire form replaced a gob stream of
// unassembled items.)
var entryFormat = &durable.Format[*DiskEntry]{
	Magic:     "slc-cache-entry-v2",
	Suffix:    ".e",
	Event:     "cache-quarantine",
	Phase:     "disk",
	TornWrite: diag.KindCacheWrite,
	Decode:    DecodeEntry,
}

// layerEntries bounds the verified-once layer. A full layer forgets its
// oldest entry, which the next lookup of that name reads and verifies
// from the file again.
const layerEntries = 1024

// Where a lookup hit came from, as the flight recorder's cache-hit
// events report it.
const (
	FromProcess = "process" // the verified-once layer: no file access
	FromFile    = "disk"    // a verified read of the entry file
)

// VariantKey names the context-qualified sibling of the entry stored
// under key: the capture of the same source made in allocator context
// ctx with gensym counter gen. Two programs that share a defun behind
// different prefixes share its content key but not its context; the
// first capture keeps the key and each other context gets a variant,
// so every context replays instead of recompiling and overwriting the
// other's entry.
func VariantKey(key, ctx string, gen int) string {
	return fmt.Sprintf("%s-%s-%d", key, ctx, gen)
}

// DiskEntry is one durable compilation result: the capture of the
// emission plus everything needed to decide whether it can be replayed.
type DiskEntry struct {
	// Key echoes the content address so a renamed/cross-linked file is
	// detected as corrupt.
	Key string
	// Name is the unit (defun) name, for diagnostics.
	Name string
	// MinArgs/MaxArgs mirror the function descriptor.
	MinArgs, MaxArgs int
	// GenBefore/GenDelta pin the compiler's gensym counter: replay is
	// valid only when the counter equals GenBefore (the captured code
	// embeds generated label names), and afterwards the counter must
	// advance by GenDelta to keep subsequent units identical too.
	GenBefore, GenDelta int
	// Ctx is the allocator-context fingerprint the capture was made in;
	// replay into any other context must fall back to recompilation.
	Ctx string
	// Binds are the function lookups the emission made, answered by the
	// machine it started from; replay requires the same answers, since
	// the captured code embeds them and the allocator context does not
	// cover which index a name is bound to.
	Binds []codegen.FuncBind
	// Capture is the recorded emission.
	Capture s1.Capture

	// consts are Capture.Consts read, filled by the verified file read
	// that admits the entry to the layer (before any system can see it)
	// and never modified after; Install builds them.
	consts []sexp.Value
}

// Instrs is the number of instructions Install appends.
func (e *DiskEntry) Instrs() int {
	n := 0
	for i := range e.Capture.Funcs {
		n += len(e.Capture.Funcs[i].Code)
	}
	return n
}

// Replayable reports whether the entry can be replayed into machine m
// with compiler gensym counter gen, and why not if it cannot.
func (e *DiskEntry) Replayable(m *s1.Machine, gen int) error {
	if ctx := m.AllocContext(); ctx != e.Ctx {
		return fmt.Errorf("compilecache: allocator context %s does not match entry's %s", ctx, e.Ctx)
	}
	if gen != e.GenBefore {
		return fmt.Errorf("compilecache: gensym counter %d does not match entry's %d", gen, e.GenBefore)
	}
	if len(e.Capture.Funcs) == 0 {
		return fmt.Errorf("compilecache: entry for %s installs no functions", e.Name)
	}
	if !codegen.BindsHold(m, e.Binds) {
		return fmt.Errorf("compilecache: a function name the entry looked up is bound differently")
	}
	return nil
}

// Install replays the captured emission into m, returning the function
// index of the unit's own body (the last function installed). The caller
// must have checked Replayable first; Install re-checks the context so a
// stale call cannot corrupt the machine.
func (e *DiskEntry) Install(m *s1.Machine) (int, error) {
	if ctx := m.AllocContext(); ctx != e.Ctx {
		return 0, fmt.Errorf("compilecache: allocator context changed before install")
	}
	for _, name := range e.Capture.Syms {
		m.InternSym(name)
	}
	// The replayed constants stay pinned, as they were while the capture
	// compiled, until the bodies referencing them are installed.
	defer m.Unpin(m.PinDepth())
	if len(e.consts) != len(e.Capture.Consts) {
		return 0, fmt.Errorf("compilecache: entry for %s was not read through Probe", e.Name)
	}
	for _, v := range e.consts {
		m.Pin(m.FromValue(v))
	}
	idx := -1
	for i := range e.Capture.Funcs {
		idx = m.AddBody(&e.Capture.Funcs[i])
	}
	return idx, nil
}

// DiskStats meters the durable layer.
type DiskStats struct {
	Hits, Misses  int64
	Stores        int64
	Corrupt       int64 // entries quarantined at lookup time
	Quarantined   int64 // entries/temps quarantined by recovery at open
	BreakerShunts int64 // lookups skipped because the breaker was open
	FileReads     int64 // verified entry-file reads that filled the layer
}

// Disk is the persistent cache layer. Any number of processes can share
// one directory.
type Disk struct {
	files   *durable.Dir[*DiskEntry]
	breaker *Breaker
	mu      sync.Mutex
	stats   DiskStats // Hits, Misses and BreakerShunts; files meters the rest
	// layer holds the entries file reads verified, by key; order is their
	// fill order, for evicting the oldest. Entries are never mutated
	// after verification, so callers share them read-only.
	layer map[string]*DiskEntry
	order []string
}

// SetEventHook installs the event callback: it receives
// ("cache-quarantine", filename) each time an entry or temp file is
// moved to quarantine. Safe to call on a live handle; the hook must
// itself be safe for concurrent use.
func (d *Disk) SetEventHook(fn func(kind, name string)) { d.files.SetEventHook(fn) }

// OpenDisk opens (creating if needed) a durable cache directory, runs
// crash recovery, and returns the handle. The fault plan may be nil.
func OpenDisk(dir string, fault *diag.Plan) (*Disk, error) {
	files, err := durable.Open(dir, entryFormat, fault)
	if err != nil {
		return nil, fmt.Errorf("compilecache: %w", err)
	}
	return &Disk{files: files,
		breaker: NewBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown),
		layer:   map[string]*DiskEntry{}}, nil
}

// Close releases the lock file. The directory stays valid for reopening.
func (d *Disk) Close() error { return d.files.Close() }

// Dir returns the cache directory path.
func (d *Disk) Dir() string { return d.files.Path() }

// Stats returns a copy of the layer's meters.
func (d *Disk) Stats() DiskStats {
	fs := d.files.Stats()
	d.mu.Lock()
	st := d.stats
	d.mu.Unlock()
	st.Stores, st.Corrupt, st.Quarantined, st.FileReads = fs.Writes, fs.Corrupt, fs.Quarantined, fs.Reads
	return st
}

// Breaker exposes the corrupt-entry circuit breaker (for meters and
// tests).
func (d *Disk) Breaker() *Breaker { return d.breaker }

// Payload is the entry's wire encoding, the bytes an entry file frames.
func (e *DiskEntry) Payload() []byte {
	var w s1.Writer
	w.Str(e.Key)
	w.Str(e.Name)
	w.Int(e.MinArgs)
	w.Int(e.MaxArgs)
	w.Int(e.GenBefore)
	w.Int(e.GenDelta)
	w.Str(e.Ctx)
	s1.AppendSection(&w, e.Binds, func(w *s1.Writer, b *codegen.FuncBind) {
		w.Str(b.Name)
		w.Int(b.Index)
	})
	w.Strs(e.Capture.Syms)
	w.Strs(e.Capture.Consts)
	s1.AppendSection(&w, e.Capture.Funcs, s1.AppendBody)
	return w.Bytes()
}

// DecodeEntry is the entry's verification past the frame: the payload
// decodes (which checks that every jump stays inside its body), names
// the key it is filed under (a renamed or cross-linked file is corrupt),
// and its constants read back (one that does not could never replay).
// The read keeps the constants.
func DecodeEntry(key string, payload []byte) (*DiskEntry, error) {
	r := s1.NewReader(payload)
	e := &DiskEntry{Key: r.Str(), Name: r.Str(), MinArgs: r.Int(), MaxArgs: r.Int(),
		GenBefore: r.Int(), GenDelta: r.Int(), Ctx: r.Str()}
	e.Binds = s1.ReadSection(r, 16, func(r *s1.Reader) codegen.FuncBind { return codegen.FuncBind{Name: r.Str(), Index: r.Int()} })
	e.Capture.Syms = r.Strs()
	e.Capture.Consts = r.Strs()
	e.Capture.Funcs = s1.ReadSection(r, s1.BodyMin, s1.ReadBody)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	if e.Key != key {
		return nil, fmt.Errorf("entry key %s does not match file name", e.Key)
	}
	e.consts = make([]sexp.Value, len(e.Capture.Consts))
	for i, src := range e.Capture.Consts {
		v, err := sexp.ReadOne(src)
		if err != nil {
			return nil, fmt.Errorf("reading constant %q: %w", src, err)
		}
		e.consts[i] = v
	}
	return e, nil
}

// Lookup returns the durable entry for key, or (nil, false) on a miss.
// See Probe.
func (d *Disk) Lookup(key string) (*DiskEntry, bool) {
	e, _ := d.Probe(key)
	return e, e != nil
}

// Probe returns the durable entry for key and where it came from
// (FromProcess or FromFile), or (nil, "") on a miss. An entry verified
// earlier through this handle is served from the layer, even while the
// breaker is open: the breaker shields lookups from a failing disk, and
// these entries no longer come from it. Otherwise the file is read and
// verified; a corrupt entry is quarantined, counted against the circuit
// breaker, and reported as a miss, and when the breaker is open the
// disk is not consulted at all. The returned entry is shared and must
// not be modified.
func (d *Disk) Probe(key string) (*DiskEntry, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.layer[key]; e != nil {
		d.stats.Hits++
		return e, FromProcess
	}
	if !d.breaker.Allow() {
		d.stats.BreakerShunts++
		d.stats.Misses++
		return nil, ""
	}
	e, err := d.files.Read(key)
	if err != nil {
		if errors.Is(err, durable.ErrCorrupt) {
			d.breaker.RecordCorrupt()
		}
		d.stats.Misses++
		return nil, ""
	}
	d.stats.Hits++
	d.breaker.RecordSuccess()
	if len(d.order) >= layerEntries {
		delete(d.layer, d.order[0])
		d.order = d.order[1:]
	}
	d.layer[key] = e
	d.order = append(d.order, key)
	return e, FromFile
}

// Store durably writes the entry for key. A cache-write fault
// (diag.KindCacheWrite) matching the unit's name instead writes a torn
// entry straight to the final path, which recovery and lookup
// verification must both catch.
func (d *Disk) Store(key string, e *DiskEntry) error {
	if err := d.files.Write(key, e.Name, e.Payload()); err != nil {
		return fmt.Errorf("compilecache: %w", err)
	}
	return nil
}
