// Package compilecache is a content-addressed store of compiled function
// bodies, in the spirit of the compilation-unit caching that modern Lisp
// native-code pipelines use to make repeated loads near-free: a unit is
// keyed by the printed text of its source form together with everything
// else that can influence the generated code — the codegen option set,
// the macro definition epoch, and the proclaimed specials its conversion
// consulted. A re-load of an already-seen definition then skips the
// entire middle end (optimizer fixpoint, analyses, binding,
// representation, pdl, TN packing, lowering).
//
// The store is durable (disk.go): entries survive the process and are
// shared by every system and process that opens the directory. Reuse of
// a body already resident in one machine is the loading system's own
// concern (core.System keeps a table from key to function index).
package compilecache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/codegen"
)

// Key computes the content address of one unit's compilation: the
// printed source form plus every compilation input that is not part of
// the form itself. macroEpoch counts defmacro evaluations, so any macro
// (re)definition invalidates all earlier keys — a printed form does not
// reveal which macros its expansion consumed. specials names the
// proclaimed specials the form's conversion consulted
// (convert.Converter.SpecialsUsed): a let of a proclaimed special binds
// dynamically, so the same text compiles differently once it is
// proclaimed. Systems with compile-time constants never key a unit, so
// the hashed "consts=" field is always empty; it stays in the hashed
// bytes so that existing cache directories keep their addresses.
func Key(source string, opts codegen.Options, macroEpoch int, specials string) string {
	h := sha256.New()
	fmt.Fprintf(h, "src=%s\x00opts=%s\x00consts=\x00macros=%d\x00specials=%s",
		source, OptsFingerprint(opts), macroEpoch, specials)
	return hex.EncodeToString(h.Sum(nil))
}

// OptsFingerprint names the compiler options that are part of a Key:
// the phase toggles that change what a unit compiles to.
func OptsFingerprint(opts codegen.Options) string {
	return fmt.Sprintf("%t,%t,%t,%t,%t,%t",
		opts.UseTN, opts.RepAnalysis, opts.PdlNumbers,
		opts.SpecialCaching, opts.Optimize, opts.CSE)
}
