// Package opt is the source-level optimizer of §5: a fixpoint engine over
// tree-to-tree transformations, every one of which preserves
// back-translatability into source. The three beta-conversion rules, the
// nested-if transformation (from which boolean short-circuiting "falls
// out"), compile-time expression evaluation, dead-code elimination,
// associative/commutative canonicalization and the machine-inspired
// sin$f→sinc$f rewrite are all here.
//
// Each applied transformation is logged in the paper's transcript style:
//
//	;**** Optimizing this form: (+$f a b c)
//	;**** to be this form: (+$f (+$f c b) a)
//	;**** courtesy of META-EVALUATE-ASSOC-COMMUT-CALL
package opt

import (
	"fmt"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/tree"
)

// Options control the optimizer.
type Options struct {
	// Log, if non-nil, receives the transformation transcript.
	Log io.Writer
	// OnRule, if non-nil, receives every applied transformation as a
	// structured event: the rule name and the back-translated source
	// before and after. This is the §5 transcript in queryable form; the
	// obs layer aggregates it into rule-provenance reports.
	OnRule func(rule, before, after string)
	// MaxPasses bounds the fixpoint iteration.
	MaxPasses int
	// SubstituteComplexity is the size threshold below which a pure
	// expression may be substituted for a variable with several
	// references ("this is primarily to aid the optimizer in deciding
	// whether to substitute copies of the initializing expression for
	// several occurrences of a variable").
	SubstituteComplexity int
	// Disabled rules by name (for ablation benchmarks).
	Disabled map[string]bool
	// Watchdog, when >0, bounds the wall-clock time of one Optimize
	// call: past the deadline the fixpoint stops rewriting and TimedOut
	// reports true, so a non-terminating (or merely pathological) rule
	// interaction degrades into a per-unit diagnostic instead of a hung
	// compiler. 0 disables the watchdog. Note that a tripped watchdog
	// makes the output timing-dependent, so callers treat it as a unit
	// failure, never as "partially optimized but fine".
	Watchdog time.Duration
}

// DefaultOptions returns the standard settings.
func DefaultOptions() Options {
	return Options{MaxPasses: 60, SubstituteComplexity: 6}
}

// Optimizer rewrites trees to a fixpoint.
type Optimizer struct {
	opts Options
	// Applied counts transformations by rule name.
	Applied map[string]int
	changed bool
	// gen numbers the variables this optimizer introduces (the f and g of
	// the nested-if transformation). A per-instance counter keeps the
	// generated names — which flow into jump-block labels and listing
	// comments — independent of how many other functions were optimized
	// before this one, or on which worker.
	gen int

	// Dirty-subtree state for the incremental fixpoint. After the full
	// first pass, a pass only revisits regions the previous pass changed:
	// deep marks roots of subtrees needing a full re-walk, visit marks
	// their ancestor paths (where only node-local rules are re-tried),
	// and fired collects this pass's rewritten nodes for the next round.
	visitAll bool
	deep     map[tree.Node]bool
	visit    map[tree.Node]bool
	fired    []tree.Node

	// Watchdog state: deadline is the wall-clock cutoff (zero = none),
	// timedOut latches once it passes, and wdCtr amortizes the
	// time.Now() cost to one call per 1024 rewrite visits.
	deadline time.Time
	timedOut bool
	wdCtr    int
}

// New returns an optimizer. Compile-time expression evaluation applies
// the process-wide pure builtins (interp.ApplyPure).
func New(opts Options) *Optimizer {
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = 60
	}
	if opts.SubstituteComplexity <= 0 {
		opts.SubstituteComplexity = 6
	}
	return &Optimizer{opts: opts, Applied: map[string]int{}}
}

// Optimize rewrites root until no transformation applies (or MaxPasses).
// It returns the new root (the root node itself may be rewritten), fully
// analyzed: codegen.PrepareTask runs no second analysis on it.
//
// Only the first pass walks the whole tree; each later pass revisits just
// the subtrees the previous pass changed, plus the binding lambdas of any
// variable whose global reference or assignment count changed (the
// substitution and dead-variable rules read those counts non-locally).
// Untouched subtrees can fire no rule they did not fire last pass, so the
// result is identical to rescanning everything.
func (o *Optimizer) Optimize(root tree.Node) tree.Node {
	o.timedOut = false
	o.deadline = time.Time{}
	if o.opts.Watchdog > 0 {
		o.deadline = time.Now().Add(o.opts.Watchdog)
	}
	census := map[*tree.Var][2]int{}
	for pass := 0; pass < o.opts.MaxPasses; pass++ {
		if o.expired() {
			break
		}
		if pass == 0 {
			analysis.Analyze(root)
			o.visitAll = true
			varCensus(root, census)
		} else {
			// Parent links are rebuilt in full (cheap, no set unions);
			// Info is refreshed only where the pass will look. Tail flags
			// are not maintained — no rule consults them — and the final
			// full Analyze below restores them.
			tree.ComputeParents(root)
			o.visitAll = false
			o.deep = make(map[tree.Node]bool, len(o.fired))
			o.visit = make(map[tree.Node]bool, 4*len(o.fired))
			for _, n := range o.fired {
				o.markDirty(n)
			}
			o.markCensusChanges(root, census)
			o.analyzeDirty(root)
		}
		o.changed = false
		o.fired = o.fired[:0]
		root = o.rewrite(root, o.visitAll)
		if !o.changed {
			break
		}
	}
	o.visitAll, o.deep, o.visit, o.fired = false, nil, nil, nil
	analysis.Analyze(root)
	return root
}

// TimedOut reports whether the last Optimize call hit the watchdog
// deadline before reaching a fixpoint.
func (o *Optimizer) TimedOut() bool { return o.timedOut }

// expired latches (and reports) watchdog expiry.
func (o *Optimizer) expired() bool {
	if o.timedOut {
		return true
	}
	if o.deadline.IsZero() {
		return false
	}
	if !time.Now().Before(o.deadline) {
		o.timedOut = true
	}
	return o.timedOut
}

// markDirty marks n for a full revisit and its ancestors for node-local
// rule re-application. Ancestor chains share suffixes, so the climb stops
// at the first already-marked node.
func (o *Optimizer) markDirty(n tree.Node) {
	o.deep[n] = true
	for m := n; m != nil; m = m.Info().Parent {
		if o.visit[m] {
			return
		}
		o.visit[m] = true
	}
}

// varCensus snapshots the reference/assignment counts of every variable
// bound in the tree into m.
func varCensus(root tree.Node, m map[*tree.Var][2]int) {
	tree.Walk(root, func(n tree.Node) bool {
		if l, ok := n.(*tree.Lambda); ok {
			for _, v := range l.Params() {
				m[v] = [2]int{len(v.Refs), len(v.Sets)}
			}
		}
		return true
	})
}

// markCensusChanges compares per-variable usage counts against the
// previous pass. Rules like META-SUBSTITUTE and META-DROP-UNUSED-ARGUMENT
// read a variable's global usage, so a count change anywhere re-opens the
// binding lambda's whole subtree even if that subtree itself is unchanged.
func (o *Optimizer) markCensusChanges(root tree.Node, census map[*tree.Var][2]int) {
	tree.Walk(root, func(n tree.Node) bool {
		l, ok := n.(*tree.Lambda)
		if !ok {
			return true
		}
		for _, v := range l.Params() {
			now := [2]int{len(v.Refs), len(v.Sets)}
			if old, seen := census[v]; seen && old == now {
				continue
			}
			census[v] = now
			o.markDirty(l)
		}
		return true
	})
}

// analyzeDirty refreshes Info for the regions the coming pass will
// examine: deep subtrees are fully re-analyzed; path nodes recompute
// their own Info from their children's cached results.
func (o *Optimizer) analyzeDirty(n tree.Node) {
	if o.deep[n] {
		analysis.Recompute(n)
		return
	}
	if !o.visit[n] {
		return
	}
	var buf [tree.ChildBuf]tree.Node
	for _, c := range tree.AppendChildren(buf[:0], n) {
		o.analyzeDirty(c)
	}
	analysis.RecomputeShallow(n)
}

func (o *Optimizer) enabled(rule string) bool { return !o.opts.Disabled[rule] }

// logRule emits a transcript entry for a transformation that replaced the
// form printed as before with newN.
func (o *Optimizer) logRule(rule, before string, newN tree.Node) {
	o.Applied[rule]++
	o.changed = true
	if o.opts.Log == nil && o.opts.OnRule == nil {
		return
	}
	after := tree.Show(newN)
	if o.opts.Log != nil {
		fmt.Fprintf(o.opts.Log, ";**** Optimizing this form: %s\n", before)
		fmt.Fprintf(o.opts.Log, ";**** to be this form: %s\n", after)
		fmt.Fprintf(o.opts.Log, ";**** courtesy of %s\n", rule)
	}
	if o.opts.OnRule != nil {
		o.opts.OnRule(rule, before, after)
	}
}

// rewrite rewrites children bottom-up, then applies node-local rules until
// none fires. When force is false (an incremental pass), subtrees outside
// the dirty set are skipped: a deep-marked node forces a full walk below
// it, a visit-marked node descends selectively, and a clean node returns
// unchanged.
func (o *Optimizer) rewrite(n tree.Node, force bool) tree.Node {
	if !o.deadline.IsZero() {
		if o.wdCtr++; o.timedOut || (o.wdCtr&1023 == 0 && o.expired()) {
			return n
		}
	}
	if !force {
		if o.deep[n] {
			force = true
		} else if !o.visit[n] {
			return n
		}
	}
	// Rewrite children in place.
	switch x := n.(type) {
	case *tree.Setq:
		x.Value = o.rewrite(x.Value, force)
	case *tree.If:
		x.Test = o.rewrite(x.Test, force)
		x.Then = o.rewrite(x.Then, force)
		x.Else = o.rewrite(x.Else, force)
	case *tree.Progn:
		for i := range x.Forms {
			x.Forms[i] = o.rewrite(x.Forms[i], force)
		}
	case *tree.Call:
		x.Fn = o.rewrite(x.Fn, force)
		for i := range x.Args {
			x.Args[i] = o.rewrite(x.Args[i], force)
		}
	case *tree.Lambda:
		for i := range x.Optional {
			x.Optional[i].Default = o.rewrite(x.Optional[i].Default, force)
		}
		x.Body = o.rewrite(x.Body, force)
	case *tree.ProgBody:
		for i := range x.Forms {
			x.Forms[i] = o.rewrite(x.Forms[i], force)
		}
	case *tree.Return:
		x.Value = o.rewrite(x.Value, force)
	case *tree.Catcher:
		x.Tag = o.rewrite(x.Tag, force)
		x.Body = o.rewrite(x.Body, force)
	case *tree.Caseq:
		x.Key = o.rewrite(x.Key, force)
		for i := range x.Clauses {
			x.Clauses[i].Body = o.rewrite(x.Clauses[i].Body, force)
		}
		if x.Default != nil {
			x.Default = o.rewrite(x.Default, force)
		}
	}
	// Apply local rules to a fixpoint at this node.
	for i := 0; i < 50; i++ {
		nn, fired := o.applyRules(n)
		if !fired {
			break
		}
		n = nn
		o.fired = append(o.fired, n)
	}
	return n
}

// rule is one node-local transformation.
type rule struct {
	name string
	fn   func(*Optimizer, tree.Node) (tree.Node, bool)
}

// rulesByKind lists the node-local rules per node kind (its index), in the order
// they are tried. Method expressions in a static table cost nothing per
// visit, where a table of bound methods would allocate one closure per
// rule each time.
var rulesByKind = [tree.KindFunRef + 1][]rule{
	tree.KindCall: {
		{"META-CALL-LAMBDA", (*Optimizer).ruleCallLambda},
		{"META-SUBSTITUTE", (*Optimizer).ruleSubstitute},
		{"META-DROP-UNUSED-ARGUMENT", (*Optimizer).ruleDropUnused},
		{"META-EVALUATE-ASSOC-COMMUT-CALL", (*Optimizer).ruleAssocCommut},
		{"CONSIDER-REVERSING-ARGUMENTS", (*Optimizer).ruleReverseArgs},
		{"META-IDENTITY-OPERAND", (*Optimizer).ruleIdentity},
		{"META-EVALUATE-CONSTANT-CALL", (*Optimizer).ruleConstantFold},
		{"META-SIN-TO-SINC", (*Optimizer).ruleSinToSinc},
		{"META-HOIST-PROGN-ARGUMENT", (*Optimizer).ruleHoistProgn},
	},
	tree.KindIf: {
		{"META-IF-PROGN", (*Optimizer).ruleIfProgn},
		{"META-IF-CONSTANT-PREDICATE", (*Optimizer).ruleIfConstant},
		{"META-IF-KNOWN-TEST", (*Optimizer).ruleIfKnownTest},
		{"META-IF-NOT", (*Optimizer).ruleIfNot},
		{"META-IF-IF", (*Optimizer).ruleIfIf},
	},
	tree.KindProgn: {
		{"META-PROGN-FLATTEN", (*Optimizer).rulePrognFlatten},
	},
	tree.KindCaseq: {
		{"META-CASEQ-CONSTANT-KEY", (*Optimizer).ruleCaseqConstant},
	},
}

// applyRules tries each rule once; returns the (possibly new) node and
// whether any rule fired.
func (o *Optimizer) applyRules(n tree.Node) (tree.Node, bool) {
	rules := rulesByKind[n.Kind()]
	if len(rules) == 0 {
		return n, false
	}
	before := ""
	if o.opts.Log != nil || o.opts.OnRule != nil {
		before = tree.Show(n)
	}
	for _, r := range rules {
		if !o.enabled(r.name) {
			continue
		}
		if nn, fired := r.fn(o, n); fired {
			o.logRule(r.name, before, nn)
			return nn, true
		}
	}
	return n, false
}
