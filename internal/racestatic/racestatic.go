// Package racestatic implements the static datarace analysis of §5:
// the conservative formulation
//
//	IsMayRace(x, y) ⟺ AccMayConflict(x, y)
//	                  ∧ ¬MustSameThread(x, y)
//	                  ∧ ¬MustCommonSync(x, y)
//
// over all pairs of heap-access instructions, refined by the escape
// analysis of §5.4 (thread-local and thread-specific accesses are
// discarded up front). Its product, the static datarace set, drives
// the instrumentation phase: accesses outside the set are provably
// race-free and are never traced.
package racestatic

import (
	"sort"

	"racedet/internal/escape"
	"racedet/internal/icfg"
	"racedet/internal/ir"
	"racedet/internal/pointsto"
)

// AccessSite is one heap-access instruction with its context.
type AccessSite struct {
	Fn    *ir.Func
	Block *ir.Block
	Instr *ir.Instr
}

func (a AccessSite) String() string {
	return a.Fn.InstrString(a.Instr) + "@" + a.Instr.Pos.String()
}

// Result is the static datarace set plus the per-site classification.
type Result struct {
	// InRaceSet maps access instructions that may participate in a
	// datarace; everything else needs no instrumentation.
	InRaceSet map[*ir.Instr]bool

	// Pairs lists the may-race statement pairs (for reporting and
	// debugging; Definition 1's guarantee only needs the set).
	Pairs [][2]AccessSite

	// Sites lists every heap access site seen.
	Sites []AccessSite

	// Verdicts explains, per access site, which §5 condition kept or
	// killed its instrumentation (the -explain-static report).
	Verdicts map[*ir.Instr]*SiteVerdict

	// PrunedThreadLocal counts accesses discarded by escape analysis;
	// PrunedSameThread and PrunedCommonSync count pair-level proofs.
	// PrunedCommonSyncFlow is the subset of the CommonSync proofs that
	// needed the flow-sensitive must-lock dataflow (zero without it).
	PrunedThreadLocal    int
	PrunedSameThread     int
	PrunedCommonSync     int
	PrunedCommonSyncFlow int
}

// SiteVerdict counts, for one access site, how its candidate pairs
// were resolved. A site stays instrumented iff Racy > 0.
type SiteVerdict struct {
	ThreadLocal bool // discarded up front by escape analysis (§5.4)
	Pairs       int  // conflict-group pairs examined (excluding read/read)
	NoConflict  int  // pairs dismissed by AccMayConflict
	SameThread  int  // pairs proven MustSameThread
	CommonSync  int  // pairs proven MustCommonSync (either form)
	FlowSync    int  // CommonSync proofs that needed the must-lock dataflow
	Racy        int  // surviving may-race pairs
}

// Options selects the optional strengthenings of the §5 conditions.
type Options struct {
	// MustLock, when non-nil, strengthens MustCommonSync with the
	// flow-sensitive must-held-lockset dataflow of icfg.BuildMustLock
	// (locks held across call boundaries); nil reproduces the
	// region-based check alone.
	MustLock *icfg.MustLock
}

// Filter adapts the race set to the instrumentation phase.
func (r *Result) Filter() func(*ir.Instr) bool {
	return func(in *ir.Instr) bool { return r.InRaceSet[in] }
}

// Analyze computes the static datarace set with the baseline §5
// conditions (no interprocedural strengthening).
func Analyze(prog *ir.Program, pts *pointsto.Result, g *icfg.Graph, esc *escape.Result) *Result {
	return AnalyzeOpts(prog, pts, g, esc, Options{})
}

// AnalyzeOpts computes the static datarace set.
func AnalyzeOpts(prog *ir.Program, pts *pointsto.Result, g *icfg.Graph, esc *escape.Result, opt Options) *Result {
	r := &Result{
		InRaceSet: make(map[*ir.Instr]bool),
		Verdicts:  make(map[*ir.Instr]*SiteVerdict),
	}

	// Collect candidate sites, pruning thread-local/thread-specific
	// accesses immediately (§5.4).
	var sites []AccessSite
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if !in.IsAccess() {
					continue
				}
				site := AccessSite{Fn: fn, Block: b, Instr: in}
				r.Sites = append(r.Sites, site)
				r.Verdicts[in] = &SiteVerdict{}
				if esc.ThreadLocalAccess(fn, in) {
					r.PrunedThreadLocal++
					r.Verdicts[in].ThreadLocal = true
					continue
				}
				sites = append(sites, site)
			}
		}
	}

	// Group sites by conflict key to avoid the full quadratic sweep:
	// field accesses can only conflict on the same field; array
	// accesses only with array accesses.
	groups := make(map[string][]AccessSite)
	for _, s := range sites {
		groups[conflictKey(s.Instr)] = append(groups[conflictKey(s.Instr)], s)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	inPairs := make(map[*ir.Instr]bool)
	for _, k := range keys {
		group := groups[k]
		for i := 0; i < len(group); i++ {
			for j := i; j < len(group); j++ {
				x, y := group[i], group[j]
				xKind, _, _, _ := x.Instr.AccessInfo()
				yKind, _, _, _ := y.Instr.AccessInfo()
				if xKind != ir.Write && yKind != ir.Write {
					continue // two reads never race
				}
				tally := func(f func(*SiteVerdict)) {
					f(r.Verdicts[x.Instr])
					if y.Instr != x.Instr {
						f(r.Verdicts[y.Instr])
					}
				}
				tally(func(v *SiteVerdict) { v.Pairs++ })
				if !accMayConflict(pts, x, y) {
					tally(func(v *SiteVerdict) { v.NoConflict++ })
					continue
				}
				if mustSameThread(g, x, y) {
					r.PrunedSameThread++
					tally(func(v *SiteVerdict) { v.SameThread++ })
					continue
				}
				if mustCommonSync(g, x, y) {
					r.PrunedCommonSync++
					tally(func(v *SiteVerdict) { v.CommonSync++ })
					continue
				}
				if opt.MustLock != nil && mustCommonSyncFlow(opt.MustLock, g, x, y) {
					r.PrunedCommonSync++
					r.PrunedCommonSyncFlow++
					tally(func(v *SiteVerdict) { v.CommonSync++; v.FlowSync++ })
					continue
				}
				r.Pairs = append(r.Pairs, [2]AccessSite{x, y})
				tally(func(v *SiteVerdict) { v.Racy++ })
				inPairs[x.Instr] = true
				inPairs[y.Instr] = true
			}
		}
	}
	r.InRaceSet = inPairs
	r.normalize()
	return r
}

// normalize puts Sites and Pairs into a canonical (file, line, col,
// kind) order once at build time, so every downstream report —
// -explain-static, the hint index, the lock-discipline tiers — is
// byte-stable without per-caller sorting. Each pair is reordered so
// its lesser site comes first.
func (r *Result) normalize() {
	sort.SliceStable(r.Sites, func(i, j int) bool {
		return siteLess(r.Sites[i], r.Sites[j])
	})
	for i, p := range r.Pairs {
		if siteLess(p[1], p[0]) {
			r.Pairs[i] = [2]AccessSite{p[1], p[0]}
		}
	}
	sort.SliceStable(r.Pairs, func(i, j int) bool {
		if siteLess(r.Pairs[i][0], r.Pairs[j][0]) {
			return true
		}
		if siteLess(r.Pairs[j][0], r.Pairs[i][0]) {
			return false
		}
		return siteLess(r.Pairs[i][1], r.Pairs[j][1])
	})
}

// siteLess orders access sites by (file, line, col, kind): reads
// before writes at the same position, function name as a last resort
// for cloned positions (loop peeling duplicates source locations).
func siteLess(a, b AccessSite) bool {
	ap, bp := a.Instr.Pos, b.Instr.Pos
	if ap.File != bp.File {
		return ap.File < bp.File
	}
	if ap.Line != bp.Line {
		return ap.Line < bp.Line
	}
	if ap.Col != bp.Col {
		return ap.Col < bp.Col
	}
	aKind, _, _, _ := a.Instr.AccessInfo()
	bKind, _, _, _ := b.Instr.AccessInfo()
	if aKind != bKind {
		return aKind < bKind
	}
	return a.Fn.Name < b.Fn.Name
}

// conflictKey buckets sites that could possibly access the same
// location: per-field for field accesses, one bucket for all arrays.
func conflictKey(in *ir.Instr) string {
	_, isArray, _, field := in.AccessInfo()
	if isArray {
		return "[]"
	}
	return field.QualifiedName()
}

// accMayConflict implements Equation 2: the may points-to sets of the
// accessed objects overlap and the fields match (the grouping already
// guaranteed field equality; statics of the same field always
// conflict).
func accMayConflict(pts *pointsto.Result, x, y AccessSite) bool {
	_, xArr, xReg, xField := x.Instr.AccessInfo()
	_, _, yReg, yField := y.Instr.AccessInfo()
	if xField != nil && xField.Static {
		return true // same static field = same location
	}
	_ = xArr
	xSet := pts.VarPts(x.Fn, xReg)
	ySet := pts.VarPts(y.Fn, yReg)
	_ = yField
	return xSet.Intersects(ySet)
}

// mustSameThread implements Equation 3.
func mustSameThread(g *icfg.Graph, x, y AccessSite) bool {
	return g.MustThreadOf(x.Fn).Intersects(g.MustThreadOf(y.Fn))
}

// mustCommonSync implements Equation 4 with the region-based SO sets.
func mustCommonSync(g *icfg.Graph, x, y AccessSite) bool {
	return g.MustSyncOf(x.Fn, x.Instr).Intersects(g.MustSyncOf(y.Fn, y.Instr))
}

// mustCommonSyncFlow is Equation 4 over the union of the region-based
// SO sets and the flow-sensitive must-held locksets, which can prove a
// common lock across call boundaries (a callee access covered by a
// caller's monitor).
func mustCommonSyncFlow(ml *icfg.MustLock, g *icfg.Graph, x, y AccessSite) bool {
	held := func(s AccessSite) pointsto.ObjSet {
		out := pointsto.ObjSet{}
		for o := range g.MustSyncOf(s.Fn, s.Instr) {
			out[o] = struct{}{}
		}
		for o := range ml.At(s.Instr) {
			out[o] = struct{}{}
		}
		return out
	}
	return held(x).Intersects(held(y))
}
