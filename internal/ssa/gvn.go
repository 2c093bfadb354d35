package ssa

import (
	"fmt"

	"racedet/internal/ir"
	"racedet/internal/lang/sem"
)

// VN is a value number: SSA definitions with the same VN are known to
// hold the same value in every execution.
type VN int

// NoVN marks an operand with no value number (unreachable use).
const NoVN VN = -1

// ValueNumbering assigns value numbers to the SSA definitions of one
// function. It is deliberately conservative about the heap: loads
// (getfield/aload/getstatic) and allocations always receive fresh
// numbers, so two loads of the same field never alias by value number
// — what the §6 weaker-than elimination needs is only that *register
// copies and recomputations* of the same object reference are
// recognized, which Move propagation and hashing of pure expressions
// provide.
type ValueNumbering struct {
	ov     *Overlay
	vn     map[DefID]VN
	nxt    VN
	exp    map[string]VN // hash-cons table for pure expressions
	stable func(*sem.Field) bool
}

// BuildGVN computes value numbers for the overlay.
func BuildGVN(ov *Overlay) *ValueNumbering {
	return BuildGVNStable(ov, nil)
}

// BuildGVNStable is BuildGVN extended with stable-field load merging:
// a getfield of a field for which stable returns true is numbered by
// hashing the field and the receiver's value number, so two loads of
// the same init-only field off the same receiver share a number. The
// caller vouches that every write to a stable field targets `this`
// inside a constructor — under the constructor-publication
// happens-before assumption the §5.4 escape pruning already makes,
// such a field has one value for the object's published lifetime, so
// merging loads is sound. A nil stable is BuildGVN exactly.
func BuildGVNStable(ov *Overlay, stable func(*sem.Field) bool) *ValueNumbering {
	g := &ValueNumbering{
		ov:     ov,
		vn:     make(map[DefID]VN),
		exp:    make(map[string]VN),
		stable: stable,
	}
	// Parameters are definitions too: each gets its own fresh number.
	for _, pd := range ov.ParamDef {
		g.assign(pd, g.fresh())
	}
	// One RPO pass; assignments are write-once. An operand that is not
	// yet numbered (it flows around a loop back-edge) forces a fresh
	// number — conservative, never unsound: a fresh number can only
	// prevent the elimination from seeing an equality, not invent one.
	for _, b := range ov.Dom.RPO() {
		for _, phi := range ov.Phis[b] {
			g.numberPhi(phi)
		}
		for _, in := range b.Instrs {
			if id, ok := ov.DefOf[in]; ok {
				g.numberInstr(id, in)
			}
		}
	}
	return g
}

func (g *ValueNumbering) fresh() VN {
	v := g.nxt
	g.nxt++
	return v
}

// assign sets the value number of a definition; write-once.
func (g *ValueNumbering) assign(id DefID, v VN) {
	if _, done := g.vn[id]; done {
		return
	}
	g.vn[id] = v
}

func (g *ValueNumbering) numberPhi(phi *Phi) {
	// A phi whose arguments all carry the same (already final) VN,
	// ignoring self references, is a copy of that value. Arguments not
	// yet numbered flow around back-edges; collapsing on them would
	// risk using a number that is not final, so they block collapsing.
	var common VN = NoVN
	collapsed := true
	for _, a := range phi.Args {
		if a == phi.ID || a == NoDef {
			continue
		}
		av, ok := g.vn[a]
		if !ok {
			collapsed = false
			break
		}
		if common == NoVN {
			common = av
		} else if common != av {
			collapsed = false
			break
		}
	}
	if collapsed && common != NoVN {
		g.assign(phi.ID, common)
		return
	}
	g.assign(phi.ID, g.fresh())
}

func (g *ValueNumbering) numberInstr(id DefID, in *ir.Instr) {
	if _, done := g.vn[id]; done {
		return
	}
	switch in.Op {
	case ir.OpConst:
		g.assign(id, g.hash(fmt.Sprintf("ic:%d", in.Value)))
	case ir.OpBoolConst:
		g.assign(id, g.hash(fmt.Sprintf("bc:%d", in.Value)))
	case ir.OpNull:
		g.assign(id, g.hash("null"))
	case ir.OpStrConst:
		g.assign(id, g.hash("str:"+in.Str))
	case ir.OpClassRef:
		g.assign(id, g.hash("class:"+in.Class.Name))
	case ir.OpMove:
		src := g.useVN(in, 0)
		if src != NoVN {
			g.assign(id, src)
		} else if _, ok := g.vn[id]; !ok {
			g.assign(id, g.fresh())
		}
	case ir.OpBin:
		a, b := g.useVN(in, 0), g.useVN(in, 1)
		if a != NoVN && b != NoVN {
			g.assign(id, g.hash(fmt.Sprintf("bin:%d:%d:%d", in.Bin, a, b)))
		} else if _, ok := g.vn[id]; !ok {
			g.assign(id, g.fresh())
		}
	case ir.OpNeg, ir.OpNot:
		a := g.useVN(in, 0)
		if a != NoVN {
			g.assign(id, g.hash(fmt.Sprintf("un:%d:%d", in.Op, a)))
		} else if _, ok := g.vn[id]; !ok {
			g.assign(id, g.fresh())
		}
	case ir.OpGetField:
		if g.stable != nil && g.stable(in.Field) {
			if recv := g.useVN(in, 0); recv != NoVN {
				g.assign(id, g.hash(fmt.Sprintf("gf:%s:%d", in.Field.QualifiedName(), recv)))
				return
			}
		}
		if _, ok := g.vn[id]; !ok {
			g.assign(id, g.fresh())
		}
	case ir.OpArrayLen:
		a := g.useVN(in, 0)
		if a != NoVN {
			// Array length is immutable: len of the same array is the
			// same value.
			g.assign(id, g.hash(fmt.Sprintf("len:%d", a)))
		} else if _, ok := g.vn[id]; !ok {
			g.assign(id, g.fresh())
		}
	default:
		// Heap loads, allocations, calls: a fresh, final number.
		if _, ok := g.vn[id]; !ok {
			g.assign(id, g.fresh())
		}
	}
}

func (g *ValueNumbering) hash(key string) VN {
	if v, ok := g.exp[key]; ok {
		return v
	}
	v := g.fresh()
	g.exp[key] = v
	return v
}

func (g *ValueNumbering) useVN(in *ir.Instr, idx int) VN {
	d := g.ov.Use(in, idx)
	if d == NoDef {
		return NoVN
	}
	v, ok := g.vn[d]
	if !ok {
		return NoVN
	}
	return v
}

// OperandVN returns the value number of operand idx of instruction in,
// or NoVN if unknown. This is what the weaker-than elimination calls
// to compare valnum(o_i) with valnum(o_j).
func (g *ValueNumbering) OperandVN(in *ir.Instr, idx int) VN { return g.useVN(in, idx) }

// ParamVN returns the value number of parameter i's entry definition
// (register i at function entry), or NoVN if out of range.
func (g *ValueNumbering) ParamVN(i int) VN {
	if i < 0 || i >= len(g.ov.ParamDef) {
		return NoVN
	}
	v, ok := g.vn[g.ov.ParamDef[i]]
	if !ok {
		return NoVN
	}
	return v
}
