package ssa

import (
	"racedet/internal/ir"
	"racedet/internal/lang/sem"
)

// VN is a value number: SSA definitions with the same VN are known to
// hold the same value in every execution.
type VN int

// NoVN marks an operand with no value number (unreachable use).
const NoVN VN = -1

// expKind tells the hashed expression forms apart.
type expKind uint8

const (
	expInt         expKind = iota // integer constant n
	expBool                       // boolean constant n
	expNull                       // null
	expStr                        // string constant s
	expClass                      // class reference s
	expBin                        // a <n> b, n the ir.BinKind
	expUnary                      // <n> a, n the ir.Op (neg or not)
	expStableField                // load of stable field s off receiver a
	expLen                        // length of array a
)

// expKey is the hash-cons key of a pure expression: two definitions
// with equal keys compute the same value.
type expKey struct {
	kind expKind
	n    int64
	a, b VN
	s    string
}

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
	vn     []VN // indexed by DefID; NoVN until numbered
	nxt    VN
	exp    map[expKey]VN // hash-cons table for pure expressions
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
		vn:     make([]VN, ov.nextDef),
		exp:    make(map[expKey]VN),
		stable: stable,
	}
	for i := range g.vn {
		g.vn[i] = NoVN
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
	if g.vn[id] != NoVN {
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
		av := g.vn[a]
		if av == NoVN {
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
	if g.vn[id] != NoVN {
		return
	}
	switch in.Op {
	case ir.OpConst:
		g.assign(id, g.hash(expKey{kind: expInt, n: in.Value}))
	case ir.OpBoolConst:
		g.assign(id, g.hash(expKey{kind: expBool, n: in.Value}))
	case ir.OpNull:
		g.assign(id, g.hash(expKey{kind: expNull}))
	case ir.OpStrConst:
		g.assign(id, g.hash(expKey{kind: expStr, s: in.Str}))
	case ir.OpClassRef:
		g.assign(id, g.hash(expKey{kind: expClass, s: in.Class.Name}))
	case ir.OpMove:
		src := g.useVN(in, 0)
		if src != NoVN {
			g.assign(id, src)
		} else if g.vn[id] == NoVN {
			g.assign(id, g.fresh())
		}
	case ir.OpBin:
		a, b := g.useVN(in, 0), g.useVN(in, 1)
		if a != NoVN && b != NoVN {
			g.assign(id, g.hash(expKey{kind: expBin, n: int64(in.Bin), a: a, b: b}))
		} else if g.vn[id] == NoVN {
			g.assign(id, g.fresh())
		}
	case ir.OpNeg, ir.OpNot:
		a := g.useVN(in, 0)
		if a != NoVN {
			g.assign(id, g.hash(expKey{kind: expUnary, n: int64(in.Op), a: a}))
		} else if g.vn[id] == NoVN {
			g.assign(id, g.fresh())
		}
	case ir.OpGetField:
		if g.stable != nil && g.stable(in.Field) {
			if recv := g.useVN(in, 0); recv != NoVN {
				g.assign(id, g.hash(expKey{kind: expStableField, s: in.Field.QualifiedName(), a: recv}))
				return
			}
		}
		if g.vn[id] == NoVN {
			g.assign(id, g.fresh())
		}
	case ir.OpArrayLen:
		a := g.useVN(in, 0)
		if a != NoVN {
			// Array length is immutable: len of the same array is the
			// same value.
			g.assign(id, g.hash(expKey{kind: expLen, a: a}))
		} else if g.vn[id] == NoVN {
			g.assign(id, g.fresh())
		}
	default:
		// Heap loads, allocations, calls: a fresh, final number.
		if g.vn[id] == NoVN {
			g.assign(id, g.fresh())
		}
	}
}

func (g *ValueNumbering) hash(key expKey) VN {
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
	return g.vn[d]
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
	return g.vn[g.ov.ParamDef[i]]
}
