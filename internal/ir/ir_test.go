package ir

import (
	"strings"
	"testing"

	"racedet/internal/lang/sem"
)

func TestOpStrings(t *testing.T) {
	for op := OpInvalid; op <= OpReturn; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "Op(") {
			t.Errorf("op %d has no name", int(op))
		}
	}
}

func TestIsTerminator(t *testing.T) {
	for _, op := range []Op{OpJump, OpBranch, OpReturn} {
		if !op.IsTerminator() {
			t.Errorf("%v must be a terminator", op)
		}
	}
	for _, op := range []Op{OpConst, OpCall, OpTrace, OpMonExit} {
		if op.IsTerminator() {
			t.Errorf("%v must not be a terminator", op)
		}
	}
}

func TestAccessInfo(t *testing.T) {
	f := &sem.Field{Name: "f"}
	cases := []struct {
		in      *Instr
		kind    AccessKind
		isArray bool
		refReg  int
		field   *sem.Field
	}{
		{&Instr{Op: OpGetField, Src: []int{3}, Field: f}, Read, false, 3, f},
		{&Instr{Op: OpPutField, Src: []int{3, 4}, Field: f}, Write, false, 3, f},
		{&Instr{Op: OpGetStatic, Field: f}, Read, false, NoReg, f},
		{&Instr{Op: OpPutStatic, Src: []int{5}, Field: f}, Write, false, NoReg, f},
		{&Instr{Op: OpArrayLoad, Src: []int{6, 7}}, Read, true, 6, nil},
		{&Instr{Op: OpArrayStore, Src: []int{6, 7, 8}}, Write, true, 6, nil},
	}
	for _, c := range cases {
		kind, isArray, refReg, field := c.in.AccessInfo()
		if kind != c.kind || isArray != c.isArray || refReg != c.refReg || field != c.field {
			t.Errorf("%v: AccessInfo = (%v,%v,%v,%v)", c.in.Op, kind, isArray, refReg, field)
		}
		if !c.in.IsAccess() {
			t.Errorf("%v must be an access", c.in.Op)
		}
	}
	if (&Instr{Op: OpConst}).IsAccess() {
		t.Error("const is not an access")
	}
}

func TestAccessInfoPanicsOnNonAccess(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	(&Instr{Op: OpConst}).AccessInfo()
}

func TestIsCallLike(t *testing.T) {
	for _, op := range []Op{OpCall, OpStart, OpJoin} {
		if !(&Instr{Op: op}).IsCallLike() {
			t.Errorf("%v must be call-like", op)
		}
	}
	if (&Instr{Op: OpMonEnter}).IsCallLike() {
		t.Error("monitorenter is not call-like")
	}
}

func TestFuncConstruction(t *testing.T) {
	f := NewFunc(nil, "T.m", 2)
	if r := f.NewReg(); r != 2 {
		t.Errorf("first fresh reg = %d, want 2 (params occupy 0..1)", r)
	}
	b0 := f.NewBlock("entry")
	b1 := f.NewBlock("next")
	if f.Entry != b0 {
		t.Error("first block must be entry")
	}
	j := &Instr{Op: OpJump, Dst: NoReg}
	b0.Instrs = append(b0.Instrs, j)
	f.SetTargets(b0, j, b1)
	if len(b0.Succs) != 1 || b0.Succs[0] != b1 || len(b1.Preds) != 1 {
		t.Error("edges not wired")
	}
	if got := f.Targets(j); len(got) != 1 || got[0] != b1 {
		t.Error("Targets lookup failed")
	}
	ret := &Instr{Op: OpReturn, Dst: NoReg}
	b1.Instrs = append(b1.Instrs, ret)

	rb := f.ReachableBlocks()
	if len(rb) != 2 || rb[0] != b0 {
		t.Errorf("reachable = %v", rb)
	}
}

func TestUnreachableBlockExcluded(t *testing.T) {
	f := NewFunc(nil, "T.m", 0)
	b0 := f.NewBlock("entry")
	b0.Instrs = append(b0.Instrs, &Instr{Op: OpReturn, Dst: NoReg})
	dead := f.NewBlock("dead")
	dead.Instrs = append(dead.Instrs, &Instr{Op: OpReturn, Dst: NoReg})
	rb := f.ReachableBlocks()
	if len(rb) != 1 {
		t.Errorf("reachable = %d blocks, want 1", len(rb))
	}
}

func TestTerminatorNilWhileOpen(t *testing.T) {
	f := NewFunc(nil, "T.m", 0)
	b := f.NewBlock("entry")
	if b.Terminator() != nil {
		t.Error("empty block has no terminator")
	}
	b.Instrs = append(b.Instrs, &Instr{Op: OpConst, Dst: 0})
	if b.Terminator() != nil {
		t.Error("open block has no terminator")
	}
	b.Instrs = append(b.Instrs, &Instr{Op: OpReturn, Dst: NoReg})
	if b.Terminator() == nil {
		t.Error("terminated block must report its terminator")
	}
}
