package ssa

import (
	"math/rand"
	"testing"

	"racedet/internal/ir"
	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
)

// DefVN returns the value number of the definition made by in.
func (g *ValueNumbering) DefVN(in *ir.Instr) VN {
	id, ok := g.ov.DefOf[in]
	if !ok {
		return NoVN
	}
	return g.vn[id]
}

// buildFn lowers src and returns the named function.
func buildFn(t *testing.T, src, name string) *ir.Func {
	t.Helper()
	prog, err := parser.Parse("t.mj", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	res := lower.Lower(sp)
	f := res.Prog.FuncByName(name)
	if f == nil {
		t.Fatalf("no function %s", name)
	}
	return f
}

// bruteDominates checks dominance by exhaustive path enumeration: a
// dominates b iff removing a makes b unreachable from entry.
func bruteDominates(f *ir.Func, a, b *ir.Block) bool {
	if a == b {
		return true
	}
	seen := map[*ir.Block]bool{a: true} // block a is "removed"
	var stack []*ir.Block
	if f.Entry != a {
		stack = append(stack, f.Entry)
		seen[f.Entry] = true
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == b {
			return false // reached b without passing a
		}
		for _, s := range x.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}

const cfgHeavy = `
class A {
    int f;
    int m(int x, boolean c) {
        int r = 0;
        if (c) { r = x; } else { r = -x; }
        while (r > 0) {
            if (r % 2 == 0) { r = r / 2; } else { r = r - 1; }
            for (int i = 0; i < 3; i++) {
                if (i == x) { break; }
                r = r + i;
                if (r > 100) { continue; }
                r = r - 1;
            }
        }
        if (c && x > 0 || !c) { r = r + 1; }
        return r;
    }
}
class M { static void main() { } }`

func TestDominatorsAgainstBruteForce(t *testing.T) {
	f := buildFn(t, cfgHeavy, "A.m")
	dom := BuildDomTree(f)
	blocks := dom.RPO()
	for _, a := range blocks {
		for _, b := range blocks {
			want := bruteDominates(f, a, b)
			got := dom.Dominates(a, b)
			if got != want {
				t.Errorf("Dominates(b%d, b%d) = %v, want %v", a.ID, b.ID, got, want)
			}
		}
	}
}

func TestIdomProperties(t *testing.T) {
	f := buildFn(t, cfgHeavy, "A.m")
	dom := BuildDomTree(f)
	for _, b := range dom.RPO() {
		id := dom.idom[b.ID]
		if b == f.Entry {
			if id != nil {
				t.Error("entry must have no idom")
			}
			continue
		}
		if id == nil {
			t.Errorf("b%d lacks an idom", b.ID)
			continue
		}
		if !dom.Dominates(id, b) || id == b {
			t.Errorf("idom(b%d)=b%d does not strictly dominate it", b.ID, id.ID)
		}
		// The idom must be dominated by every other dominator of b.
		for _, d := range dom.RPO() {
			if d != b && dom.Dominates(d, b) && !dom.Dominates(d, id) {
				t.Errorf("b%d dominates b%d but not its idom b%d", d.ID, b.ID, id.ID)
			}
		}
	}
}

func TestFrontiersDefinition(t *testing.T) {
	f := buildFn(t, cfgHeavy, "A.m")
	dom := BuildDomTree(f)
	df := dom.Frontiers()
	// DF(b) = {y : b dominates a pred of y, b does not strictly
	// dominate y}. Verify against the definition.
	for _, b := range dom.RPO() {
		want := map[*ir.Block]bool{}
		for _, y := range dom.RPO() {
			for _, p := range y.Preds {
				if !dom.Reachable(p) {
					continue
				}
				if dom.Dominates(b, p) && (y == b || !dom.Dominates(b, y)) {
					want[y] = true
				}
			}
		}
		got := map[*ir.Block]bool{}
		for _, y := range df[b] {
			got[y] = true
		}
		if len(got) != len(want) {
			t.Errorf("DF(b%d): got %d entries, want %d", b.ID, len(got), len(want))
			continue
		}
		for y := range want {
			if !got[y] {
				t.Errorf("DF(b%d) missing b%d", b.ID, y.ID)
			}
		}
	}
}

func TestSSAUseDefDominance(t *testing.T) {
	// Every use's reaching definition must dominate the use (for
	// instruction defs) or be a phi at a dominating block head.
	f := buildFn(t, cfgHeavy, "A.m")
	dom := BuildDomTree(f)
	ov := Build(f, dom)

	instrBlock := map[*ir.Instr]*ir.Block{}
	instrPos := map[*ir.Instr]int{}
	for _, b := range dom.RPO() {
		for i, in := range b.Instrs {
			instrBlock[in] = b
			instrPos[in] = i
		}
	}

	for _, b := range dom.RPO() {
		for i, in := range b.Instrs {
			for idx := range in.Src {
				def := ov.Use(in, idx)
				if def == NoDef {
					t.Errorf("%s b%d[%d] operand %d has no reaching def", f.Name, b.ID, i, idx)
					continue
				}
				switch ov.defKind[def] {
				case defInstr:
					di := ov.defInst[def]
					if !dom.DominatesInstr(instrBlock[di], instrPos[di], b, i) {
						t.Errorf("def %s does not dominate use in b%d[%d]", f.InstrString(di), b.ID, i)
					}
				case defPhiKind:
					phi := ov.defPhi[def]
					if !dom.Dominates(phi.Block, b) {
						t.Errorf("phi at b%d does not dominate use in b%d", phi.Block.ID, b.ID)
					}
				case defParam:
					// Always fine.
				}
			}
		}
	}
}

func TestSSAInterpretationAgreement(t *testing.T) {
	// Randomized: simulate the IR concretely while tracking which
	// DefID produced each register's current value; at every use the
	// overlay's reaching def must match the def that actually produced
	// the value. This validates phi placement and renaming end to end.
	f := buildFn(t, cfgHeavy, "A.m")
	dom := BuildDomTree(f)
	ov := Build(f, dom)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		// Concrete state: per register the concrete value and the
		// SSA def that produced it.
		vals := make([]int64, f.NumRegs)
		defs := make([]DefID, f.NumRegs)
		for i := range defs {
			defs[i] = NoDef
		}
		vals[1] = int64(rng.Intn(20) - 5) // x
		if rng.Intn(2) == 0 {
			vals[2] = 1 // c
		}
		for i := 0; i < f.NumParams; i++ {
			defs[i] = ov.ParamDef[i]
		}

		block := f.Entry
		var prevBlock *ir.Block
		steps := 0
		for steps < 10000 {
			// Apply phis for this block first: their reaching def is
			// the phi itself.
			for _, phi := range ov.Phis[block] {
				// Determine which pred we came from to fetch the
				// matching arg; the arg's def must equal defs[reg].
				if prevBlock != nil {
					for pi, p := range block.Preds {
						if p == prevBlock && phi.Args[pi] != NoDef {
							if phi.Args[pi] != defs[phi.Reg] {
								t.Fatalf("phi arg mismatch at b%d reg r%d: overlay says %d, execution had %d",
									block.ID, phi.Reg, phi.Args[pi], defs[phi.Reg])
							}
						}
					}
				}
				defs[phi.Reg] = phi.ID
			}
			terminated := false
			for i, in := range block.Instrs {
				steps++
				// Check operands.
				for idx, r := range in.Src {
					want := ov.Use(in, idx)
					if want != defs[r] {
						t.Fatalf("use mismatch at %s b%d[%d] operand %d: overlay %d, execution %d",
							f.Name, block.ID, i, idx, want, defs[r])
					}
				}
				// Execute enough semantics to drive control flow.
				switch in.Op {
				case ir.OpConst, ir.OpBoolConst:
					vals[in.Dst] = in.Value
				case ir.OpMove:
					vals[in.Dst] = vals[in.Src[0]]
				case ir.OpNeg:
					vals[in.Dst] = -vals[in.Src[0]]
				case ir.OpNot:
					if vals[in.Src[0]] == 0 {
						vals[in.Dst] = 1
					} else {
						vals[in.Dst] = 0
					}
				case ir.OpBin:
					a, c := vals[in.Src[0]], vals[in.Src[1]]
					var v int64
					switch in.Bin {
					case ir.BinAdd:
						v = a + c
					case ir.BinSub:
						v = a - c
					case ir.BinMul:
						v = a * c
					case ir.BinDiv:
						if c != 0 {
							v = a / c
						}
					case ir.BinMod:
						if c != 0 {
							v = a % c
						}
					case ir.BinEq:
						if a == c {
							v = 1
						}
					case ir.BinNeq:
						if a != c {
							v = 1
						}
					case ir.BinLt:
						if a < c {
							v = 1
						}
					case ir.BinLeq:
						if a <= c {
							v = 1
						}
					case ir.BinGt:
						if a > c {
							v = 1
						}
					case ir.BinGeq:
						if a >= c {
							v = 1
						}
					}
					vals[in.Dst] = v
				case ir.OpGetField:
					vals[in.Dst] = int64(rng.Intn(5))
				case ir.OpPutField:
					// no-op
				case ir.OpJump:
					prevBlock = block
					block = f.Targets(in)[0]
					terminated = true
				case ir.OpBranch:
					prevBlock = block
					if vals[in.Src[0]] != 0 {
						block = f.Targets(in)[0]
					} else {
						block = f.Targets(in)[1]
					}
					terminated = true
				case ir.OpReturn:
					terminated = true
					block = nil
				}
				if in.HasDst() {
					defs[in.Dst] = ov.DefOf[in]
				}
				if terminated {
					break
				}
			}
			if block == nil {
				break
			}
			if !terminated {
				t.Fatalf("block b%d did not terminate", block.ID)
			}
		}
	}
}

func TestGVNBasics(t *testing.T) {
	src := `
class A {
    int f;
    void m(A p) {
        A q = p;        // move: same VN as p
        int a = 1 + 2;
        int b = 1 + 2;  // same expression: same VN
        int c = 2 + 1;  // different operand order: (conservatively) different
        p.f = a;
        q.f = b;
    }
}
class M { static void main() { } }`
	f := buildFn(t, src, "A.m")
	dom := BuildDomTree(f)
	ov := Build(f, dom)
	gvn := BuildGVN(ov)

	// Collect the putfield instructions; their object operands p and q
	// must share a value number.
	var puts []*ir.Instr
	for _, b := range dom.RPO() {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPutField {
				puts = append(puts, in)
			}
		}
	}
	if len(puts) != 2 {
		t.Fatalf("putfields = %d", len(puts))
	}
	v1 := gvn.OperandVN(puts[0], 0)
	v2 := gvn.OperandVN(puts[1], 0)
	if v1 == NoVN || v1 != v2 {
		t.Errorf("p and q must share a VN: %v vs %v", v1, v2)
	}
	// The stored values a and b (1+2 twice) must share a VN as well.
	a := gvn.OperandVN(puts[0], 1)
	b := gvn.OperandVN(puts[1], 1)
	if a == NoVN || a != b {
		t.Errorf("identical expressions must share a VN: %v vs %v", a, b)
	}
}

func TestGVNHeapLoadsAreFresh(t *testing.T) {
	src := `
class A {
    A next;
    void m(A p) {
        A x = p.next;
        A y = p.next;  // a second load: must NOT share x's VN
        x.next = y;
    }
}
class M { static void main() { } }`
	f := buildFn(t, src, "A.m")
	dom := BuildDomTree(f)
	ov := Build(f, dom)
	gvn := BuildGVN(ov)
	var loads []*ir.Instr
	for _, b := range dom.RPO() {
		for _, in := range b.Instrs {
			if in.Op == ir.OpGetField {
				loads = append(loads, in)
			}
		}
	}
	if len(loads) != 2 {
		t.Fatalf("loads = %d", len(loads))
	}
	if gvn.DefVN(loads[0]) == gvn.DefVN(loads[1]) {
		t.Error("two heap loads must have distinct VNs (no unsound CSE)")
	}
}

func TestGVNDistinctConstsDiffer(t *testing.T) {
	src := `
class A {
    void m(int[] a) {
        a[1] = 7;
        a[2] = 8;
    }
}
class M { static void main() { } }`
	f := buildFn(t, src, "A.m")
	dom := BuildDomTree(f)
	ov := Build(f, dom)
	gvn := BuildGVN(ov)
	var consts []*ir.Instr
	for _, b := range dom.RPO() {
		for _, in := range b.Instrs {
			if in.Op == ir.OpConst && (in.Value == 7 || in.Value == 8) {
				consts = append(consts, in)
			}
		}
	}
	if len(consts) != 2 {
		t.Fatalf("consts = %d", len(consts))
	}
	if gvn.DefVN(consts[0]) == gvn.DefVN(consts[1]) {
		t.Error("different constants must differ in VN")
	}
}
