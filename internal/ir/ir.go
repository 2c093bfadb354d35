// Package ir defines the register-based intermediate representation
// that MJ methods are lowered into, and the control-flow-graph
// utilities shared by the analysis and instrumentation phases.
//
// The IR plays the role of Jalapeño's HIR in the paper: it is where
// trace pseudo-instructions are inserted (§6), where dominators and
// value numbers are computed for the static weaker-than elimination,
// and what the interpreter executes.
//
// Shape: each function is a CFG of basic blocks; each block holds a
// sequence of Instr values and ends with exactly one terminator
// (Jump, Branch, or Return). Virtual registers are dense ints;
// registers 0..NumParams-1 hold the parameters (register 0 is the
// receiver for instance methods).
package ir

import (
	"fmt"
	"strings"

	"racedet/internal/lang/sem"
	"racedet/internal/lang/token"
)

// Op enumerates IR operations.
type Op int

// IR operations. Terminators are grouped at the end; IsTerminator
// relies on that.
const (
	OpInvalid Op = iota

	OpConst     // Dst = Value
	OpBoolConst // Dst = Value (0/1)
	OpNull      // Dst = null
	OpStrConst  // Dst = Str (print operands only)
	OpMove      // Dst = Src[0]

	OpBin // Dst = Src[0] <BinKind> Src[1]
	OpNeg // Dst = -Src[0]
	OpNot // Dst = !Src[0]

	OpNew      // Dst = new Class (fields zeroed; constructor called separately)
	OpNewArray // Dst = new array, length Src[0], element Elem
	OpArrayLen // Dst = Src[0].length
	OpClassRef // Dst = the class object of Class (used as a static-method lock)

	OpGetField   // Dst = Src[0].Field
	OpPutField   // Src[0].Field = Src[1]
	OpGetStatic  // Dst = Field (static)
	OpPutStatic  // Field = Src[0] (static)
	OpArrayLoad  // Dst = Src[0][Src[1]]
	OpArrayStore // Src[0][Src[1]] = Src[2]

	OpCall // Dst? = call Callee(Src...); Src[0] is the receiver unless Callee.Static

	OpMonEnter  // monitorenter Src[0]
	OpMonExit   // monitorexit Src[0]
	OpStart     // Src[0].start()
	OpJoin      // Src[0].join()
	OpWait      // Src[0].wait(): release the monitor, sleep until notified
	OpNotify    // Src[0].notify(): wake one waiter
	OpNotifyAll // Src[0].notifyAll(): wake every waiter

	OpPrint // print Src[0] (or Str if Src empty)

	// OpTrace is the trace(o, f, L, a) pseudo-instruction of §6. It is
	// inserted by internal/instrument after each memory access that
	// the static datarace set says might race, and lowered by the
	// interpreter into a call to the runtime detector.
	OpTrace

	// Terminators.
	OpJump   // goto Targets[0]
	OpBranch // if Src[0] goto Targets[0] else Targets[1]
	OpReturn // return Src[0]? (Src empty for void)
)

var opNames = [...]string{
	OpInvalid:    "invalid",
	OpConst:      "const",
	OpBoolConst:  "bconst",
	OpNull:       "null",
	OpStrConst:   "sconst",
	OpMove:       "move",
	OpBin:        "bin",
	OpNeg:        "neg",
	OpNot:        "not",
	OpNew:        "new",
	OpNewArray:   "newarray",
	OpArrayLen:   "arraylen",
	OpClassRef:   "classref",
	OpGetField:   "getfield",
	OpPutField:   "putfield",
	OpGetStatic:  "getstatic",
	OpPutStatic:  "putstatic",
	OpArrayLoad:  "aload",
	OpArrayStore: "astore",
	OpCall:       "call",
	OpMonEnter:   "monenter",
	OpMonExit:    "monexit",
	OpStart:      "start",
	OpJoin:       "join",
	OpWait:       "wait",
	OpNotify:     "notify",
	OpNotifyAll:  "notifyall",
	OpPrint:      "print",
	OpTrace:      "trace",
	OpJump:       "jump",
	OpBranch:     "branch",
	OpReturn:     "return",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o == OpJump || o == OpBranch || o == OpReturn }

// BinKind enumerates binary arithmetic/comparison operators. Logical
// && and || are lowered to control flow and never appear here.
type BinKind int

// Binary operator kinds.
const (
	BinAdd BinKind = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinEq
	BinNeq
	BinLt
	BinLeq
	BinGt
	BinGeq
)

var binNames = [...]string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="}

func (b BinKind) String() string { return binNames[b] }

// AccessKind distinguishes reads from writes in trace instructions and
// access events.
type AccessKind int

// Access kinds. Write is the ⊑-bottom of the access lattice
// (Write ⊑ anything).
const (
	Read AccessKind = iota
	Write
)

func (a AccessKind) String() string {
	if a == Write {
		return "WRITE"
	}
	return "READ"
}

// NoReg marks an absent register operand.
const NoReg = -1

// Instr is one IR instruction. Which fields are meaningful depends on
// Op; unused fields are zero.
type Instr struct {
	Op  Op
	Dst int   // destination register, or NoReg
	Src []int // source registers

	Value   int64       // OpConst/OpBoolConst
	Str     string      // OpStrConst
	Bin     BinKind     // OpBin
	Class   *sem.Class  // OpNew/OpClassRef
	Elem    sem.Type    // OpNewArray element type
	Field   *sem.Field  // field ops and field traces
	Callee  *sem.Method // OpCall: static target; dynamic dispatch if !Callee.Static
	Virtual bool        // OpCall: dispatch on the receiver's dynamic class

	// Trace payload (OpTrace). IsArrayTrace distinguishes array-element
	// traces (Field == nil, Src[0] = array ref) from field traces. For
	// static-field traces Src is empty and Field.Static is true.
	// TraceName is the precomputed human-readable location name
	// ("Class.field" or "[]") so the per-event runtime path never
	// allocates.
	Access       AccessKind
	IsArrayTrace bool
	TraceName    string

	// SyncRegions is the stack of lexical synchronized-region IDs
	// enclosing this instruction (outermost first). Populated during
	// lowering for every instruction; the static weaker-than check
	// uses prefix ordering on it to establish e_i.L ⊆ e_j.L (§6.1).
	SyncRegions []int

	// Pos is the source location, used in race reports.
	Pos token.Pos

	// targets holds the control-flow targets of a terminator
	// (OpJump/OpBranch), set via Func.SetTargets. They live on the
	// instruction so the interpreter's branch dispatch is a field load
	// instead of a map lookup — Targets is on the interpreter's
	// per-instruction path and the map probe showed up at ~9% of total
	// CPU on the paper benchmarks.
	targets []*Block
}

// HasDst reports whether the instruction defines its Dst register.
func (in *Instr) HasDst() bool { return in.Dst != NoReg }

// IsAccess reports whether the instruction reads or writes heap memory
// that datarace detection cares about (field or array element).
func (in *Instr) IsAccess() bool {
	switch in.Op {
	case OpGetField, OpPutField, OpGetStatic, OpPutStatic, OpArrayLoad, OpArrayStore:
		return true
	}
	return false
}

// AccessInfo describes the memory access performed by an access
// instruction: its kind, whether it is an array-element access, the
// register holding the object/array reference (NoReg for statics), and
// the field (nil for arrays).
func (in *Instr) AccessInfo() (kind AccessKind, isArray bool, refReg int, field *sem.Field) {
	switch in.Op {
	case OpGetField:
		return Read, false, in.Src[0], in.Field
	case OpPutField:
		return Write, false, in.Src[0], in.Field
	case OpGetStatic:
		return Read, false, NoReg, in.Field
	case OpPutStatic:
		return Write, false, NoReg, in.Field
	case OpArrayLoad:
		return Read, true, in.Src[0], nil
	case OpArrayStore:
		return Write, true, in.Src[0], nil
	}
	panic("ir: AccessInfo on non-access instruction " + in.Op.String())
}

// IsCallLike reports whether the instruction transfers control to
// another method or thread operation; the static weaker-than Exec
// condition (§6, Def. 4) forbids these between the two statements.
func (in *Instr) IsCallLike() bool {
	switch in.Op {
	case OpCall, OpStart, OpJoin, OpWait, OpNotify, OpNotifyAll:
		return true
	}
	return false
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []*Instr
	Preds  []*Block
	Succs  []*Block

	// Comment labels the block's origin (e.g. "while.cond") in dumps.
	Comment string
}

// Terminator returns the block's final instruction, or nil if the
// block is still under construction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Func is one lowered method.
type Func struct {
	Method    *sem.Method
	Name      string // "Class.method"
	NumParams int    // receiver included for instance methods
	NumRegs   int
	Blocks    []*Block // Blocks[0] is entry
	Entry     *Block

	// SyncRegionCount is the number of lexical synchronized regions in
	// the method (method-level synchronization counts as region 0).
	SyncRegionCount int
}

// NewFunc creates an empty function shell for lowering.
func NewFunc(m *sem.Method, name string, numParams int) *Func {
	return &Func{
		Method:    m,
		Name:      name,
		NumParams: numParams,
		NumRegs:   numParams,
	}
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() int {
	r := f.NumRegs
	f.NumRegs++
	return r
}

// NewBlock appends a new empty block.
func (f *Func) NewBlock(comment string) *Block {
	b := &Block{ID: len(f.Blocks), Comment: comment}
	f.Blocks = append(f.Blocks, b)
	if f.Entry == nil {
		f.Entry = b
	}
	return b
}

// SetTargets records the control-flow targets of a terminator and
// wires predecessor/successor edges.
func (f *Func) SetTargets(from *Block, in *Instr, targets ...*Block) {
	in.targets = targets
	for _, t := range targets {
		from.Succs = append(from.Succs, t)
		t.Preds = append(t.Preds, from)
	}
}

// Targets returns the control-flow targets of a terminator.
func (f *Func) Targets(in *Instr) []*Block { return in.targets }

// Targets returns the instruction's control-flow targets (terminators
// only; nil otherwise).
func (in *Instr) Targets() []*Block { return in.targets }

// ReachableBlocks returns the set of blocks reachable from entry in
// reverse-postorder.
func (f *Func) ReachableBlocks() []*Block {
	seen := make([]bool, len(f.Blocks))
	var order []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b.ID] {
			return
		}
		seen[b.ID] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		order = append(order, b)
	}
	if f.Entry != nil {
		dfs(f.Entry)
	}
	// reverse to get RPO
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// Program is the whole lowered program.
type Program struct {
	Sem    *sem.Program
	Funcs  []*Func
	FuncOf map[*sem.Method]*Func
}

// FuncByName finds a function by its "Class.method" name (tests and
// tooling).
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Dumping

// String renders the function as readable text.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (params=%d regs=%d)\n", f.Name, f.NumParams, f.NumRegs)
	for _, blk := range f.Blocks {
		comment := ""
		if blk.Comment != "" {
			comment = " ; " + blk.Comment
		}
		fmt.Fprintf(&b, "b%d:%s\n", blk.ID, comment)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "    %s\n", f.InstrString(in))
		}
	}
	return b.String()
}

// InstrString renders one instruction.
func (f *Func) InstrString(in *Instr) string {
	reg := func(r int) string { return fmt.Sprintf("r%d", r) }
	srcs := func() string {
		parts := make([]string, len(in.Src))
		for i, s := range in.Src {
			parts[i] = reg(s)
		}
		return strings.Join(parts, ", ")
	}
	dst := ""
	if in.HasDst() {
		dst = reg(in.Dst) + " = "
	}
	body := ""
	switch in.Op {
	case OpConst, OpBoolConst:
		body = fmt.Sprintf("%s %d", in.Op, in.Value)
	case OpStrConst:
		body = fmt.Sprintf("%s %q", in.Op, in.Str)
	case OpBin:
		body = fmt.Sprintf("%s %s %s", reg(in.Src[0]), in.Bin, reg(in.Src[1]))
	case OpNew:
		body = fmt.Sprintf("new %s", in.Class.Name)
	case OpClassRef:
		body = fmt.Sprintf("classref %s", in.Class.Name)
	case OpNewArray:
		body = fmt.Sprintf("newarray %s[%s]", in.Elem, reg(in.Src[0]))
	case OpGetField, OpPutField:
		body = fmt.Sprintf("%s %s [%s]", in.Op, in.Field.QualifiedName(), srcs())
	case OpGetStatic, OpPutStatic:
		body = fmt.Sprintf("%s %s [%s]", in.Op, in.Field.QualifiedName(), srcs())
	case OpCall:
		v := ""
		if in.Virtual {
			v = " virtual"
		}
		body = fmt.Sprintf("call%s %s(%s)", v, in.Callee.QualifiedName(), srcs())
	case OpTrace:
		what := "?"
		switch {
		case in.IsArrayTrace:
			what = fmt.Sprintf("array %s", srcs())
		case in.Field != nil && in.Field.Static:
			what = fmt.Sprintf("static %s", in.Field.QualifiedName())
		case in.Field != nil:
			what = fmt.Sprintf("%s.%s", srcs(), in.Field.Name)
		}
		body = fmt.Sprintf("trace %s %s sync=%v", what, in.Access, in.SyncRegions)
	case OpJump:
		body = fmt.Sprintf("jump b%d", in.targets[0].ID)
	case OpBranch:
		body = fmt.Sprintf("branch %s b%d b%d", reg(in.Src[0]), in.targets[0].ID, in.targets[1].ID)
	case OpReturn:
		if len(in.Src) > 0 {
			body = fmt.Sprintf("return %s", reg(in.Src[0]))
		} else {
			body = "return"
		}
	default:
		if len(in.Src) > 0 {
			body = fmt.Sprintf("%s %s", in.Op, srcs())
		} else {
			body = in.Op.String()
		}
	}
	return dst + body
}

// CountInstrs returns the number of instructions satisfying pred
// across all reachable blocks (test/bench helper).
func (f *Func) CountInstrs(pred func(*Instr) bool) int {
	n := 0
	for _, b := range f.ReachableBlocks() {
		for _, in := range b.Instrs {
			if pred(in) {
				n++
			}
		}
	}
	return n
}
