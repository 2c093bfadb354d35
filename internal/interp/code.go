package interp

import (
	"sort"

	"racedet/internal/ir"
	"racedet/internal/lang/sem"
	"racedet/internal/lang/token"
	"racedet/internal/rt/event"
)

// opcode is the operation of one pre-decoded instruction. Every IR
// instruction decodes to exactly one op, so step counts, quanta and
// schedules are those of the IR; the decoder only specializes the
// operation (one opcode per binary operator, per call and trace shape).
type opcode uint8

const (
	opInvalid opcode = iota // unhandled IR op: fails when executed
	opFellOff               // past the end of a block without terminator: fails, not counted
	opConst                 // regs[dst] = imm (const, bconst, null)
	opStr                   // regs[dst] = fresh string object of in.Str
	opMove                  // regs[dst] = regs[a]
	opAdd                   // regs[dst] = regs[a] + regs[b], and so on
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNeq
	opLt
	opLeq
	opGt
	opGeq
	opNeg
	opNot
	opNew         // regs[dst] = new classes[imm]
	opNewArray    // regs[dst] = new in.Elem[regs[a]]
	opArrayLen    // regs[dst] = regs[a].length
	opClassRef    // regs[dst] = class object in slot x
	opGetField    // regs[dst] = regs[a].Fields[x]
	opPutField    // regs[a].Fields[x] = regs[b]
	opGetStatic   // regs[dst] = class object in slot y .Fields[x]
	opPutStatic   // class object in slot y .Fields[x] = regs[a]
	opArrayLoad   // regs[dst] = regs[a][regs[b]]
	opArrayStore  // regs[a][regs[b]] = regs[c]
	opCall        // call callees[imm] with args[x:x+y]
	opCallVirtual // call regs[args[x]].vtable[imm] with args[x:x+y]
	opMonEnter    // monitorenter regs[a]
	opMonExit     // monitorexit regs[a]
	opStart       // regs[a].start()
	opJoin        // regs[a].join()
	opWait        // regs[a].wait()
	opNotify      // regs[a].notify()
	opNotifyAll   // regs[a].notifyAll()
	opPrint       // print regs[a], or in.Str when a is ir.NoReg
	opTraceField  // access event on (regs[a], slot x)
	opTraceArray  // access event on (regs[a], ArraySlot)
	opTraceStatic // access event on (class object in slot y, slot x)
	opJump        // pc = x
	opBranch      // pc = x if regs[a] else y
	opReturn      // return regs[a], or nothing when a is ir.NoReg
)

// op is one pre-decoded instruction with every operand resolved:
// registers inline, field indices, class-object slots, flat branch
// targets, call targets, classes and trace sites. It is 48 bytes; the
// operands too wide to inline sit in tables of the function, indexed
// by imm. The source instruction is kept for the cold operands:
// positions of faults and allocations, print and newarray details.
type op struct {
	code opcode
	kind event.Kind // trace ops
	dst  int32
	a    int32
	b    int32
	c    int32
	x    int32
	y    int32
	imm  int64 // constant, or index into callees, classes or sites, or vtable slot
	in   *ir.Instr
}

// traceSite is what an access event carries about its instruction.
type traceSite struct {
	pos  token.Pos
	name string // "Class.field" or "[]"
}

// funcCode is one decoded function: its ops in block order, so a flat
// pc indexes ops and falling through within a block is pc+1. Methods
// that are not lowered (builtins, the Thread.run stub) get a funcCode
// with no ops, so call sites resolve them once too.
type funcCode struct {
	fn      *ir.Func // nil when the method has no lowered body
	method  *sem.Method
	ops     []op
	args    []int32      // call-argument registers, windowed by call ops
	callees []*funcCode  // opCall targets
	classes []*classCode // opNew classes
	sites   []traceSite  // trace ops' sites
	starts  []int32      // flat pc of the first op of fn.Blocks[i]
	numRegs int
}

// classCode is the dispatch table of one instantiated class. Objects
// made by opNew point at it, so a virtual call is one slice index
// instead of a walk of method maps up the superclass chain.
type classCode struct {
	class   *sem.Class
	vtable  []*funcCode // by virtual slot; nil when the class has no such method
	run     *funcCode   // the resolved run() for Thread.start, nil if none
	nfields int
}

// Code is a lowered program decoded for the interpreter. It is
// immutable once built, so any number of machines, on any number of
// goroutines, can run one Code.
type Code struct {
	main *funcCode
	// classOf maps a class-object slot to its class; each machine keeps
	// its class objects in a slice indexed the same way.
	classOf []*sem.Class
}

// decoder builds a Code.
type decoder struct {
	prog     *ir.Program
	funcs    map[*sem.Method]*funcCode
	classes  map[*sem.Class]*classCode
	objSlot  map[*sem.Class]int32
	vslot    map[string]int32
	classOf  []*sem.Class
	blockPCs map[*ir.Block]int32
}

// Decode lowers every function of prog into flat op arrays. The
// program must not be changed afterwards.
func Decode(prog *ir.Program) *Code {
	d := &decoder{
		prog:     prog,
		funcs:    make(map[*sem.Method]*funcCode),
		classes:  make(map[*sem.Class]*classCode),
		objSlot:  make(map[*sem.Class]int32),
		vslot:    make(map[string]int32),
		blockPCs: make(map[*ir.Block]int32),
	}
	// Lowering puts every function in both prog.Funcs and prog.FuncOf,
	// so after this loop any funcFor miss is a method without a body.
	for _, fn := range prog.Funcs {
		if fc := d.funcFor(fn.Method); fc.fn != nil {
			d.decodeFunc(fc)
		}
	}
	// Dispatch tables last: only now are all virtual slots known.
	for _, cc := range d.classes {
		cc.vtable = make([]*funcCode, len(d.vslot))
		for name, slot := range d.vslot {
			if m := cc.class.ResolveOverride(name); m != nil {
				cc.vtable[slot] = d.funcFor(m)
			}
		}
		if run := cc.class.ResolveOverride("run"); run != nil && run.Builtin == sem.NotBuiltin {
			cc.run = d.funcFor(run)
		}
	}
	c := &Code{classOf: d.classOf}
	if m := prog.Sem.Main; m != nil && prog.FuncOf[m] != nil {
		c.main = d.funcFor(m)
	}
	return c
}

// funcFor returns the (possibly not yet decoded) code of m.
func (d *decoder) funcFor(m *sem.Method) *funcCode {
	if fc := d.funcs[m]; fc != nil {
		return fc
	}
	fc := &funcCode{method: m}
	if m.Builtin != sem.BuiltinRunStub {
		fc.fn = d.prog.FuncOf[m]
	}
	d.funcs[m] = fc
	return fc
}

func (d *decoder) classFor(cl *sem.Class) *classCode {
	if cc := d.classes[cl]; cc != nil {
		return cc
	}
	cc := &classCode{class: cl, nfields: len(cl.InstanceSlots())}
	d.classes[cl] = cc
	return cc
}

// classSlot returns the class-object slot of cl.
func (d *decoder) classSlot(cl *sem.Class) int32 {
	if s, ok := d.objSlot[cl]; ok {
		return s
	}
	s := int32(len(d.classOf))
	d.objSlot[cl] = s
	d.classOf = append(d.classOf, cl)
	return s
}

func (d *decoder) virtualSlot(name string) int32 {
	if s, ok := d.vslot[name]; ok {
		return s
	}
	s := int32(len(d.vslot))
	d.vslot[name] = s
	return s
}

var binOps = [...]opcode{
	ir.BinAdd: opAdd, ir.BinSub: opSub, ir.BinMul: opMul, ir.BinDiv: opDiv, ir.BinMod: opMod,
	ir.BinEq: opEq, ir.BinNeq: opNeq, ir.BinLt: opLt, ir.BinLeq: opLeq, ir.BinGt: opGt, ir.BinGeq: opGeq,
}

func (d *decoder) decodeFunc(fc *funcCode) {
	fn := fc.fn
	fc.numRegs = fn.NumRegs
	// Lay the blocks out in order. A block that does not end in a
	// terminator gets a trailing opFellOff, so every block has an op
	// and falling off one never runs into the next.
	fc.starts = make([]int32, len(fn.Blocks))
	n := int32(0)
	for i, b := range fn.Blocks {
		fc.starts[i] = n
		d.blockPCs[b] = n
		n += int32(len(b.Instrs))
		if b.Terminator() == nil {
			n++
		}
	}
	fc.ops = make([]op, 0, n)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			fc.ops = append(fc.ops, d.decodeInstr(fc, in))
		}
		if b.Terminator() == nil {
			fc.ops = append(fc.ops, op{code: opFellOff, x: int32(b.ID)})
		}
	}
}

func (d *decoder) decodeInstr(fc *funcCode, in *ir.Instr) op {
	o := op{dst: int32(in.Dst), a: ir.NoReg, b: ir.NoReg, c: ir.NoReg, in: in}
	for i, r := range in.Src {
		switch i {
		case 0:
			o.a = int32(r)
		case 1:
			o.b = int32(r)
		case 2:
			o.c = int32(r)
		}
	}
	switch in.Op {
	case ir.OpConst, ir.OpBoolConst:
		o.code, o.imm = opConst, in.Value
	case ir.OpNull:
		o.code = opConst
	case ir.OpStrConst:
		o.code = opStr
	case ir.OpMove:
		o.code = opMove
	case ir.OpBin:
		if int(in.Bin) < len(binOps) {
			o.code = binOps[in.Bin]
		}
	case ir.OpNeg:
		o.code = opNeg
	case ir.OpNot:
		o.code = opNot
	case ir.OpNew:
		o.code, o.imm = opNew, int64(len(fc.classes))
		fc.classes = append(fc.classes, d.classFor(in.Class))
	case ir.OpNewArray:
		o.code = opNewArray
	case ir.OpArrayLen:
		o.code = opArrayLen
	case ir.OpClassRef:
		o.code, o.x = opClassRef, d.classSlot(in.Class)
	case ir.OpGetField:
		o.code, o.x = opGetField, int32(in.Field.Index)
	case ir.OpPutField:
		o.code, o.x = opPutField, int32(in.Field.Index)
	case ir.OpGetStatic:
		o.code, o.x, o.y = opGetStatic, int32(in.Field.Index), d.classSlot(in.Field.Class)
	case ir.OpPutStatic:
		o.code, o.x, o.y = opPutStatic, int32(in.Field.Index), d.classSlot(in.Field.Class)
	case ir.OpArrayLoad:
		o.code = opArrayLoad
	case ir.OpArrayStore:
		o.code = opArrayStore
	case ir.OpCall:
		o.x, o.y = int32(len(fc.args)), int32(len(in.Src))
		for _, r := range in.Src {
			fc.args = append(fc.args, int32(r))
		}
		if in.Virtual {
			o.code, o.imm = opCallVirtual, int64(d.virtualSlot(in.Callee.Name))
		} else {
			o.code, o.imm = opCall, int64(len(fc.callees))
			fc.callees = append(fc.callees, d.funcFor(in.Callee))
		}
	case ir.OpMonEnter:
		o.code = opMonEnter
	case ir.OpMonExit:
		o.code = opMonExit
	case ir.OpStart:
		o.code = opStart
	case ir.OpJoin:
		o.code = opJoin
	case ir.OpWait:
		o.code = opWait
	case ir.OpNotify:
		o.code = opNotify
	case ir.OpNotifyAll:
		o.code = opNotifyAll
	case ir.OpPrint:
		o.code = opPrint
	case ir.OpTrace:
		o.imm = int64(len(fc.sites))
		fc.sites = append(fc.sites, traceSite{pos: in.Pos, name: in.TraceName})
		o.kind = event.Read
		if in.Access == ir.Write {
			o.kind = event.Write
		}
		switch {
		case in.IsArrayTrace:
			o.code = opTraceArray
		case in.Field.Static:
			o.code, o.x, o.y = opTraceStatic, event.StaticSlot(in.Field.Index), d.classSlot(in.Field.Class)
		default:
			o.code, o.x = opTraceField, int32(in.Field.Index)
		}
	case ir.OpJump:
		o.code, o.x = opJump, d.blockPCs[in.Targets()[0]]
	case ir.OpBranch:
		t := in.Targets()
		o.code, o.x, o.y = opBranch, d.blockPCs[t[0]], d.blockPCs[t[1]]
	case ir.OpReturn:
		o.code = opReturn
	}
	return o
}

// where maps a flat pc of fc back to its block and the instruction's
// index in it, for thread dumps.
func (fc *funcCode) where(pc int) (*ir.Block, int) {
	i := sort.Search(len(fc.starts), func(i int) bool { return int(fc.starts[i]) > pc }) - 1
	return fc.fn.Blocks[i], pc - int(fc.starts[i])
}
