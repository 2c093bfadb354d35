// Package interp executes lowered MJ programs on a deterministic
// multithreaded interpreter.
//
// The interpreter plays the role of the paper's Jalapeño runtime: it
// provides reentrant monitors, thread start/join, a heap with stable
// object identities (no GC, mirroring the paper's "enough memory that
// GC does not occur"), and it feeds the runtime detector through the
// event.Sink interface — monitor enter/exit, thread lifecycle, and one
// Access event per executed trace pseudo-instruction.
//
// Scheduling is deterministic: a seeded scheduler preempts threads at
// a fixed (or seed-jittered) instruction quantum, so every experiment
// in EXPERIMENTS.md reproduces exactly. Determinism is safe here
// because the detector's race definition is lockset-based, not
// order-based: any interleaving exposes the same locksets.
package interp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"racedet/internal/ir"
	"racedet/internal/lang/sem"
	"racedet/internal/lang/token"
	"racedet/internal/rt/event"
)

// Value is an MJ runtime value: an int/bool payload or an object
// reference. The invariant is I == 0 for references and Ref == nil for
// primitives, so equality can compare both fields.
type Value struct {
	I   int64
	Ref *Object
}

// BoolVal makes a boolean value.
func BoolVal(b bool) Value {
	if b {
		return Value{I: 1}
	}
	return Value{}
}

// Bool reads the value as a boolean.
func (v Value) Bool() bool { return v.I != 0 }

// Object is a heap object: a class instance, an array, or a class
// object (the per-class lock-and-statics holder).
type Object struct {
	ID       event.ObjID
	Class    *sem.Class // instance class, or the class a class-object represents
	IsArray  bool
	IsClass  bool
	Fields   []Value // instance slots, or static slots for class objects
	Elems    []Value // array storage
	ElemType sem.Type
	Str      string // string literals
	AllocPos token.Pos

	// Monitor state.
	monOwner *Thread
	monDepth int
	waitSet  []*Thread // threads parked in Object.wait

	// Thread-object state.
	thread  *Thread // the running thread, once started
	started bool

	cls *classCode // dispatch table of instances made by new
}

// Describe renders the object for race reports.
func (o *Object) Describe() string {
	switch {
	case o.IsClass:
		return fmt.Sprintf("class %s", o.Class.Name)
	case o.IsArray:
		return fmt.Sprintf("array#%d (alloc %s)", int64(o.ID), o.AllocPos)
	default:
		return fmt.Sprintf("%s#%d (alloc %s)", o.Class.Name, int64(o.ID), o.AllocPos)
	}
}

// threadState is a thread's scheduler state.
type threadState int8

const (
	stateRunnable threadState = iota
	stateBlocked              // waiting to acquire a monitor
	stateJoining              // waiting for another thread to finish
	stateWaiting              // in a monitor's wait set (Object.wait)
	stateFinished
)

// Thread is one interpreter thread.
type Thread struct {
	ID      event.ThreadID
	Obj     *Object // the Thread object; nil for main
	frames  []frame
	state   threadState
	waitMon *Object // monitor being waited for (stateBlocked/stateWaiting)
	waitThr *Thread // thread being joined (stateJoining)
	// savedDepth preserves the reentrancy depth across Object.wait:
	// wait releases the monitor fully and re-acquires to this depth
	// after being notified.
	savedDepth int
	steps      uint64

	// regArena backs the frames' register windows: calls carve a
	// window off the end instead of allocating a fresh slice per frame
	// (the dominant allocation in call-heavy programs). See pushWindow.
	regArena []Value
}

type frame struct {
	code    *funcCode
	regs    []Value
	pc      int   // flat index into code.ops
	retReg  int32 // register in the caller frame receiving the return value
	regBase int   // offset of this frame's register window in the arena
}

// pushWindow carves an n-register zeroed window off the thread's
// register arena. When the arena must grow, a fresh backing array is
// allocated and older frames simply keep their windows in the previous
// one — every register access goes through frame.regs, so stale arena
// prefixes are never read, and the space is reclaimed as those frames
// pop.
func (t *Thread) pushWindow(n int) ([]Value, int) {
	base := len(t.regArena)
	if base+n > cap(t.regArena) {
		size := cap(t.regArena)*2 + 64
		if size < base+n {
			size = base + n
		}
		t.regArena = make([]Value, base, size)
	}
	t.regArena = t.regArena[:base+n]
	regs := t.regArena[base : base+n : base+n]
	for i := range regs {
		regs[i] = Value{}
	}
	return regs, base
}

// popWindow releases the most recent window (called when its frame
// returns).
func (t *Thread) popWindow(base int) { t.regArena = t.regArena[:base] }

// ErrKind classifies a RuntimeError so callers (the fuzzing harness,
// the CLI exit-code logic) can react without parsing messages.
type ErrKind uint8

// RuntimeError kinds.
const (
	// ErrFault is a language-level fault: null dereference, index out
	// of bounds, division by zero, monitor misuse, stack overflow.
	ErrFault ErrKind = iota
	// ErrDeadlock: every unfinished thread is blocked.
	ErrDeadlock
	// ErrLivelock: no thread made observable progress for
	// Options.LivelockWindow consecutive slices.
	ErrLivelock
	// ErrWatchdog: the wall-clock deadline passed.
	ErrWatchdog
	// ErrStepBudget: Options.MaxSteps instructions executed.
	ErrStepBudget
	// ErrPanic: an interpreter (or detector) panic was recovered.
	ErrPanic
	// ErrScheduleDivergence: a replayed schedule named a thread that
	// does not exist or cannot run — the program or configuration does
	// not match the recording.
	ErrScheduleDivergence
)

func (k ErrKind) String() string {
	switch k {
	case ErrDeadlock:
		return "deadlock"
	case ErrLivelock:
		return "livelock"
	case ErrWatchdog:
		return "watchdog"
	case ErrStepBudget:
		return "step-budget"
	case ErrPanic:
		return "panic"
	case ErrScheduleDivergence:
		return "schedule-divergence"
	}
	return "fault"
}

// RuntimeError is a fatal execution error (null dereference, index out
// of bounds, division by zero, deadlock, livelock, watchdog timeout,
// step-budget exhaustion, or a recovered interpreter panic). Dump
// carries the scheduler's thread dump for every scheduler-level kind,
// so a postmortem is self-contained.
type RuntimeError struct {
	Kind   ErrKind
	Pos    token.Pos
	Thread event.ThreadID
	Msg    string
	Dump   string // thread dump at failure time ("" for plain faults)
}

func (e *RuntimeError) Error() string {
	s := fmt.Sprintf("%s: runtime error in %s: %s", e.Pos, e.Thread, e.Msg)
	if e.Dump != "" {
		s += "; threads: " + e.Dump
	}
	return s
}

// Options configures a Machine.
type Options struct {
	// Sink receives runtime events; nil means event.NullSink.
	Sink event.Sink
	// Out receives print output; nil discards it.
	Out io.Writer
	// Quantum is the preemption interval in instructions (default 40).
	Quantum int
	// Seed jitters per-slice quanta for schedule diversity; 0 keeps
	// the fixed quantum.
	Seed int64
	// MaxSteps bounds total executed instructions (default 200M).
	MaxSteps uint64

	// RecordSchedule captures every scheduling decision; the trace is
	// available from Machine.Schedule after the run and replays the
	// exact interleaving via Replay.
	RecordSchedule bool
	// Replay re-executes a recorded schedule instead of consulting the
	// scheduler: each slice runs the recorded thread for the recorded
	// quantum. Seed is ignored while the trace lasts; if the trace is
	// exhausted with threads still runnable (e.g. it was recorded from
	// a run that aborted), execution falls back to fixed round-robin.
	Replay *ScheduleTrace
	// Deadline, when non-zero, is a wall-clock watchdog: the run aborts
	// with an ErrWatchdog RuntimeError (and a thread dump) once the
	// deadline passes. Checked between slices, so a slice's worth of
	// instructions may still execute after the deadline.
	Deadline time.Time
	// LivelockWindow, when positive, terminates the run with an
	// ErrLivelock RuntimeError after that many consecutive slices in
	// which no thread made observable progress (heap write, allocation,
	// I/O, or a thread lifecycle/wait-set transition). Spinning
	// programs die in O(window) slices instead of burning the full
	// step budget. 0 disables the heuristic.
	LivelockWindow int
	// SliceHook, when non-nil, runs before each scheduling slice with
	// the slice ordinal. It exists for diagnostics and fault-injection
	// tests; a panic inside it is recovered like any interpreter panic.
	SliceHook func(slice uint64)
}

// Result summarizes an execution.
type Result struct {
	Steps        uint64 // instructions executed (deterministic work metric)
	ThreadsUsed  int
	ObjectsMade  int64
	TraceEvents  uint64 // Access events delivered to the sink
	MonitorOps   uint64
	ContextSwaps uint64
}

// AccessFastPath is the optional inlined cache check of §4: when the
// sink implements it, the interpreter consults it before building the
// access event, mirroring the paper's inlined ten-instruction cache
// hit that never calls into the detector.
type AccessFastPath interface {
	QuickCheck(t event.ThreadID, loc event.Loc, kind event.Kind) bool
}

// Machine executes one program.
type Machine struct {
	code *Code
	opts Options
	sink event.Sink
	fast AccessFastPath // non-nil when sink implements AccessFastPath
	out  io.Writer

	threads   []*Thread
	classObjs []*Object // by class-object slot, created on first use
	objects   []*Object // index = ObjID-1 (IDs are dense, starting at 1)
	nextObj   event.ObjID
	rngState  uint64

	res Result
	err *RuntimeError

	// yield ends the current thread's quantum early. It is set when a
	// monitor release wakes blocked threads: without it, a fixed
	// quantum can pause a lock-cycling thread inside its critical
	// section at the same point every slice, so woken waiters always
	// find the lock held again (deterministic lockstep starvation).
	yield bool

	// progress ticks on every observable state change (heap write,
	// allocation, print, thread lifecycle or wait-set transition); the
	// livelock heuristic fires when it stalls across many slices.
	progress uint64
	// cur is the thread currently holding the scheduler slice; panic
	// recovery attributes the failure to it.
	cur *Thread
	// sliceBase is cur.steps when its slice began. A slice counts
	// steps in cur.steps alone; settleSteps adds them to res.Steps.
	sliceBase uint64
	// sched accumulates the schedule trace when RecordSchedule is set.
	sched *ScheduleTrace
	// replayIdx is the cursor into opts.Replay.Slices.
	replayIdx int
}

// New prepares a machine for the decoded program.
func New(code *Code, opts Options) *Machine {
	if opts.Sink == nil {
		opts.Sink = event.NullSink{}
	}
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	if opts.Quantum <= 0 {
		opts.Quantum = 40
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 200_000_000
	}
	m := &Machine{
		code:      code,
		opts:      opts,
		sink:      opts.Sink,
		out:       opts.Out,
		classObjs: make([]*Object, len(code.classOf)),
		nextObj:   1,
		rngState:  uint64(opts.Seed)*2654435761 + 1,
	}
	if f, ok := opts.Sink.(AccessFastPath); ok {
		m.fast = f
	}
	if opts.RecordSchedule {
		m.sched = &ScheduleTrace{Seed: opts.Seed, Quantum: m.opts.Quantum}
	}
	return m
}

// Schedule returns the recorded schedule trace (nil unless
// Options.RecordSchedule was set).
func (m *Machine) Schedule() *ScheduleTrace { return m.sched }

// DescribeObj renders an object ID for reports (detector callback).
func (m *Machine) DescribeObj(id event.ObjID) string {
	if o := m.ObjectByID(id); o != nil {
		return o.Describe()
	}
	if id.IsPseudoLock() {
		return id.String()
	}
	return fmt.Sprintf("obj#%d", int64(id))
}

// ObjectByID returns the heap object with the given ID (tests).
func (m *Machine) ObjectByID(id event.ObjID) *Object {
	if id < 1 || int64(id) > int64(len(m.objects)) {
		return nil
	}
	return m.objects[id-1]
}

// register adds an object to the dense registry and assigns its ID.
func (m *Machine) register(o *Object) {
	o.ID = m.nextObj
	m.nextObj++
	m.objects = append(m.objects, o)
}

// rand returns a deterministic pseudo-random uint64 (xorshift*).
func (m *Machine) rand() uint64 {
	x := m.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rngState = x
	return x * 2685821657736338717
}

// Run executes the program from its static main() to completion. Any
// panic in the interpreter or the attached detector stack is recovered
// and surfaced as an ErrPanic RuntimeError with a thread dump, so a
// harness running many programs survives an interpreter bug on one.
func (m *Machine) Run() (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.settleSteps()
			re := &RuntimeError{
				Kind: ErrPanic,
				Msg:  fmt.Sprintf("interpreter panic: %v", r),
				Dump: m.threadDump(),
			}
			if m.cur != nil {
				re.Thread = m.cur.ID
			}
			res, err = m.res, re
		}
	}()
	mainFn := m.code.main
	if mainFn == nil {
		return m.res, fmt.Errorf("interp: program has no lowered main")
	}
	main := &Thread{ID: 0}
	mregs, mbase := main.pushWindow(mainFn.numRegs)
	main.frames = append(main.frames, frame{
		code:    mainFn,
		regs:    mregs,
		retReg:  ir.NoReg,
		regBase: mbase,
	})
	m.threads = append(m.threads, main)
	m.res.ThreadsUsed = 1
	m.sink.ThreadStarted(0, event.NoThread)

	cur := 0
	var slice uint64
	idleSlices := 0
	for {
		t, quantum := m.nextSlice(&cur)
		if m.err != nil {
			// nextSlice detected a replay divergence.
			return m.res, m.err
		}
		if t == nil {
			break
		}
		if m.sched != nil {
			m.sched.Slices = append(m.sched.Slices, ScheduleSlice{Thread: t.ID, Quantum: int32(quantum)})
		}
		if m.opts.SliceHook != nil {
			m.opts.SliceHook(slice)
		}
		m.cur, m.sliceBase = t, t.steps
		progressBefore := m.progress
		m.yield = false
		m.runSlice(t, quantum)
		m.settleSteps()
		if m.err != nil {
			return m.res, m.err
		}
		if m.res.Steps >= m.opts.MaxSteps {
			return m.res, &RuntimeError{
				Kind:   ErrStepBudget,
				Thread: t.ID,
				Msg:    fmt.Sprintf("step budget exhausted after %d instructions (possible livelock)", m.res.Steps),
				Dump:   m.threadDump(),
			}
		}
		m.res.ContextSwaps++
		slice++

		// Wall-clock watchdog. time.Now is off the per-step path: one
		// check per 64 slices keeps the overhead unmeasurable while
		// bounding overrun to ~64 quanta of instructions.
		if !m.opts.Deadline.IsZero() && slice&63 == 0 && time.Now().After(m.opts.Deadline) {
			return m.res, &RuntimeError{
				Kind:   ErrWatchdog,
				Thread: t.ID,
				Msg:    fmt.Sprintf("watchdog: wall-clock deadline exceeded after %d instructions", m.res.Steps),
				Dump:   m.threadDump(),
			}
		}
		// Livelock heuristic: if no thread made observable progress for
		// a full window of slices, the program is spinning (threads
		// reading flags nobody will ever write). Terminate gracefully
		// instead of burning the remaining step budget.
		if m.opts.LivelockWindow > 0 {
			if m.progress != progressBefore {
				idleSlices = 0
			} else if idleSlices++; idleSlices >= m.opts.LivelockWindow {
				return m.res, &RuntimeError{
					Kind:   ErrLivelock,
					Thread: t.ID,
					Msg:    fmt.Sprintf("livelock suspected: no thread made progress for %d consecutive slices", idleSlices),
					Dump:   m.threadDump(),
				}
			}
		}
	}

	// All threads finished, or some are stuck.
	for _, t := range m.threads {
		if t.state != stateFinished {
			return m.res, &RuntimeError{
				Kind:   ErrDeadlock,
				Thread: t.ID,
				Msg:    "deadlock: thread is blocked and no thread can run",
				Dump:   m.threadDump(),
			}
		}
	}
	return m.res, nil
}

// settleSteps adds the steps cur took since sliceBase to res.Steps.
func (m *Machine) settleSteps() {
	if m.cur != nil {
		m.res.Steps += m.cur.steps - m.sliceBase
		m.sliceBase = m.cur.steps
	}
}

// nextSlice chooses the next thread and quantum: from the replay trace
// while it lasts, otherwise from the live scheduler. A nil thread with
// m.err set signals replay divergence; plain nil means no runnable
// thread remains.
func (m *Machine) nextSlice(cur *int) (*Thread, int) {
	if r := m.opts.Replay; r != nil && m.replayIdx < len(r.Slices) {
		sl := r.Slices[m.replayIdx]
		m.replayIdx++
		var t *Thread
		if int(sl.Thread) >= 0 && int(sl.Thread) < len(m.threads) {
			t = m.threads[sl.Thread]
		}
		if t == nil || t.state != stateRunnable {
			m.err = &RuntimeError{
				Kind:   ErrScheduleDivergence,
				Thread: sl.Thread,
				Msg: fmt.Sprintf("schedule replay diverged at slice %d: thread %s is not runnable (program or configuration does not match the recording)",
					m.replayIdx-1, sl.Thread),
				Dump: m.threadDump(),
			}
			return nil, 0
		}
		return t, int(sl.Quantum)
	}
	t := m.pickRunnable(cur)
	if t == nil {
		return nil, 0
	}
	quantum := m.opts.Quantum
	// An exhausted replay trace falls back to fixed round-robin (no
	// seeded jitter): the RNG state no longer corresponds to the
	// recording, so determinism comes from the fixed policy instead.
	if m.opts.Seed != 0 && m.opts.Replay == nil {
		quantum = 1 + int(m.rand()%uint64(m.opts.Quantum*2))
	}
	return t, quantum
}

// threadDump renders scheduler state for livelock diagnostics.
func (m *Machine) threadDump() string {
	var b strings.Builder
	for _, t := range m.threads {
		st := "runnable"
		switch t.state {
		case stateBlocked:
			st = "blocked"
		case stateJoining:
			st = "joining"
		case stateWaiting:
			st = "waiting"
		case stateFinished:
			st = "finished"
		}
		loc := "-"
		if len(t.frames) > 0 {
			f := t.frames[len(t.frames)-1]
			b, pc := f.code.where(f.pc)
			loc = fmt.Sprintf("%s b%d pc%d", f.code.fn.Name, b.ID, pc)
			if pc < len(b.Instrs) {
				loc += " " + b.Instrs[pc].Op.String()
			}
		}
		fmt.Fprintf(&b, "[%s %s steps=%d at %s] ", t.ID, st, t.steps, loc)
	}
	return b.String()
}

// pickRunnable selects the next runnable thread round-robin starting
// after *cur; returns nil if none.
func (m *Machine) pickRunnable(cur *int) *Thread {
	n := len(m.threads)
	if n == 0 {
		return nil
	}
	if m.opts.Seed != 0 && m.opts.Replay == nil {
		// Seeded policy: random start point, then scan. Disabled when
		// replaying: past the trace the fixed policy keeps the run
		// deterministic.
		*cur = int(m.rand() % uint64(n))
	}
	for i := 1; i <= n; i++ {
		idx := *cur + i // (*cur + i) mod n, as *cur < n
		if idx >= n {
			idx -= n
		}
		t := m.threads[idx]
		if t.state == stateRunnable {
			*cur = idx
			return t
		}
	}
	return nil
}

// fail records a fatal runtime error.
func (m *Machine) fail(t *Thread, pos token.Pos, format string, args ...interface{}) {
	if m.err == nil {
		m.err = &RuntimeError{Pos: pos, Thread: t.ID, Msg: fmt.Sprintf(format, args...)}
	}
}

// ---------------------------------------------------------------------------
// Heap

func (m *Machine) allocObject(cc *classCode, pos token.Pos) *Object {
	o := &Object{
		Class:    cc.class,
		Fields:   make([]Value, cc.nfields),
		AllocPos: pos,
		cls:      cc,
	}
	m.register(o)
	m.res.ObjectsMade++
	m.progress++
	return o
}

func (m *Machine) allocArray(elem sem.Type, n int64, pos token.Pos) *Object {
	o := &Object{
		IsArray:  true,
		Elems:    make([]Value, n),
		ElemType: elem,
		AllocPos: pos,
	}
	m.register(o)
	m.res.ObjectsMade++
	m.progress++
	return o
}

// classObject returns (creating on first use) the class object in the
// given slot, which holds the class's static fields and serves as the
// lock of its static synchronized methods.
func (m *Machine) classObject(slot int32) *Object {
	if o := m.classObjs[slot]; o != nil {
		return o
	}
	cl := m.code.classOf[slot]
	o := &Object{
		Class:   cl,
		IsClass: true,
		Fields:  make([]Value, len(cl.StaticSlots())),
	}
	m.register(o)
	m.classObjs[slot] = o
	return o
}

// ---------------------------------------------------------------------------
// Execution

// runSlice runs t for one scheduler slice: up to quantum counted
// instructions. Trace ops do not count: instrumentation must not
// perturb the schedule, so every configuration of the same program
// preempts at identical program points (making reports comparable
// across ablations). The slice ends early when t blocks, finishes or
// yields, when an instruction fails (m.err), or when the step budget
// runs out; Run reports the last two. Steps are counted in t.steps
// only (Run settles res.Steps after the slice).
//
// The current frame's ops, registers and pc live in locals for the
// whole slice. fr.pc is written back whenever control leaves the loop
// or calls out of it, so thread dumps, and panics raised by the sink,
// see the instruction being executed.
func (m *Machine) runSlice(t *Thread, quantum int) {
	fr := &t.frames[len(t.frames)-1]
	fc := fr.code
	ops, regs, pc := fc.ops, fr.regs, fr.pc
	limit := t.steps + (m.opts.MaxSteps - m.res.Steps)
	for i := 0; i < quantum && t.steps < limit; i++ {
		o := &ops[pc]
		t.steps++
		switch o.code {
		case opConst:
			regs[o.dst] = Value{I: o.imm}
		case opStr:
			regs[o.dst] = Value{Ref: &Object{Str: o.in.Str}}
		case opMove:
			regs[o.dst] = regs[o.a]

		case opAdd:
			regs[o.dst] = Value{I: regs[o.a].I + regs[o.b].I}
		case opSub:
			regs[o.dst] = Value{I: regs[o.a].I - regs[o.b].I}
		case opMul:
			regs[o.dst] = Value{I: regs[o.a].I * regs[o.b].I}
		case opDiv:
			d := regs[o.b].I
			if d == 0 {
				fr.pc = pc
				m.fail(t, o.in.Pos, "division by zero")
				return
			}
			regs[o.dst] = Value{I: regs[o.a].I / d}
		case opMod:
			d := regs[o.b].I
			if d == 0 {
				fr.pc = pc
				m.fail(t, o.in.Pos, "division by zero (%%)")
				return
			}
			regs[o.dst] = Value{I: regs[o.a].I % d}
		case opEq:
			a, b := regs[o.a], regs[o.b]
			regs[o.dst] = BoolVal(a.I == b.I && a.Ref == b.Ref)
		case opNeq:
			a, b := regs[o.a], regs[o.b]
			regs[o.dst] = BoolVal(a.I != b.I || a.Ref != b.Ref)
		case opLt:
			regs[o.dst] = BoolVal(regs[o.a].I < regs[o.b].I)
		case opLeq:
			regs[o.dst] = BoolVal(regs[o.a].I <= regs[o.b].I)
		case opGt:
			regs[o.dst] = BoolVal(regs[o.a].I > regs[o.b].I)
		case opGeq:
			regs[o.dst] = BoolVal(regs[o.a].I >= regs[o.b].I)
		case opNeg:
			regs[o.dst] = Value{I: -regs[o.a].I}
		case opNot:
			regs[o.dst] = BoolVal(!regs[o.a].Bool())

		case opNew:
			regs[o.dst] = Value{Ref: m.allocObject(fc.classes[o.imm], o.in.Pos)}
		case opNewArray:
			n := regs[o.a].I
			if n < 0 {
				fr.pc = pc
				m.fail(t, o.in.Pos, "negative array size %d", n)
				return
			}
			regs[o.dst] = Value{Ref: m.allocArray(o.in.Elem, n, o.in.Pos)}
		case opArrayLen:
			arr := regs[o.a].Ref
			if arr == nil {
				fr.pc = pc
				m.fail(t, o.in.Pos, "null pointer dereference (.length)")
				return
			}
			regs[o.dst] = Value{I: int64(len(arr.Elems))}
		case opClassRef:
			regs[o.dst] = Value{Ref: m.classObject(o.x)}

		case opGetField:
			obj := regs[o.a].Ref
			if obj == nil {
				fr.pc = pc
				m.fail(t, o.in.Pos, "null pointer dereference (read of %s)", o.in.Field.QualifiedName())
				return
			}
			regs[o.dst] = obj.Fields[o.x]
		case opPutField:
			obj := regs[o.a].Ref
			if obj == nil {
				fr.pc = pc
				m.fail(t, o.in.Pos, "null pointer dereference (write of %s)", o.in.Field.QualifiedName())
				return
			}
			obj.Fields[o.x] = regs[o.b]
			m.progress++
		case opGetStatic:
			regs[o.dst] = m.classObject(o.y).Fields[o.x]
		case opPutStatic:
			m.classObject(o.y).Fields[o.x] = regs[o.a]
			m.progress++
		case opArrayLoad:
			arr, idx := regs[o.a].Ref, regs[o.b].I
			if arr == nil || idx < 0 || idx >= int64(len(arr.Elems)) {
				fr.pc = pc
				m.arrayFault(t, o, arr, idx, "read")
				return
			}
			regs[o.dst] = arr.Elems[idx]
		case opArrayStore:
			arr, idx := regs[o.a].Ref, regs[o.b].I
			if arr == nil || idx < 0 || idx >= int64(len(arr.Elems)) {
				fr.pc = pc
				m.arrayFault(t, o, arr, idx, "write")
				return
			}
			arr.Elems[idx] = regs[o.c]
			m.progress++

		case opCall, opCallVirtual:
			fr.pc = pc
			callee := m.callee(t, regs, fc, o)
			if callee == nil {
				return // failed
			}
			if callee.fn == nil {
				// Explicit run() on a class that never overrides it: no-op.
				break
			}
			if len(t.frames) >= 4096 {
				m.fail(t, o.in.Pos, "stack overflow calling %s", callee.method.QualifiedName())
				return
			}
			nregs, base := t.pushWindow(callee.numRegs)
			for k, r := range fc.args[o.x : o.x+o.y] {
				nregs[k] = regs[r]
			}
			fr.pc = pc + 1 // resume after the call on return
			t.frames = append(t.frames, frame{code: callee, regs: nregs, retReg: o.dst, regBase: base})
			fr = &t.frames[len(t.frames)-1]
			fc, ops, regs, pc = callee, callee.ops, nregs, 0
			continue
		case opReturn:
			var rv Value
			if o.a != ir.NoReg {
				rv = regs[o.a]
			}
			retReg := fr.retReg
			t.frames = t.frames[:len(t.frames)-1]
			t.popWindow(fr.regBase)
			if len(t.frames) == 0 {
				t.state = stateFinished
				m.progress++
				m.sink.ThreadFinished(t.ID)
				m.wakeJoiners(t)
				return
			}
			fr = &t.frames[len(t.frames)-1]
			if retReg != ir.NoReg {
				fr.regs[retReg] = rv
			}
			fc = fr.code
			ops, regs, pc = fc.ops, fr.regs, fr.pc
			continue
		case opJump:
			pc = int(o.x)
			continue
		case opBranch:
			if regs[o.a].Bool() {
				pc = int(o.x)
			} else {
				pc = int(o.y)
			}
			continue

		case opMonEnter:
			fr.pc = pc
			if !m.monEnter(t, regs[o.a].Ref, o) {
				return // blocked or failed; retry this op when woken
			}
		case opMonExit:
			fr.pc = pc
			m.monExit(t, regs[o.a].Ref, o)
			if m.err != nil {
				return
			}
			if m.yield {
				fr.pc = pc + 1
				return
			}
		case opStart:
			fr.pc = pc
			m.startThread(t, regs[o.a].Ref, o)
			if m.err != nil {
				return
			}
		case opJoin:
			fr.pc = pc
			if !m.join(t, regs[o.a].Ref, o) {
				return // waiting or failed; retry when the joinee finishes
			}
		case opWait:
			fr.pc = pc
			if !m.monWait(t, regs[o.a].Ref, o) {
				return // parked, re-acquiring or failed; retry on wake
			}
		case opNotify, opNotifyAll:
			fr.pc = pc
			m.monNotify(t, regs[o.a].Ref, o, o.code == opNotifyAll)
			if m.err != nil {
				return
			}
		case opPrint:
			m.print(regs, o)

		case opTraceField:
			// Trace ops do not consume quantum; a nil reference means
			// the access itself already failed.
			i--
			if obj := regs[o.a].Ref; obj != nil {
				fr.pc = pc
				m.trace(t, event.Loc{Obj: obj.ID, Slot: o.x}, o.kind, &fc.sites[o.imm])
			}
		case opTraceArray:
			i--
			if arr := regs[o.a].Ref; arr != nil {
				fr.pc = pc
				m.trace(t, event.Loc{Obj: arr.ID, Slot: event.ArraySlot}, o.kind, &fc.sites[o.imm])
			}
		case opTraceStatic:
			i--
			fr.pc = pc
			m.trace(t, event.Loc{Obj: m.classObject(o.y).ID, Slot: o.x}, o.kind, &fc.sites[o.imm])

		case opFellOff:
			// Not an instruction: it does not count as a step.
			t.steps--
			fr.pc = pc
			m.fail(t, token.Pos{}, "fell off the end of block b%d in %s", o.x, fc.fn.Name)
			return
		default:
			fr.pc = pc
			m.fail(t, o.in.Pos, "unhandled instruction %s", o.in.Op)
			return
		}
		pc++
	}
	fr.pc = pc
}

// callee resolves the target of a call op: the static callee, or the
// receiver's override through its class's dispatch table. nil means
// the call failed (m.err is set).
func (m *Machine) callee(t *Thread, regs []Value, fc *funcCode, o *op) *funcCode {
	if o.code == opCall {
		return m.lowered(t, fc.callees[o.imm], o)
	}
	recv := regs[fc.args[o.x]].Ref
	if recv == nil {
		m.fail(t, o.in.Pos, "null pointer dereference (call of %s)", o.in.Callee.QualifiedName())
		return nil
	}
	callee := recv.cls.vtable[o.imm]
	if callee == nil {
		m.fail(t, o.in.Pos, "no implementation of %s for %s", o.in.Callee.Name, recv.Class.Name)
		return nil
	}
	return m.lowered(t, callee, o)
}

// lowered rejects a callee with no body unless it is the Thread.run
// stub, which the caller runs as a no-op.
func (m *Machine) lowered(t *Thread, callee *funcCode, o *op) *funcCode {
	if callee.fn == nil && callee.method.Builtin != sem.BuiltinRunStub {
		m.fail(t, o.in.Pos, "call of unlowered method %s", callee.method.QualifiedName())
		return nil
	}
	return callee
}

func (m *Machine) arrayFault(t *Thread, o *op, arr *Object, idx int64, what string) {
	if arr == nil {
		m.fail(t, o.in.Pos, "null pointer dereference (array %s)", what)
		return
	}
	m.fail(t, o.in.Pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
}

func (m *Machine) monEnter(t *Thread, lock *Object, o *op) bool {
	if lock == nil {
		m.fail(t, o.in.Pos, "null pointer dereference (synchronized)")
		return false
	}
	if lock.monOwner != nil && lock.monOwner != t {
		t.state = stateBlocked
		t.waitMon = lock
		return false
	}
	lock.monOwner = t
	lock.monDepth++
	t.waitMon = nil // clear any stale blocked-wait marker
	m.res.MonitorOps++
	m.sink.MonitorEnter(t.ID, lock.ID, lock.monDepth)
	return true
}

func (m *Machine) monExit(t *Thread, lock *Object, o *op) {
	if lock == nil {
		m.fail(t, o.in.Pos, "null pointer dereference (monitorexit)")
		return
	}
	if lock.monOwner != t || lock.monDepth == 0 {
		m.fail(t, o.in.Pos, "monitorexit of a lock not held by %s", t.ID)
		return
	}
	lock.monDepth--
	m.res.MonitorOps++
	m.sink.MonitorExit(t.ID, lock.ID, lock.monDepth)
	if lock.monDepth == 0 {
		lock.monOwner = nil
		// Wake every thread blocked on this monitor; they re-contend.
		// waitMon stays set: for threads re-acquiring after
		// Object.wait it marks the re-acquire phase, and the
		// monitorenter retry clears it on success. Yield so a woken
		// waiter gets to run before this thread can re-acquire the
		// lock (see Machine.yield).
		for _, w := range m.threads {
			if w.state == stateBlocked && w.waitMon == lock {
				w.state = stateRunnable
				m.yield = true
			}
		}
	}
}

// monWait implements Object.wait: the caller must hold the monitor;
// it is released fully (one MonitorExit event at depth 0), the thread
// parks in the wait set, and after a notify it re-contends for the
// monitor and restores its reentrancy depth. Returns true when the
// wait has completed and the instruction may advance.
func (m *Machine) monWait(t *Thread, lock *Object, o *op) bool {
	if lock == nil {
		m.fail(t, o.in.Pos, "null pointer dereference (wait)")
		return false
	}
	switch {
	case t.state == stateRunnable && t.waitMon == nil:
		// First execution: park.
		if lock.monOwner != t {
			m.fail(t, o.in.Pos, "wait on a monitor not held by %s", t.ID)
			return false
		}
		t.savedDepth = lock.monDepth
		lock.monDepth = 0
		lock.monOwner = nil
		m.res.MonitorOps++
		m.sink.MonitorExit(t.ID, lock.ID, 0)
		t.state = stateWaiting
		t.waitMon = lock
		lock.waitSet = append(lock.waitSet, t)
		m.progress++
		// Releasing may unblock a monitor-acquire waiter.
		for _, w := range m.threads {
			if w.state == stateBlocked && w.waitMon == lock {
				w.state = stateRunnable
				m.yield = true
			}
		}
		return false
	default:
		// Woken by notify (state was reset to runnable, waitMon kept):
		// re-acquire the monitor, restoring the saved depth.
		if lock.monOwner != nil && lock.monOwner != t {
			t.state = stateBlocked
			return false
		}
		lock.monOwner = t
		lock.monDepth = t.savedDepth
		t.waitMon = nil
		t.savedDepth = 0
		m.res.MonitorOps++
		m.sink.MonitorEnter(t.ID, lock.ID, 1)
		return true
	}
}

// monNotify implements Object.notify/notifyAll: wakes one (the
// longest-waiting) or all threads in the receiver's wait set. The
// woken threads re-contend for the monitor once the notifier releases
// it.
func (m *Machine) monNotify(t *Thread, lock *Object, o *op, all bool) {
	if lock == nil {
		m.fail(t, o.in.Pos, "null pointer dereference (notify)")
		return
	}
	if lock.monOwner != t {
		m.fail(t, o.in.Pos, "notify on a monitor not held by %s", t.ID)
		return
	}
	n := 1
	if all {
		n = len(lock.waitSet)
	}
	for i := 0; i < n && len(lock.waitSet) > 0; i++ {
		w := lock.waitSet[0]
		lock.waitSet = lock.waitSet[1:]
		// The woken thread stays at its wait op; when it is next
		// scheduled it re-contends for the monitor (waitMon still set
		// marks the re-acquire phase).
		w.state = stateRunnable
		m.progress++
	}
}

func (m *Machine) startThread(t *Thread, obj *Object, o *op) {
	if obj == nil {
		m.fail(t, o.in.Pos, "null pointer dereference (start)")
		return
	}
	if obj.started {
		m.fail(t, o.in.Pos, "thread %s#%d started twice", obj.Class.Name, int64(obj.ID))
		return
	}
	obj.started = true

	child := &Thread{ID: event.ThreadID(len(m.threads)), Obj: obj}
	obj.thread = child
	if run := obj.cls.run; run != nil {
		if run.fn == nil {
			m.fail(t, o.in.Pos, "run method of %s not lowered", obj.Class.Name)
			return
		}
		cregs, cbase := child.pushWindow(run.numRegs)
		cregs[0] = Value{Ref: obj}
		child.frames = append(child.frames, frame{code: run, regs: cregs, retReg: ir.NoReg, regBase: cbase})
	} else {
		// Default empty run(): the thread finishes immediately.
		child.state = stateFinished
	}
	m.threads = append(m.threads, child)
	m.res.ThreadsUsed++
	m.progress++
	m.sink.ThreadStarted(child.ID, t.ID)
	if child.state == stateFinished {
		m.sink.ThreadFinished(child.ID)
	}
}

// join returns true when the join completed (the instruction may then
// advance); false when the thread must wait.
func (m *Machine) join(t *Thread, obj *Object, o *op) bool {
	if obj == nil {
		m.fail(t, o.in.Pos, "null pointer dereference (join)")
		return false
	}
	child := obj.thread
	if child == nil {
		// Joining a never-started thread returns immediately (Java
		// semantics) and establishes no ordering.
		return true
	}
	if child.state != stateFinished {
		t.state = stateJoining
		t.waitThr = child
		return false
	}
	m.sink.Joined(t.ID, child.ID)
	return true
}

func (m *Machine) wakeJoiners(finished *Thread) {
	for _, w := range m.threads {
		if w.state == stateJoining && w.waitThr == finished {
			w.state = stateRunnable
			w.waitThr = nil
			m.progress++
		}
	}
}

func (m *Machine) print(regs []Value, o *op) {
	m.progress++
	in := o.in
	if o.a == ir.NoReg {
		fmt.Fprintln(m.out, in.Str)
		return
	}
	v := regs[o.a]
	if in.Elem != nil && sem.Same(in.Elem, sem.TypBool) {
		fmt.Fprintln(m.out, v.Bool())
		return
	}
	if v.Ref != nil && v.Ref.Str != "" {
		fmt.Fprintln(m.out, v.Ref.Str)
		return
	}
	fmt.Fprintln(m.out, v.I)
}

// trace delivers one access event to the sink (§2.4's 5-tuple; the
// lockset component is reconstructed by the sink from monitor events).
func (m *Machine) trace(t *Thread, loc event.Loc, kind event.Kind, site *traceSite) {
	m.res.TraceEvents++
	if m.fast != nil && m.fast.QuickCheck(t.ID, loc, kind) {
		return // absorbed by the inlined cache hit path
	}
	m.sink.Access(event.Access{
		Loc:       loc,
		Thread:    t.ID,
		Kind:      kind,
		Pos:       site.pos,
		FieldName: site.name,
	})
}
