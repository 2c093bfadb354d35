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
	fn      *ir.Func
	regs    []Value
	block   *ir.Block
	pc      int
	retReg  int // register in the caller frame receiving the return value
	regBase int // offset of this frame's register window in the arena
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
	prog *ir.Program
	opts Options
	sink event.Sink
	fast AccessFastPath // non-nil when sink implements AccessFastPath
	out  io.Writer

	threads   []*Thread
	classObjs map[*sem.Class]*Object
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
	// sched accumulates the schedule trace when RecordSchedule is set.
	sched *ScheduleTrace
	// replayIdx is the cursor into opts.Replay.Slices.
	replayIdx int
}

// New prepares a machine for the lowered program.
func New(prog *ir.Program, opts Options) *Machine {
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
		prog:      prog,
		opts:      opts,
		sink:      opts.Sink,
		out:       opts.Out,
		classObjs: make(map[*sem.Class]*Object),
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
	mainFn := m.prog.FuncOf[m.prog.Sem.Main]
	if mainFn == nil {
		return m.res, fmt.Errorf("interp: program has no lowered main")
	}
	main := &Thread{ID: 0}
	mregs, mbase := main.pushWindow(mainFn.NumRegs)
	main.frames = append(main.frames, frame{
		fn:      mainFn,
		regs:    mregs,
		block:   mainFn.Entry,
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
		m.cur = t
		progressBefore := m.progress
		m.yield = false
		for i := 0; i < quantum && t.state == stateRunnable && !m.yield; {
			if m.step(t) {
				// Trace pseudo-instructions do not consume quantum:
				// instrumentation must not perturb the schedule, so
				// every configuration of the same program preempts at
				// identical program points (making reports comparable
				// across ablations).
				i++
			}
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
			loc = fmt.Sprintf("%s b%d pc%d", f.fn.Name, f.block.ID, f.pc)
			if f.pc < len(f.block.Instrs) {
				loc += " " + f.block.Instrs[f.pc].Op.String()
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
		idx := (*cur + i) % n
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

func (m *Machine) allocObject(cl *sem.Class, pos token.Pos) *Object {
	o := &Object{
		Class:    cl,
		Fields:   make([]Value, len(cl.InstanceSlots())),
		AllocPos: pos,
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

// classObject returns (creating on first use) the class object holding
// cl's static fields and serving as the lock of static synchronized
// methods.
func (m *Machine) classObject(cl *sem.Class) *Object {
	if o := m.classObjs[cl]; o != nil {
		return o
	}
	o := &Object{
		Class:   cl,
		IsClass: true,
		Fields:  make([]Value, len(cl.StaticSlots())),
	}
	m.register(o)
	m.classObjs[cl] = o
	return o
}

// ---------------------------------------------------------------------------
// Execution

// step executes one instruction of t and reports whether it counts
// toward the scheduling quantum (trace pseudo-instructions do not; see
// Run).
func (m *Machine) step(t *Thread) bool {
	f := &t.frames[len(t.frames)-1]
	if f.pc >= len(f.block.Instrs) {
		m.fail(t, token.Pos{}, "fell off the end of block b%d in %s", f.block.ID, f.fn.Name)
		return true
	}
	in := f.block.Instrs[f.pc]
	m.res.Steps++
	t.steps++
	counts := in.Op != ir.OpTrace

	switch in.Op {
	case ir.OpConst, ir.OpBoolConst:
		f.regs[in.Dst] = Value{I: in.Value}
	case ir.OpNull:
		f.regs[in.Dst] = Value{}
	case ir.OpStrConst:
		f.regs[in.Dst] = Value{Ref: &Object{Str: in.Str}}
	case ir.OpMove:
		f.regs[in.Dst] = f.regs[in.Src[0]]

	case ir.OpBin:
		m.binOp(t, f, in)
	case ir.OpNeg:
		f.regs[in.Dst] = Value{I: -f.regs[in.Src[0]].I}
	case ir.OpNot:
		f.regs[in.Dst] = BoolVal(!f.regs[in.Src[0]].Bool())

	case ir.OpNew:
		f.regs[in.Dst] = Value{Ref: m.allocObject(in.Class, in.Pos)}
	case ir.OpNewArray:
		n := f.regs[in.Src[0]].I
		if n < 0 {
			m.fail(t, in.Pos, "negative array size %d", n)
			return counts
		}
		f.regs[in.Dst] = Value{Ref: m.allocArray(in.Elem, n, in.Pos)}
	case ir.OpArrayLen:
		arr := f.regs[in.Src[0]].Ref
		if arr == nil {
			m.fail(t, in.Pos, "null pointer dereference (.length)")
			return counts
		}
		f.regs[in.Dst] = Value{I: int64(len(arr.Elems))}
	case ir.OpClassRef:
		f.regs[in.Dst] = Value{Ref: m.classObject(in.Class)}

	case ir.OpGetField:
		obj := f.regs[in.Src[0]].Ref
		if obj == nil {
			m.fail(t, in.Pos, "null pointer dereference (read of %s)", in.Field.QualifiedName())
			return counts
		}
		f.regs[in.Dst] = obj.Fields[in.Field.Index]
	case ir.OpPutField:
		obj := f.regs[in.Src[0]].Ref
		if obj == nil {
			m.fail(t, in.Pos, "null pointer dereference (write of %s)", in.Field.QualifiedName())
			return counts
		}
		obj.Fields[in.Field.Index] = f.regs[in.Src[1]]
		m.progress++
	case ir.OpGetStatic:
		f.regs[in.Dst] = m.classObject(in.Field.Class).Fields[in.Field.Index]
	case ir.OpPutStatic:
		m.classObject(in.Field.Class).Fields[in.Field.Index] = f.regs[in.Src[0]]
		m.progress++
	case ir.OpArrayLoad:
		arr := f.regs[in.Src[0]].Ref
		idx := f.regs[in.Src[1]].I
		if arr == nil {
			m.fail(t, in.Pos, "null pointer dereference (array read)")
			return counts
		}
		if idx < 0 || idx >= int64(len(arr.Elems)) {
			m.fail(t, in.Pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
			return counts
		}
		f.regs[in.Dst] = arr.Elems[idx]
	case ir.OpArrayStore:
		arr := f.regs[in.Src[0]].Ref
		idx := f.regs[in.Src[1]].I
		if arr == nil {
			m.fail(t, in.Pos, "null pointer dereference (array write)")
			return counts
		}
		if idx < 0 || idx >= int64(len(arr.Elems)) {
			m.fail(t, in.Pos, "array index %d out of bounds [0,%d)", idx, len(arr.Elems))
			return counts
		}
		arr.Elems[idx] = f.regs[in.Src[2]]
		m.progress++

	case ir.OpCall:
		m.call(t, f, in)
		return counts // call manages pc itself
	case ir.OpMonEnter:
		if !m.monEnter(t, f, in) {
			return counts // blocked; retry this instruction when woken
		}
	case ir.OpMonExit:
		m.monExit(t, f, in)
	case ir.OpStart:
		m.startThread(t, f, in)
	case ir.OpJoin:
		if !m.join(t, f, in) {
			return counts // waiting; retry when joinee finishes
		}
	case ir.OpWait:
		if !m.monWait(t, f, in) {
			return counts // parked or re-acquiring; retry on wake
		}
	case ir.OpNotify:
		m.monNotify(t, f, in, false)
	case ir.OpNotifyAll:
		m.monNotify(t, f, in, true)
	case ir.OpPrint:
		m.print(f, in)

	case ir.OpTrace:
		m.trace(t, f, in)

	case ir.OpJump:
		f.block = in.Targets()[0]
		f.pc = 0
		return counts
	case ir.OpBranch:
		targets := in.Targets()
		if f.regs[in.Src[0]].Bool() {
			f.block = targets[0]
		} else {
			f.block = targets[1]
		}
		f.pc = 0
		return counts
	case ir.OpReturn:
		m.ret(t, f, in)
		return counts

	default:
		m.fail(t, in.Pos, "unhandled instruction %s", in.Op)
		return counts
	}
	f.pc++
	return counts
}

func (m *Machine) binOp(t *Thread, f *frame, in *ir.Instr) {
	a, b := f.regs[in.Src[0]], f.regs[in.Src[1]]
	switch in.Bin {
	case ir.BinAdd:
		f.regs[in.Dst] = Value{I: a.I + b.I}
	case ir.BinSub:
		f.regs[in.Dst] = Value{I: a.I - b.I}
	case ir.BinMul:
		f.regs[in.Dst] = Value{I: a.I * b.I}
	case ir.BinDiv:
		if b.I == 0 {
			m.fail(t, in.Pos, "division by zero")
			return
		}
		f.regs[in.Dst] = Value{I: a.I / b.I}
	case ir.BinMod:
		if b.I == 0 {
			m.fail(t, in.Pos, "division by zero (%%)")
			return
		}
		f.regs[in.Dst] = Value{I: a.I % b.I}
	case ir.BinEq:
		f.regs[in.Dst] = BoolVal(a.I == b.I && a.Ref == b.Ref)
	case ir.BinNeq:
		f.regs[in.Dst] = BoolVal(a.I != b.I || a.Ref != b.Ref)
	case ir.BinLt:
		f.regs[in.Dst] = BoolVal(a.I < b.I)
	case ir.BinLeq:
		f.regs[in.Dst] = BoolVal(a.I <= b.I)
	case ir.BinGt:
		f.regs[in.Dst] = BoolVal(a.I > b.I)
	case ir.BinGeq:
		f.regs[in.Dst] = BoolVal(a.I >= b.I)
	}
}

// call pushes a frame for the callee, resolving virtual dispatch on
// the receiver's dynamic class.
func (m *Machine) call(t *Thread, f *frame, in *ir.Instr) {
	callee := in.Callee
	if in.Virtual {
		recv := f.regs[in.Src[0]].Ref
		if recv == nil {
			m.fail(t, in.Pos, "null pointer dereference (call of %s)", callee.QualifiedName())
			return
		}
		callee = recv.Class.ResolveOverride(callee.Name)
		if callee == nil {
			m.fail(t, in.Pos, "no implementation of %s for %s", in.Callee.Name, recv.Class.Name)
			return
		}
	}
	if callee.Builtin == sem.BuiltinRunStub {
		// Explicit run() on a class that never overrides it: no-op.
		f.pc++
		return
	}
	fn := m.prog.FuncOf[callee]
	if fn == nil {
		m.fail(t, in.Pos, "call of unlowered method %s", callee.QualifiedName())
		return
	}
	if len(t.frames) >= 4096 {
		m.fail(t, in.Pos, "stack overflow calling %s", callee.QualifiedName())
		return
	}
	regs, base := t.pushWindow(fn.NumRegs)
	nf := frame{
		fn:      fn,
		regs:    regs,
		block:   fn.Entry,
		retReg:  in.Dst,
		regBase: base,
	}
	for i, src := range in.Src {
		nf.regs[i] = f.regs[src]
	}
	f.pc++ // resume after the call on return
	t.frames = append(t.frames, nf)
}

// ret pops the current frame, writing the return value into the
// caller, and finishes the thread when the last frame pops.
func (m *Machine) ret(t *Thread, f *frame, in *ir.Instr) {
	var rv Value
	if len(in.Src) > 0 {
		rv = f.regs[in.Src[0]]
	}
	retReg := f.retReg
	t.frames = t.frames[:len(t.frames)-1]
	t.popWindow(f.regBase)
	if len(t.frames) == 0 {
		t.state = stateFinished
		m.progress++
		m.sink.ThreadFinished(t.ID)
		m.wakeJoiners(t)
		return
	}
	caller := &t.frames[len(t.frames)-1]
	if retReg != ir.NoReg {
		caller.regs[retReg] = rv
	}
}

func (m *Machine) monEnter(t *Thread, f *frame, in *ir.Instr) bool {
	lock := f.regs[in.Src[0]].Ref
	if lock == nil {
		m.fail(t, in.Pos, "null pointer dereference (synchronized)")
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

func (m *Machine) monExit(t *Thread, f *frame, in *ir.Instr) {
	lock := f.regs[in.Src[0]].Ref
	if lock == nil {
		m.fail(t, in.Pos, "null pointer dereference (monitorexit)")
		return
	}
	if lock.monOwner != t || lock.monDepth == 0 {
		m.fail(t, in.Pos, "monitorexit of a lock not held by %s", t.ID)
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
func (m *Machine) monWait(t *Thread, f *frame, in *ir.Instr) bool {
	lock := f.regs[in.Src[0]].Ref
	if lock == nil {
		m.fail(t, in.Pos, "null pointer dereference (wait)")
		return false
	}
	switch {
	case t.state == stateRunnable && t.waitMon == nil:
		// First execution: park.
		if lock.monOwner != t {
			m.fail(t, in.Pos, "wait on a monitor not held by %s", t.ID)
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
func (m *Machine) monNotify(t *Thread, f *frame, in *ir.Instr, all bool) {
	lock := f.regs[in.Src[0]].Ref
	if lock == nil {
		m.fail(t, in.Pos, "null pointer dereference (notify)")
		return
	}
	if lock.monOwner != t {
		m.fail(t, in.Pos, "notify on a monitor not held by %s", t.ID)
		return
	}
	n := 1
	if all {
		n = len(lock.waitSet)
	}
	for i := 0; i < n && len(lock.waitSet) > 0; i++ {
		w := lock.waitSet[0]
		lock.waitSet = lock.waitSet[1:]
		// The woken thread stays at its OpWait instruction; when it is
		// next scheduled it re-contends for the monitor (waitMon still
		// set marks the re-acquire phase).
		w.state = stateRunnable
		m.progress++
	}
}

func (m *Machine) startThread(t *Thread, f *frame, in *ir.Instr) {
	obj := f.regs[in.Src[0]].Ref
	if obj == nil {
		m.fail(t, in.Pos, "null pointer dereference (start)")
		return
	}
	if obj.started {
		m.fail(t, in.Pos, "thread %s#%d started twice", obj.Class.Name, int64(obj.ID))
		return
	}
	obj.started = true

	child := &Thread{ID: event.ThreadID(len(m.threads)), Obj: obj}
	obj.thread = child
	run := obj.Class.ResolveOverride("run")
	if run != nil && run.Builtin == sem.NotBuiltin {
		fn := m.prog.FuncOf[run]
		if fn == nil {
			m.fail(t, in.Pos, "run method of %s not lowered", obj.Class.Name)
			return
		}
		cregs, cbase := child.pushWindow(fn.NumRegs)
		cf := frame{
			fn:      fn,
			regs:    cregs,
			block:   fn.Entry,
			retReg:  ir.NoReg,
			regBase: cbase,
		}
		cf.regs[0] = Value{Ref: obj}
		child.frames = append(child.frames, cf)
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
func (m *Machine) join(t *Thread, f *frame, in *ir.Instr) bool {
	obj := f.regs[in.Src[0]].Ref
	if obj == nil {
		m.fail(t, in.Pos, "null pointer dereference (join)")
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

func (m *Machine) print(f *frame, in *ir.Instr) {
	m.progress++
	if len(in.Src) == 0 {
		fmt.Fprintln(m.out, in.Str)
		return
	}
	v := f.regs[in.Src[0]]
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
func (m *Machine) trace(t *Thread, f *frame, in *ir.Instr) {
	var loc event.Loc
	switch {
	case in.IsArrayTrace:
		arr := f.regs[in.Src[0]].Ref
		if arr == nil {
			return // the access itself already failed
		}
		loc = event.Loc{Obj: arr.ID, Slot: event.ArraySlot}
	case in.Field.Static:
		co := m.classObject(in.Field.Class)
		loc = event.Loc{Obj: co.ID, Slot: event.StaticSlot(in.Field.Index)}
	default:
		obj := f.regs[in.Src[0]].Ref
		if obj == nil {
			return
		}
		loc = event.Loc{Obj: obj.ID, Slot: int32(in.Field.Index)}
	}
	kind := event.Read
	if in.Access == ir.Write {
		kind = event.Write
	}
	m.res.TraceEvents++
	if m.fast != nil && m.fast.QuickCheck(t.ID, loc, kind) {
		return // absorbed by the inlined cache hit path
	}
	m.sink.Access(event.Access{
		Loc:       loc,
		Thread:    t.ID,
		Kind:      kind,
		Pos:       in.Pos,
		FieldName: in.TraceName,
	})
}
