// Package cpu implements the virtual CPU core of the simulated MCU.
//
// The target firmware runs on its own goroutine with a strict ping-pong
// handoff to the host: the debug client's Continue resumes the target, which
// executes basic blocks until a stop event — breakpoint hit, fault, stall
// budget exhausted, or coverage-buffer-full trap — then parks. Exactly one
// side runs at any moment, so the simulation is deterministic while still
// giving the host real debugger semantics: resumable breakpoints, halted
// memory access, and a program counter whose movement (or lack of it) drives
// the paper's PC-stall liveness watchdog (Algorithm 1).
package cpu

import (
	"fmt"
	"slices"
	"time"

	"github.com/eof-fuzz/eof/internal/cov"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// StopKind classifies why the core halted and returned control to the host.
type StopKind int

// Stop reasons.
const (
	// StopBreakpoint: the PC reached an address with a breakpoint set.
	StopBreakpoint StopKind = iota
	// StopFault: the core took a fault (details in Stop.Fault).
	StopFault
	// StopBudget: the continue's step budget ran out before any other stop;
	// with an unchanged PC across continues this is the stall signature.
	StopBudget
	// StopCovFull: the coverage runtime trapped because its buffer filled.
	StopCovFull
	// StopExit: firmware main returned (target dead until reset).
	StopExit
	// StopKilled: the core was killed by reset while parked.
	StopKilled
)

func (k StopKind) String() string {
	switch k {
	case StopBreakpoint:
		return "breakpoint"
	case StopFault:
		return "fault"
	case StopBudget:
		return "budget"
	case StopCovFull:
		return "cov-full"
	case StopExit:
		return "exit"
	case StopKilled:
		return "killed"
	default:
		return fmt.Sprintf("StopKind(%d)", int(k))
	}
}

// FaultKind classifies hardware-level faults, mirroring Cortex-M fault
// classes plus an explicit kernel panic.
type FaultKind int

// Fault kinds.
const (
	FaultBus FaultKind = iota
	FaultUsage
	FaultMemManage
	FaultHard
	FaultPanic
)

func (k FaultKind) String() string {
	switch k {
	case FaultBus:
		return "BusFault"
	case FaultUsage:
		return "UsageFault"
	case FaultMemManage:
		return "MemManage"
	case FaultHard:
		return "HardFault"
	case FaultPanic:
		return "KernelPanic"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Frame is one backtrace entry, in the style of the paper's Figure 6 report.
type Frame struct {
	File string
	Func string
	Line int
}

func (f Frame) String() string {
	return fmt.Sprintf("%s : %s : %d", f.File, f.Func, f.Line)
}

// Fault carries everything the exception monitor reports about a crash.
type Fault struct {
	Kind   FaultKind
	PC     uint64
	Msg    string
	Frames []Frame
}

func (f *Fault) String() string {
	return fmt.Sprintf("%v at %#x: %s", f.Kind, f.PC, f.Msg)
}

// Stop is the event returned to the host when the core halts.
type Stop struct {
	Kind  StopKind
	PC    uint64
	Fault *Fault
}

// killSignal is panicked through the firmware stack when the host resets the
// board while the target is parked; the run-loop recover turns it into exit.
type killSignal struct{}

type resumeMsg struct {
	kill   bool
	budget int64
}

// Config sets the core's timing and debug-resource parameters.
type Config struct {
	// Model converts cycles to virtual time.
	Model vtime.CycleModel
	// CyclesPerBlock is the cost of executing one basic block.
	CyclesPerBlock uint64
	// InstrCycles is the extra per-block cost when instrumentation is on.
	InstrCycles uint64
	// MaxBreakpoints bounds hardware breakpoints, as real debug units do.
	MaxBreakpoints int
}

// DefaultConfig matches a mid-range Cortex-M-class part.
func DefaultConfig() Config {
	return Config{
		Model:          vtime.CycleModel{HZ: 160_000_000},
		CyclesPerBlock: 6,
		InstrCycles:    2,
		MaxBreakpoints: 8,
	}
}

// Core is the virtual CPU. Host-side methods (Continue, Kill, breakpoints)
// and target-side methods (Step, RaiseFault, TrapCovFull) must be called from
// their respective sides of the handoff.
type Core struct {
	cfg   Config
	clock *vtime.Clock

	pc        uint64
	bps       []uint64 // armed breakpoint addresses, ascending
	bpFilter  uint64   // bpBit of every armed address, rebuilt when bps changes
	instrOn   bool
	covHook   CovHook
	covTrapPC uint64

	// What Step charges and calls per block, fixed by SetInstrumented and
	// SetCovHook: stepHook is covHook when instrumentation is on, else nil,
	// and stepRT is stepHook when it is a *cov.Runtime, whose guard hits
	// Step runs inline.
	stepCycles uint64
	stepDur    time.Duration
	stepHook   CovHook
	stepRT     *cov.Runtime

	resume  chan resumeMsg
	stopped chan Stop
	budget  int64
	started bool
	dead    bool

	// Cached uninstrumented per-block time that Idle charges (a division
	// per call is too hot).
	durPlain time.Duration

	totalBlocks uint64
}

// New creates a halted core bound to the clock.
func New(clock *vtime.Clock, cfg Config) *Core {
	if cfg.MaxBreakpoints <= 0 {
		cfg.MaxBreakpoints = 8
	}
	if cfg.CyclesPerBlock == 0 {
		cfg.CyclesPerBlock = 6
	}
	c := &Core{
		cfg:      cfg,
		clock:    clock,
		resume:   make(chan resumeMsg),
		stopped:  make(chan Stop),
		durPlain: cfg.Model.Duration(cfg.CyclesPerBlock),
	}
	c.retune()
	return c
}

// CovHook is the coverage runtime's per-block callback. TracePC returns true
// when the buffer just filled and the core should trap to the host.
type CovHook interface {
	TracePC(pc uint64) (bufFull bool)
}

// SetInstrumented switches the per-block instrumentation cost and coverage
// hook on or off (set at boot from the image header).
func (c *Core) SetInstrumented(on bool) {
	c.instrOn = on
	c.retune()
}

// retune fixes what Step charges and calls per block.
func (c *Core) retune() {
	c.stepCycles, c.stepHook = c.cfg.CyclesPerBlock, nil
	if c.instrOn {
		c.stepCycles += c.cfg.InstrCycles
		c.stepHook = c.covHook
	}
	c.stepRT, _ = c.stepHook.(*cov.Runtime)
	c.stepDur = c.cfg.Model.Duration(c.stepCycles)
}

// Instrumented reports whether instrumentation is active.
func (c *Core) Instrumented() bool { return c.instrOn }

// SetCovHook installs the coverage runtime callback; trapPC is the address
// reported when the hook requests a buffer-full trap (the agent's
// _kcmp_buf_full symbol).
func (c *Core) SetCovHook(hook CovHook, trapPC uint64) {
	c.covHook = hook
	c.covTrapPC = trapPC
	c.retune()
}

// PC returns the program counter as of the last stop.
func (c *Core) PC() uint64 { return c.pc }

// TotalBlocks returns the number of basic blocks executed since creation.
func (c *Core) TotalBlocks() uint64 { return c.totalBlocks }

// SetBreakpoint arms a hardware breakpoint; it fails when the debug unit's
// comparators are exhausted.
func (c *Core) SetBreakpoint(addr uint64) error {
	i, ok := slices.BinarySearch(c.bps, addr)
	if ok {
		return nil
	}
	if len(c.bps) >= c.cfg.MaxBreakpoints {
		return fmt.Errorf("cpu: all %d hardware breakpoints in use", c.cfg.MaxBreakpoints)
	}
	c.bps = slices.Insert(c.bps, i, addr)
	c.rebuildFilter()
	return nil
}

// ClearBreakpoint disarms a breakpoint (no-op when absent).
func (c *Core) ClearBreakpoint(addr uint64) {
	if i, ok := slices.BinarySearch(c.bps, addr); ok {
		c.bps = slices.Delete(c.bps, i, i+1)
		c.rebuildFilter()
	}
}

// ClearAllBreakpoints removes every breakpoint (debugger detach).
func (c *Core) ClearAllBreakpoints() {
	c.bps = c.bps[:0]
	c.rebuildFilter()
}

// bpBit maps an address to one bit of the breakpoint filter. Step tests the
// filter before scanning the armed addresses, so almost every block is ruled
// out with one AND; the Fibonacci hash spreads aligned block addresses over
// all 64 bits.
func bpBit(addr uint64) uint64 { return 1 << ((addr * 0x9E3779B97F4A7C15) >> 58) }

func (c *Core) rebuildFilter() {
	c.bpFilter = 0
	for _, a := range c.bps {
		c.bpFilter |= bpBit(a)
	}
}

// BreakpointCount returns the number of armed breakpoints.
func (c *Core) BreakpointCount() int { return len(c.bps) }

// Breakpoints returns the armed breakpoint addresses in ascending order, so
// a snapshot can record and later re-arm the comparator bank.
func (c *Core) Breakpoints() []uint64 {
	out := make([]uint64, len(c.bps))
	copy(out, c.bps)
	return out
}

// MaxBreakpoints returns the size of the debug unit's comparator bank.
func (c *Core) MaxBreakpoints() int { return c.cfg.MaxBreakpoints }

// Start launches the firmware entry point on the target goroutine. The
// target does not run until the first Continue.
func (c *Core) Start(entry func()) {
	if c.started {
		panic("cpu: Start called twice")
	}
	c.started = true
	go func() {
		msg := <-c.resume
		if msg.kill {
			c.stopped <- Stop{Kind: StopKilled, PC: c.pc}
			return
		}
		c.budget = msg.budget
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSignal); ok {
					c.stopped <- Stop{Kind: StopKilled, PC: c.pc}
					return
				}
				panic(r) // real bug in the simulator, propagate loudly
			}
			// entry returned, or left through runtime.Goexit (a test's
			// t.FailNow on the target goroutine): either way main is gone.
			c.stopped <- Stop{Kind: StopExit, PC: c.pc}
		}()
		entry()
	}()
}

// Continue resumes the target with a step budget and blocks until it stops.
// Calling Continue on a dead core returns StopExit immediately.
func (c *Core) Continue(budget int64) Stop {
	if !c.started || c.dead {
		return Stop{Kind: StopExit, PC: c.pc}
	}
	c.resume <- resumeMsg{budget: budget}
	st := <-c.stopped
	if st.Kind == StopExit || st.Kind == StopKilled {
		c.dead = true
	}
	return st
}

// Kill terminates a started core (board reset while halted). Safe to call on
// an unstarted or dead core. It returns only once the target goroutine has
// stopped running firmware code, so the caller may reuse the memory the
// firmware wrote.
func (c *Core) Kill() {
	if !c.started || c.dead {
		c.dead = true
		return
	}
	c.resume <- resumeMsg{kill: true}
	<-c.stopped
	c.dead = true
}

// Dead reports whether the target goroutine has exited.
func (c *Core) Dead() bool { return c.dead }

// park halts the target and waits for the next resume; called on the target
// goroutine only.
func (c *Core) park(st Stop) {
	c.stopped <- st
	msg := <-c.resume
	if msg.kill {
		panic(killSignal{})
	}
	c.budget = msg.budget
}

// Step executes one basic block at addr: advances the clock, feeds the
// coverage hook, honours breakpoints and the step budget. Called by
// instrumented kernel code on the target goroutine.
//
// Most blocks run on an edge the coverage guard already holds, where
// TracePC would only move the runtime's prev. Step runs that check inline
// (cov.Runtime.Seen) and calls the hook only when it misses, so a hit never
// reaches TracePC.
func (c *Core) Step(addr uint64) {
	c.pc = addr
	c.clock.Advance(c.stepDur)
	c.totalBlocks++

	hit := c.stepRT != nil && c.stepRT.Seen(addr)
	if !hit && c.stepHook != nil && c.stepHook.TracePC(addr) {
		c.pc = c.covTrapPC
		c.park(Stop{Kind: StopCovFull, PC: c.covTrapPC})
		c.pc = addr
	}
	if c.bpFilter&bpBit(addr) != 0 && slices.Contains(c.bps, addr) {
		c.park(Stop{Kind: StopBreakpoint, PC: addr})
		return
	}
	if c.budget--; c.budget <= 0 {
		c.park(Stop{Kind: StopBudget, PC: addr})
	}
}

// RaiseFault reports a fault to the host and parks. On resume the target
// continues from the fault site; kernels typically spin afterwards, which the
// stall watchdog observes. Called on the target goroutine.
func (c *Core) RaiseFault(f *Fault) {
	if f.PC == 0 {
		f.PC = c.pc
	}
	c.park(Stop{Kind: StopFault, PC: f.PC, Fault: f})
}

// Idle burns n blocks' worth of time without touching coverage — the idle
// task and busy-wait loops use it so hangs consume virtual time and exhaust
// the budget at a stable PC. Blocks are charged in bulk up to the budget
// boundary, which keeps multi-thousand-block spins cheap to simulate.
func (c *Core) Idle(addr uint64, n int64) {
	c.pc = addr
	for n > 0 {
		steps := n
		if c.budget < steps {
			steps = c.budget
		}
		if steps > 0 {
			c.clock.Advance(time.Duration(steps) * c.durPlain)
			c.budget -= steps
			n -= steps
		}
		if c.budget <= 0 {
			c.park(Stop{Kind: StopBudget, PC: addr})
		}
	}
}
