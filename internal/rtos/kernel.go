// Package rtos is the embedded-OS kernel framework: instrumented functions,
// a real free-list heap living in target RAM, kernel objects, a priority
// scheduler, IPC primitives, software timers and a device model. The five OS
// personalities in internal/os/* compose and rename these subsystems to
// present their own API surfaces, exactly as embedded OSes share classic
// kernel designs under divergent APIs.
package rtos

import (
	"fmt"
	"time"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/fsb"
)

// Unwind is panicked through handler code when the kernel faults; the agent
// recovers it at the call boundary. Any other panic type is a simulator bug
// and propagates.
type Unwind struct {
	Fault *cpu.Fault
}

// TickHZ is the kernel tick rate.
const TickHZ = 1000

// Kernel is the shared kernel state for one booted OS image.
type Kernel struct {
	Env    *board.Env
	OSName string

	Heap    *Heap
	Objects *Table
	Sched   *Scheduler
	Timers  *TimerWheel
	Devices *Devices

	// ConsoleWrite is the OS-specific kprintf sink (the chain of device
	// functions ending at the UART). Set by the personality; nil falls back
	// to a direct UART write.
	ConsoleWrite func(s string)

	// ExceptionFn is the OS-specific exception entry (panic_handler,
	// common_exception, ...) executed on a fault; the host's exception
	// monitor plants its breakpoint at this symbol.
	ExceptionFn *Fn

	// Ticks counts kernel ticks since boot.
	Ticks uint64

	frames []frame // backtrace stack, outermost first
	hangFn *Fn
	idleFn *Fn
	ipc    *ipcFns
	rng    uint64
	core   *cpu.Core // Env.Core once live; nil keeps instrumentation inert
}

// SetLive arms instrumentation. Kernel code executed during firmware
// construction (device registration, table setup) runs before the coverage
// runtime and CPU exist; its instrumentation hooks stay inert until the
// agent enters its main loop — the same way SanCov guards are dead until the
// runtime initialises.
func (k *Kernel) SetLive() { k.core = k.Env.Core }

// NewKernel creates the framework state on a booted environment. The
// personality then registers its functions, heap and devices.
func NewKernel(env *board.Env, osName string) *Kernel {
	k := &Kernel{Env: env, OSName: osName, rng: env.BuildID*2654435761 + 1}
	k.Objects = newTable(k)
	k.Sched = newScheduler(k)
	k.Timers = newTimerWheel(k)
	k.Devices = newDevices(k)
	k.hangFn = k.Fn("__hang_loop", "arch/common/hang.c", 12, 1)
	k.idleFn = k.Fn("__idle_task", "arch/common/idle.c", 30, 2)
	k.initIPC("kern/ipc.c")
	return k
}

// Rand returns a deterministic pseudo-random uint64 (scheduler jitter, etc.).
func (k *Kernel) Rand() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

// Frames returns a snapshot of the current backtrace, innermost first, in
// the paper's Figure-6 "Level: N" order.
func (k *Kernel) Frames() []cpu.Frame {
	out := make([]cpu.Frame, 0, len(k.frames))
	for i := len(k.frames) - 1; i >= 0; i-- {
		fr := k.frames[i]
		out = append(out, cpu.Frame{File: fr.sf.File, Func: fr.sf.Name, Line: fr.line})
	}
	return out
}

// ReadRAM copies n bytes of target RAM at addr; a bad address raises a bus
// fault, as dereferencing a wild pointer does.
func (k *Kernel) ReadRAM(addr uint64, n int) []byte {
	data, err := k.Env.Mem.Read(addr, n)
	if err != nil {
		k.PanicFault(cpu.FaultBus, err.Error())
	}
	return data
}

// WriteRAM stores data at addr, faulting on invalid addresses.
func (k *Kernel) WriteRAM(addr uint64, data []byte) {
	if err := k.Env.Mem.Write(addr, data); err != nil {
		k.PanicFault(cpu.FaultBus, err.Error())
	}
}

// CString reads a NUL-terminated string from target memory with a length
// cap; it faults on unmapped memory like any stray dereference.
func (k *Kernel) CString(addr uint64, max int) string {
	out := make([]byte, 0, 16)
	var b [1]byte
	for i := 0; i < max; i++ {
		if err := k.Env.Mem.ReadAt(b[:], addr+uint64(i)); err != nil {
			k.PanicFault(cpu.FaultBus, err.Error())
		}
		if b[0] == 0 {
			break
		}
		out = append(out, b[0])
	}
	return string(out)
}

// Kprintf formats a console message and pushes it through the OS console
// path (the case-study bug lives in one personality's path).
func (k *Kernel) Kprintf(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	if k.ConsoleWrite != nil {
		k.ConsoleWrite(s)
		return
	}
	k.Env.UART.WriteString(s)
}

// PanicFault raises a kernel fault: it records the fault status block,
// prints the crash banner and backtrace to the console UART, runs the
// OS-specific exception function (where the exception monitor's breakpoint
// fires), reports the fault over the debug link, and finally unwinds the
// handler. It never returns.
func (k *Kernel) PanicFault(kind cpu.FaultKind, msg string) {
	fault := &cpu.Fault{
		Kind:   kind,
		PC:     k.Env.Core.PC(),
		Msg:    msg,
		Frames: k.Frames(),
	}

	// 1. Fault status block, readable by the host over the debug link.
	if k.Env.FSBAddr >= k.Env.RAM.Base {
		ram := k.Env.RAM.Bytes()
		off := k.Env.FSBAddr - k.Env.RAM.Base
		if off+board.FSBSize <= uint64(len(ram)) {
			fsb.Encode(fault, ram[off:off+board.FSBSize])
		}
	}

	// 2. Crash banner on the UART. Bus/hard faults lose the TX FIFO tail,
	// so the log monitor alone cannot always attribute these.
	u := k.Env.UART
	u.WriteString(fmt.Sprintf("*** %v: %s\n", kind, msg))
	u.WriteString("Stack frames at BUG: unexpected stop:\n")
	for i, fr := range fault.Frames {
		u.WriteString(fmt.Sprintf("Level: %d: %s : %s : %d\n", i+1, fr.File, fr.Func, fr.Line))
	}
	if kind == cpu.FaultBus || kind == cpu.FaultHard {
		u.DropTail()
	}

	// 3. OS-specific exception entry: the exception monitor's breakpoint
	// target. 4. Halt-with-fault visible on the debug link. Both need a
	// running core; a fault before the kernel goes live (unit tests,
	// pre-boot code) just unwinds.
	if k.core != nil {
		if k.ExceptionFn != nil {
			k.ExceptionFn.Enter()
			k.ExceptionFn.Exit()
		}
		k.Env.Core.RaiseFault(fault)
	}
	panic(Unwind{Fault: fault})
}

// Assert checks a kernel invariant; on failure it prints the assertion line
// (log-monitor territory) and hangs the system — the RT_ASSERT behaviour the
// paper's assertion bugs exhibit.
func (k *Kernel) Assert(cond bool, expr string) {
	if cond {
		return
	}
	k.AssertFail(expr)
}

// AssertFail reports a failed assertion and hangs. It never returns.
func (k *Kernel) AssertFail(expr string) {
	loc := "??"
	if n := len(k.frames); n > 0 {
		top := k.frames[n-1]
		loc = fmt.Sprintf("%s:%d (%s)", top.sf.File, top.line, top.sf.Name)
	}
	k.Kprintf("ASSERT failed: (%s) at %s\n", expr, loc)
	k.HangForever("assertion")
}

// HangForever spins at a stable PC forever, the degraded state the PC-stall
// watchdog exists to detect. It never returns.
func (k *Kernel) HangForever(why string) {
	_ = why
	addr := k.hangFn.SF.Block(0)
	for {
		k.Env.Core.Idle(addr, 4096)
	}
}

// Tick advances the kernel by one tick: timers fire, sleeping tasks wake,
// the scheduler runs one slice. Blocking APIs call this in their wait loops,
// so waiting burns virtual time and exercises scheduler/timer code. Beyond
// the cycles the tick's own code consumes, the clock advances by the tick
// period — the CPU idles between ticks on real hardware, and modelling that
// keeps sleeps and timeouts on wall-clock scale.
func (k *Kernel) Tick() {
	k.Ticks++
	period := time.Second / TickHZ
	// An emulator warps idle time: virtual timers fast-forward instead of
	// the host idling out the tick period (Spec.IdleWarp).
	if k.Env.Spec != nil && k.Env.Spec.IdleWarp > 1 {
		period /= time.Duration(k.Env.Spec.IdleWarp)
	}
	k.Env.Clock.Advance(period)
	k.Timers.tick()
	k.Sched.tick()
}

// TickN advances n ticks.
func (k *Kernel) TickN(n int) {
	for i := 0; i < n; i++ {
		k.Tick()
	}
}
