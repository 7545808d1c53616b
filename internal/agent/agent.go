// Package agent implements the cross-platform execution agent embedded in
// every target image. It deserializes test cases from the inbound mailbox,
// dispatches them to the OS personality's API table, and reports a result
// summary to the outbound mailbox — using only primitive operations, with no
// dependence on OS services, per the paper's §4.3.2.
//
// The agent exposes the synchronization symbols of Figure 4: executor_main
// (where the host delivers each test case), read_prog, execute_one,
// handle_exception, and _kcmp_buf_full (the coverage-buffer-full trap site).
package agent

import (
	"encoding/binary"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/fsb"
	"github.com/eof-fuzz/eof/internal/rtos"
	"github.com/eof-fuzz/eof/internal/wire"
)

// ArenaSize is the scratch arena where blob arguments are staged; OS
// personalities place their heap after env.ScratchBase+ArenaSize.
const ArenaSize = 32 * 1024

// Synchronization symbol names (Figure 4 of the paper). Hosts resolve these
// through the build's symbol table.
const (
	SymExecutorMain    = "executor_main"
	SymReadProg        = "read_prog"
	SymExecuteOne      = "execute_one"
	SymHandleException = "handle_exception"
	SymKcmpBufFull     = "_kcmp_buf_full"
)

// API is one entry of the target's dispatch table.
type API struct {
	Name    string
	Handler func(args []uint64) (uint64, rtos.Errno)
}

// Target is the OS personality as seen by the agent.
type Target interface {
	Name() string
	Kernel() *rtos.Kernel
	APIs() []API
}

// Agent is the on-target executor.
type Agent struct {
	env    *board.Env
	target Target
	apis   []API

	fnMain    *rtos.Fn
	fnRead    *rtos.Fn
	fnExec    *rtos.Fn
	fnExc     *rtos.Fn
	fnBufFull *rtos.Fn

	arenaCur uint64
	executed uint64 // programs executed since boot
}

// New builds the agent into the firmware, registering its symbols and the
// coverage trap hook.
func New(env *board.Env, target Target) *Agent {
	k := target.Kernel()
	a := &Agent{
		env:       env,
		target:    target,
		apis:      target.APIs(),
		fnMain:    k.Fn(SymExecutorMain, "agent/executor.c", 810, 4),
		fnRead:    k.Fn(SymReadProg, "agent/executor.c", 845, 8),
		fnExec:    k.Fn(SymExecuteOne, "agent/executor.c", 880, 6),
		fnExc:     k.Fn(SymHandleException, "agent/executor.c", 930, 3),
		fnBufFull: k.Fn(SymKcmpBufFull, "agent/cov.c", 44, 1),
	}
	if env.Cov != nil {
		env.Core.SetCovHook(env.Cov, a.fnBufFull.Addr())
	}
	return a
}

// Executed returns how many programs this boot has run.
func (a *Agent) Executed() uint64 { return a.executed }

// Main is the firmware entry loop: pause at executor_main for the next test
// case, deserialize, execute, repeat. Delivery is double-synchronised:
// debug-port hosts park the agent on the executor_main breakpoint and write
// the mailbox while it is halted; shared-memory hosts (emulator transports
// with no breakpoints) rely on the mailbox length word, which the agent
// polls and zeroes after consuming each program.
func (a *Agent) Main() {
	a.target.Kernel().SetLive()
	for {
		// Breakpoint synchronisation point.
		a.fnMain.Enter()
		a.fnMain.B(1)
		a.fnMain.Exit()

		// Mailbox handshake: wait for a non-zero length word.
		pollAddr := a.fnMain.SF.Block(2)
		for {
			hdr := a.mustRead(a.env.MailboxIn, 4)
			if binary.LittleEndian.Uint32(hdr) != 0 {
				break
			}
			a.env.Core.Idle(pollAddr, 256)
		}

		prog, ok := a.readProg()
		// Consume the program so the next poll blocks until a fresh one.
		_ = a.env.Mem.Write(a.env.MailboxIn, []byte{0, 0, 0, 0})
		if !ok {
			a.executed++
			a.writeResult(wire.Result{Executed: 0, LastErr: int32(rtos.ErrInval)})
			continue
		}
		res := a.executeOne(prog)
		a.executed++
		a.writeResult(res)
	}
}

// readProg loads and deserializes the inbound mailbox: u32 length at
// MailboxIn, wire bytes after it.
func (a *Agent) readProg() (*wire.Prog, bool) {
	f := a.fnRead
	f.Enter()
	defer f.Exit()
	hdr := a.mustRead(a.env.MailboxIn, 4)
	n := int(binary.LittleEndian.Uint32(hdr))
	if n <= 0 || n > board.MailboxInSize-4 {
		f.B(1)
		return nil, false
	}
	f.B(2)
	raw := a.mustRead(a.env.MailboxIn+4, n)
	p, err := wire.Unmarshal(raw)
	if err != nil {
		f.B(3)
		return nil, false
	}
	for _, c := range p.Calls {
		if int(c.API) >= len(a.apis) {
			f.B(4)
			return nil, false
		}
	}
	f.B(5)
	return p, true
}

// executeOne runs every call of the program, resolving result references and
// staging blobs in the arena. A kernel fault unwinds to here: the agent
// records the outcome, runs handle_exception, and wedges — a crashed
// embedded OS does not keep executing application code.
func (a *Agent) executeOne(p *wire.Prog) (res wire.Result) {
	k := a.target.Kernel()
	a.arenaCur = a.env.ScratchBase
	a.clearFSB()
	if a.env.Cov != nil {
		a.env.Cov.ResetEpoch()
	}

	results := make([]uint64, len(p.Calls))
	defer func() {
		if r := recover(); r != nil {
			u, ok := r.(rtos.Unwind)
			if !ok {
				panic(r)
			}
			res.Faulted = true
			a.executed++
			a.writeResult(res)
			a.handleException(u)
		}
	}()

	f := a.fnExec
	f.Enter()
	f.B(1)
	f.Exit()

	for i, c := range p.Calls {
		args := make([]uint64, len(c.Args))
		for j, arg := range c.Args {
			switch arg.Kind {
			case wire.ArgImm:
				args[j] = arg.Val
			case wire.ArgResult:
				args[j] = results[arg.Val]
			case wire.ArgBlob:
				args[j] = a.stageBlob(arg.Blob)
			}
		}
		ret, errno := a.apis[c.API].Handler(args)
		results[i] = ret
		res.Executed = uint32(i + 1)
		res.LastErr = int32(errno)
		// Let the system breathe between calls: timers fire, tasks run.
		k.Tick()
	}
	return res
}

// handleException is the agent's generic exception hook; after it runs the
// system is wedged until the host restores it. It never returns.
func (a *Agent) handleException(u rtos.Unwind) {
	f := a.fnExc
	f.Enter()
	f.B(1)
	f.Exit()
	a.target.Kernel().HangForever("post-fault")
}

// stageBlob copies blob bytes into the arena and returns their target
// address; when the arena is exhausted it returns 0 — a null pointer the
// handler may legitimately fault on.
func (a *Agent) stageBlob(b []byte) uint64 {
	need := uint64((len(b) + 8 + 7) &^ 7)
	end := a.env.ScratchBase + ArenaSize
	if a.arenaCur+need > end {
		return 0
	}
	addr := a.arenaCur
	a.arenaCur += need
	buf := make([]byte, 8+len(b))
	binary.LittleEndian.PutUint64(buf, uint64(len(b)))
	copy(buf[8:], b)
	if err := a.env.Mem.Write(addr, buf); err != nil {
		return 0
	}
	return addr + 8 // handlers receive the payload address; length precedes it
}

func (a *Agent) writeResult(r wire.Result) {
	r.Seq = uint32(a.executed)
	_ = a.env.Mem.Write(a.env.MailboxOut, wire.MarshalResult(r))
}

func (a *Agent) clearFSB() {
	ram := a.env.RAM.Bytes()
	off := a.env.FSBAddr - a.env.RAM.Base
	fsb.Clear(ram[off:])
}

func (a *Agent) mustRead(addr uint64, n int) []byte {
	data, err := a.env.Mem.Read(addr, n)
	if err != nil {
		// The mailbox is always mapped; failure here is a simulator bug.
		panic(err)
	}
	return data
}

// BlobLen reads back the length prefix of a staged blob address, for
// handlers that need the byte count (write-style APIs pass ptr+len pairs
// explicitly, but some personality code sanity-checks).
func BlobLen(env *board.Env, addr uint64) int {
	if addr < 8 {
		return -1
	}
	raw, err := env.Mem.Read(addr-8, 8)
	if err != nil {
		return -1
	}
	return int(binary.LittleEndian.Uint64(raw))
}
