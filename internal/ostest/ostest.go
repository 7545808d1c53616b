// Package ostest provides the shared integration rig OS-personality tests
// use: a provisioned board with an attached debug client, program delivery
// through the mailbox, and helpers for asserting fault signatures and
// assertion hangs.
package ostest

import (
	"encoding/binary"
	"strings"
	"testing"

	"github.com/eof-fuzz/eof/internal/agent"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/fsb"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/ocd"
	"github.com/eof-fuzz/eof/internal/osinfo"
	"github.com/eof-fuzz/eof/internal/sym"
	"github.com/eof-fuzz/eof/internal/vtime"
	"github.com/eof-fuzz/eof/internal/wire"
)

// Rig is a provisioned board with an attached debug client.
type Rig struct {
	T      *testing.T
	Info   *osinfo.Info
	Board  *board.Board
	Client link.Link
	Syms   *sym.Table
	Lay    board.Layout
}

// New boots the OS on the given board spec and attaches the probe.
func New(t *testing.T, info *osinfo.Info, spec *board.Spec) *Rig {
	t.Helper()
	imgs, err := info.BuildImages(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	table, err := info.PartTable()
	if err != nil {
		t.Fatal(err)
	}
	brd, err := board.New(spec, table, info.Builder, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	if err := brd.Provision("bootloader", imgs.Boot); err != nil {
		t.Fatal(err)
	}
	if err := brd.Provision("kernel", imgs.Kernel); err != nil {
		t.Fatal(err)
	}
	if err := brd.Boot(); err != nil {
		t.Fatal(err)
	}
	syms := imgs.Syms
	client := ocd.ConnectDirect(ocd.NewServer(brd, ocd.DefaultLatency()))
	r := &Rig{T: t, Info: info, Board: brd, Client: client, Syms: syms, Lay: board.LayoutFor(spec)}
	if err := client.SetBreakpoint(syms.Addr(agent.SymExecutorMain)); err != nil {
		t.Fatal(err)
	}
	st, err := client.Continue(2_000_000)
	if err != nil || st.Kind != cpu.StopBreakpoint {
		t.Fatalf("run to executor_main: %+v %v", st, err)
	}
	t.Cleanup(func() {
		client.Close()
		if brd.State() == board.On {
			brd.Core().Kill()
		}
	})
	return r
}

// Call builds a wire call by API name.
func (r *Rig) Call(name string, args ...wire.Arg) wire.Call {
	idx := r.Info.APIIndex(name)
	if idx < 0 {
		r.T.Fatalf("unknown API %q", name)
	}
	return wire.Call{API: uint16(idx), Args: args}
}

// Imm is an immediate argument.
func Imm(v uint64) wire.Arg { return wire.Arg{Kind: wire.ArgImm, Val: v} }

// Ref references an earlier call's result.
func Ref(i int) wire.Arg { return wire.Arg{Kind: wire.ArgResult, Val: uint64(i)} }

// Blob is a staged byte buffer.
func Blob(b []byte) wire.Arg { return wire.Arg{Kind: wire.ArgBlob, Blob: b} }

// Str is a staged NUL-terminated string.
func Str(s string) wire.Arg { return Blob(append([]byte(s), 0)) }

// Outcome summarises one program execution.
type Outcome struct {
	Completed bool
	Fault     *cpu.Fault
	UART      []string
	Result    wire.Result
	StallPC   uint64
}

// Run delivers the calls and pumps until completion, a fault, or a stall.
func (r *Rig) Run(calls ...wire.Call) Outcome {
	r.T.Helper()
	p := &wire.Prog{Calls: calls}
	raw, err := p.Marshal()
	if err != nil {
		r.T.Fatal(err)
	}
	buf := make([]byte, 4+len(raw))
	binary.LittleEndian.PutUint32(buf, uint32(len(raw)))
	copy(buf[4:], raw)
	if err := r.Client.WriteMem(r.Lay.MailboxIn, buf); err != nil {
		r.T.Fatal(err)
	}
	mainAddr := r.Syms.Addr(agent.SymExecutorMain)
	var out Outcome
	var lastBudget uint64
	stall := 0
	for i := 0; i < 128; i++ {
		st, err := r.Client.Continue(500_000)
		if err != nil {
			r.T.Fatalf("continue: %v", err)
		}
		switch st.Kind {
		case cpu.StopBreakpoint:
			if st.PC == mainAddr {
				out.Completed = true
				out.UART = r.drain()
				out.Result = r.result()
				return out
			}
		case cpu.StopCovFull:
			r.clearCov()
		case cpu.StopFault:
			// Read the fault status block like the exception monitor does.
			rawFSB, err := r.Client.ReadMem(r.Lay.FSB, board.FSBSize)
			if err != nil {
				r.T.Fatal(err)
			}
			f, err := fsb.Decode(rawFSB)
			if err != nil {
				r.T.Fatal(err)
			}
			if f == nil {
				f = st.Fault
			}
			out.Fault = f
			out.UART = r.drain()
			return out
		case cpu.StopBudget:
			if st.PC == lastBudget {
				stall++
			} else {
				lastBudget, stall = st.PC, 0
			}
			if stall >= 2 {
				out.StallPC = st.PC
				out.UART = r.drain()
				return out
			}
		default:
			r.T.Fatalf("unexpected stop: %+v", st)
		}
	}
	r.T.Fatal("program did not settle")
	return out
}

func (r *Rig) drain() []string {
	lines, err := r.Client.DrainUART()
	if err != nil {
		return nil
	}
	return lines
}

func (r *Rig) result() wire.Result {
	raw, err := r.Client.ReadMem(r.Lay.MailboxOut, wire.ResultBytes)
	if err != nil {
		r.T.Fatal(err)
	}
	res, err := wire.UnmarshalResult(raw)
	if err != nil {
		r.T.Fatal(err)
	}
	return res
}

func (r *Rig) clearCov() {
	if err := r.Client.WriteMem(r.Lay.Cov+4, []byte{0, 0, 0, 0}); err != nil {
		r.T.Fatal(err)
	}
}

// Restore reflashes and reboots the board (after a crash or brick) and
// resynchronises at executor_main.
func (r *Rig) Restore() {
	r.T.Helper()
	imgs, err := r.Info.BuildImages(r.Board.Spec, true)
	if err != nil {
		r.T.Fatal(err)
	}
	if err := r.Client.Reset(); err != nil {
		tab := r.Board.PartitionTable()
		for _, part := range []struct {
			name string
			data []byte
		}{{"bootloader", imgs.Boot}, {"kernel", imgs.Kernel}} {
			pt := tab.Lookup(part.name)
			if err := r.Client.FlashErase(pt.Offset, pt.Size); err != nil {
				r.T.Fatal(err)
			}
			if err := r.Client.FlashWrite(pt.Offset, part.data); err != nil {
				r.T.Fatal(err)
			}
		}
		if err := r.Client.Reset(); err != nil {
			r.T.Fatal(err)
		}
	}
	mainAddr := r.Syms.Addr(agent.SymExecutorMain)
	if err := r.Client.SetBreakpoint(mainAddr); err != nil {
		r.T.Fatal(err)
	}
	st, err := r.Client.Continue(2_000_000)
	if err != nil || st.Kind != cpu.StopBreakpoint || st.PC != mainAddr {
		r.T.Fatalf("restore resync: %+v %v", st, err)
	}
	r.drain()
}

// ExpectFault asserts a fault of the given kind whose innermost frame is fn.
func (o Outcome) ExpectFault(t *testing.T, kind cpu.FaultKind, fn string) {
	t.Helper()
	if o.Fault == nil {
		t.Fatalf("no fault (completed=%v stallPC=%#x, uart=%v)", o.Completed, o.StallPC, o.UART)
	}
	if o.Fault.Kind != kind {
		t.Fatalf("fault kind %v, want %v (%s)", o.Fault.Kind, kind, o.Fault.Msg)
	}
	if len(o.Fault.Frames) == 0 || o.Fault.Frames[0].Func != fn {
		t.Fatalf("fault frames %v, want innermost %s", o.Fault.Frames, fn)
	}
}

// ExpectAssertHang asserts the outcome is a hang whose UART log carries the
// assertion expression.
func (o Outcome) ExpectAssertHang(t *testing.T, expr string) {
	t.Helper()
	if o.StallPC == 0 {
		t.Fatalf("no stall (completed=%v fault=%v)", o.Completed, o.Fault)
	}
	for _, l := range o.UART {
		if strings.Contains(l, "ASSERT failed") && strings.Contains(l, expr) {
			return
		}
	}
	t.Fatalf("assert line %q missing from UART: %v", expr, o.UART)
}
