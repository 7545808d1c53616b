// Package ocd implements the debug probe: an OpenOCD-like server that owns a
// board and exposes it over the RSP-style wire protocol, and the host-side
// client the fuzzer uses. All control and observation — memory access,
// breakpoints, execution, reflash, UART capture — flows through this one
// channel, mirroring the paper's single vendor-agnostic debug interface.
//
// The server also charges virtual time per command (adapter round trip plus
// payload transfer), which is what makes on-hardware fuzzing throughput land
// in the paper's regime of a few payloads per second.
package ocd

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cov"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/rsp"
)

// Latency models the debug adapter's cost per operation.
type Latency struct {
	// PerCommand is the fixed round-trip cost of one command.
	PerCommand time.Duration
	// BytesPerSec is the payload transfer bandwidth.
	BytesPerSec int
}

// DefaultLatency approximates a USB JTAG adapter driven through OpenOCD.
func DefaultLatency() Latency {
	return Latency{PerCommand: 45 * time.Millisecond, BytesPerSec: 512 * 1024}
}

// transfer returns the time to move n payload bytes.
func (l Latency) transfer(n int) time.Duration {
	if l.BytesPerSec <= 0 {
		return 0
	}
	return time.Duration(n) * time.Second / time.Duration(l.BytesPerSec)
}

// Server owns a board and serves debug commands.
type Server struct {
	Board *board.Board
	Lat   Latency
	// NoVectored rejects the vectored commands (vCovDrain, vRun) with
	// Ebadcmd, modelling probe firmware that predates them; clients fall
	// back to the multi-round-trip sequences.
	NoVectored bool
}

// NewServer creates a server for b with the given latency model.
func NewServer(b *board.Board, lat Latency) *Server {
	return &Server{Board: b, Lat: lat}
}

// Serve processes commands on rw until the link closes or detach.
func (s *Server) Serve(rw io.ReadWriter) error {
	conn := rsp.NewConn(rw)
	for {
		req, err := conn.Recv()
		if err != nil {
			if errors.Is(err, rsp.ErrLinkClosed) {
				return nil
			}
			return err
		}
		resp, detach := s.handle(string(req))
		if err := conn.Send([]byte(resp)); err != nil {
			if errors.Is(err, rsp.ErrLinkClosed) {
				return nil
			}
			return err
		}
		if detach {
			return nil
		}
	}
}

func (s *Server) charge(payloadBytes int) {
	s.Board.Clock.Advance(s.Lat.PerCommand + s.Lat.transfer(payloadBytes))
}

// ereply renders a bare error reply for code c.
func ereply(c Code) string { return "E" + string(c) }

// ereplyMsg renders an error reply carrying a hex-encoded message.
func ereplyMsg(c Code, msg string) string {
	return "E" + string(c) + ":" + hex.EncodeToString([]byte(msg))
}

func (s *Server) handle(req string) (resp string, detach bool) {
	s.charge(len(req))
	switch {
	case req == "?":
		return s.stateReply(), false
	case req == "D":
		return "OK", true
	case req == "qUART":
		return s.uartReply(), false
	case strings.HasPrefix(req, "m"):
		return s.readMem(req[1:]), false
	case strings.HasPrefix(req, "M"):
		return s.writeMem(req[1:]), false
	case strings.HasPrefix(req, "Z0,"):
		return s.setBP(req[3:]), false
	case strings.HasPrefix(req, "z0,"):
		return s.clearBP(req[3:]), false
	case strings.HasPrefix(req, "c"):
		return s.cont(req[1:]), false
	case req == "r":
		return s.reset(), false
	case req == "R":
		return s.powerCycle(), false
	case strings.HasPrefix(req, "vFlashErase:"):
		return s.flashErase(req[len("vFlashErase:"):]), false
	case strings.HasPrefix(req, "vFlashWrite:"):
		return s.flashWrite(req[len("vFlashWrite:"):]), false
	case strings.HasPrefix(req, "vCovDrain:"):
		if s.NoVectored {
			return ereply(CodeBadCmd), false
		}
		return s.covDrain(req[len("vCovDrain:"):]), false
	case strings.HasPrefix(req, "vRun:"):
		if s.NoVectored {
			return ereply(CodeBadCmd), false
		}
		return s.writeRun(req[len("vRun:"):]), false
	case req == "vSnap":
		if s.NoVectored {
			return ereply(CodeBadCmd), false
		}
		return s.snapshot(), false
	case req == "vRestore":
		if s.NoVectored {
			return ereply(CodeBadCmd), false
		}
		return s.restore(), false
	default:
		return ereply(CodeBadCmd), false
	}
}

func (s *Server) stateReply() string {
	st := s.Board.State()
	last := ""
	if err := s.Board.LastBootError(); err != nil {
		last = hex.EncodeToString([]byte(err.Error()))
	}
	return fmt.Sprintf("Qstate:%s;boots:%d;lastboot:%s", st, s.Board.BootCount(), last)
}

func (s *Server) uartReply() string {
	lines := s.Board.UART().Drain()
	parts := make([]string, len(lines))
	for i, l := range lines {
		parts[i] = hex.EncodeToString([]byte(l.Text))
	}
	return "L" + strings.Join(parts, ";")
}

// live reports whether the CPU is reachable; when it is not, commands that
// need a running core time out, which is the watchdog's boot-failure signal.
func (s *Server) live() bool {
	return s.Board.State() == board.On && !s.Board.Core().Dead()
}

func (s *Server) readMem(args string) string {
	if !s.live() {
		return ereply(CodeTimeout)
	}
	addr, n, err := parseAddrLen(args)
	if err != nil {
		return ereply(CodeBadArgs)
	}
	data, err := s.Board.Mem().Read(addr, n)
	if err != nil {
		return ereplyMsg(CodeMem, err.Error())
	}
	s.charge(n) // response payload costs link time too
	return "D" + hex.EncodeToString(data)
}

func (s *Server) writeMem(args string) string {
	if !s.live() {
		return ereply(CodeTimeout)
	}
	colon := strings.IndexByte(args, ':')
	if colon < 0 {
		return ereply(CodeBadArgs)
	}
	addr, n, err := parseAddrLen(args[:colon])
	if err != nil {
		return ereply(CodeBadArgs)
	}
	data, err := hex.DecodeString(args[colon+1:])
	if err != nil || len(data) != n {
		return ereply(CodeBadArgs)
	}
	if err := s.Board.Mem().Write(addr, data); err != nil {
		return ereplyMsg(CodeMem, err.Error())
	}
	return "OK"
}

func (s *Server) setBP(arg string) string {
	if !s.live() {
		return ereply(CodeTimeout)
	}
	addr, err := strconv.ParseUint(arg, 16, 64)
	if err != nil {
		return ereply(CodeBadArgs)
	}
	if err := s.Board.Core().SetBreakpoint(addr); err != nil {
		return ereplyMsg(CodeBP, err.Error())
	}
	return "OK"
}

func (s *Server) clearBP(arg string) string {
	if !s.live() {
		return ereply(CodeTimeout)
	}
	addr, err := strconv.ParseUint(arg, 16, 64)
	if err != nil {
		return ereply(CodeBadArgs)
	}
	s.Board.Core().ClearBreakpoint(addr)
	return "OK"
}

func (s *Server) cont(arg string) string {
	if !s.live() {
		return ereply(CodeTimeout)
	}
	budget := int64(2_000_000)
	if arg != "" {
		b, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || b <= 0 {
			return ereply(CodeBadArgs)
		}
		budget = b
	}
	stop := s.Board.Core().Continue(budget)
	return encodeStop(stop)
}

func (s *Server) reset() string {
	if err := s.Board.Reset(); err != nil {
		return ereplyMsg(bootCode(err), err.Error())
	}
	return "OK"
}

// powerCycle implements "R": drop board power, wait for the rails to settle
// and cold-boot. The slow rung of the recovery ladder.
func (s *Server) powerCycle() string {
	if err := s.Board.PowerCycle(); err != nil {
		return ereplyMsg(bootCode(err), err.Error())
	}
	return "OK"
}

// bootCode classifies a boot-path failure: permanent hardware death gets its
// own code so the host can stop climbing the recovery ladder.
func bootCode(err error) Code {
	if errors.Is(err, board.ErrDead) {
		return CodeDead
	}
	return CodeBoot
}

func (s *Server) flashErase(args string) string {
	off, n, err := parseAddrLen(args)
	if err != nil {
		return ereply(CodeBadArgs)
	}
	if err := s.Board.FlashErase(int(off), n); err != nil {
		if errors.Is(err, board.ErrDead) {
			return ereplyMsg(CodeDead, err.Error())
		}
		return ereplyMsg(CodeFlash, err.Error())
	}
	return "OK"
}

func (s *Server) flashWrite(args string) string {
	colon := strings.IndexByte(args, ':')
	if colon < 0 {
		return ereply(CodeBadArgs)
	}
	off, err := strconv.ParseUint(args[:colon], 16, 64)
	if err != nil {
		return ereply(CodeBadArgs)
	}
	data, err := hex.DecodeString(args[colon+1:])
	if err != nil {
		return ereply(CodeBadArgs)
	}
	return s.flashProgram(int(off), data)
}

// flashWriteRaw serves one vFlashWrite chunk handed over in-process as raw
// bytes. It charges the length of the request it replaces,
// vFlashWrite:<off %x>:<2n hex chars>, and answers as the wire parser would:
// a negative offset, which does not parse as hex, earns a bare Ebadargs.
func (s *Server) flashWriteRaw(off int, data []byte) string {
	var digits [24]byte
	s.charge(len("vFlashWrite:") + len(strconv.AppendInt(digits[:0], int64(off), 16)) + 1 + 2*len(data))
	if off < 0 {
		return ereply(CodeBadArgs)
	}
	return s.flashProgram(off, data)
}

// flashProgram is the flash-program executor behind vFlashWrite, shared by
// the wire parser and in-process clients.
func (s *Server) flashProgram(off int, data []byte) string {
	if err := s.Board.FlashProgram(off, data); err != nil {
		if errors.Is(err, board.ErrDead) {
			return ereplyMsg(CodeDead, err.Error())
		}
		return ereplyMsg(CodeFlash, err.Error())
	}
	return "OK"
}

// covDrain implements vCovDrain:<addr>,<maxEntries> — the vectored
// drain-and-clear. The probe reads the coverage header, transfers up to
// maxEntries valid entries and zeroes the count and lost words before
// replying, so the whole drain costs one adapter round trip instead of the
// legacy read/tail-read/clear triple.
func (s *Server) covDrain(args string) string {
	if !s.live() {
		return ereply(CodeTimeout)
	}
	addr, maxEntries, err := parseAddrLen(args)
	if err != nil {
		return ereply(CodeBadArgs)
	}
	hdr, err := s.Board.Mem().Read(addr, 16)
	if err != nil {
		return ereplyMsg(CodeMem, err.Error())
	}
	if m := le32(hdr, 0); m != cov.Magic {
		return ereplyMsg(CodeCov, fmt.Sprintf("bad magic %#x", m))
	}
	count := int(le32(hdr, 4))
	capacity := int(le32(hdr, 8))
	lost := le32(hdr, 12)
	if count > capacity {
		return ereplyMsg(CodeCov, fmt.Sprintf("corrupt header count=%d cap=%d", count, capacity))
	}
	if count > maxEntries {
		count = maxEntries
	}
	var raw []byte
	if count > 0 {
		raw, err = s.Board.Mem().Read(addr+16, count*4)
		if err != nil {
			return ereplyMsg(CodeMem, err.Error())
		}
	}
	// Clear count and lost atomically with the read: the target resumes
	// into an empty buffer with no host round trip in between.
	if err := s.Board.Mem().Write(addr+4, []byte{0, 0, 0, 0}); err != nil {
		return ereplyMsg(CodeMem, err.Error())
	}
	if err := s.Board.Mem().Write(addr+12, []byte{0, 0, 0, 0}); err != nil {
		return ereplyMsg(CodeMem, err.Error())
	}
	s.charge(len(raw)) // response payload costs link time, as in readMem
	return fmt.Sprintf("V%x;%s", lost, hex.EncodeToString(raw))
}

// writeRun implements vRun:<addr>,<budget>:<hexdata> — a coalesced memory
// write plus continue. The mailbox payload and the resume that consumes it
// always travel together, so fusing them saves one round trip per exec.
func (s *Server) writeRun(args string) string {
	if !s.live() {
		return ereply(CodeTimeout)
	}
	colon := strings.IndexByte(args, ':')
	if colon < 0 {
		return ereply(CodeBadArgs)
	}
	comma := strings.IndexByte(args[:colon], ',')
	if comma < 0 {
		return ereply(CodeBadArgs)
	}
	addr, err := strconv.ParseUint(args[:comma], 16, 64)
	if err != nil {
		return ereply(CodeBadArgs)
	}
	budget, err := strconv.ParseInt(args[comma+1:colon], 10, 64)
	if err != nil || budget <= 0 {
		return ereply(CodeBadArgs)
	}
	data, err := hex.DecodeString(args[colon+1:])
	if err != nil {
		return ereply(CodeBadArgs)
	}
	if err := s.Board.Mem().Write(addr, data); err != nil {
		return ereplyMsg(CodeMem, err.Error())
	}
	stop := s.Board.Core().Continue(budget)
	return encodeStop(stop)
}

// snapshot implements vSnap: the probe captures the board's flash, RAM and
// breakpoint state as the golden image vRestore rolls back to, and resets the
// board's dirty tracking. The capture happens probe-side, so the host pays
// one round trip, not a full state read-back.
func (s *Server) snapshot() string {
	if !s.live() {
		return ereply(CodeTimeout)
	}
	if err := s.Board.Snapshot(); err != nil {
		return ereplyMsg(CodeSnap, err.Error())
	}
	return "OK"
}

// restore implements vRestore: the probe diffs the board's dirty state
// against the cached golden snapshot, re-ships only the delta, and replays
// the target back to its snapshot park point. One round trip replaces the
// reset/reflash/re-arm/run-to-main sequence. The reply is
// S<flashSectors:x>,<ramPages:x>,<restoredBytes:x>,<skippedBytes:x>.
func (s *Server) restore() string {
	if s.Board.State() == board.Dead {
		return ereplyMsg(CodeDead, "board dead")
	}
	if !s.Board.HasSnapshot() {
		return ereply(CodeSnap)
	}
	st, err := s.Board.RestoreSnapshot()
	if err != nil {
		switch {
		case errors.Is(err, board.ErrDead):
			return ereplyMsg(CodeDead, err.Error())
		case errors.Is(err, board.ErrNoSnapshot):
			return ereply(CodeSnap)
		default:
			return ereplyMsg(CodeFlash, err.Error())
		}
	}
	return fmt.Sprintf("S%x,%x,%x,%x", st.FlashSectors, st.RAMPages, st.RestoredBytes, st.SkippedBytes)
}

// le32 decodes a little-endian u32 at offset off.
func le32(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}

func parseAddrLen(s string) (addr uint64, n int, err error) {
	comma := strings.IndexByte(s, ',')
	if comma < 0 {
		return 0, 0, fmt.Errorf("missing comma")
	}
	addr, err = strconv.ParseUint(s[:comma], 16, 64)
	if err != nil {
		return 0, 0, err
	}
	ln, err := strconv.ParseUint(s[comma+1:], 16, 32)
	if err != nil {
		return 0, 0, err
	}
	return addr, int(ln), nil
}

// encodeStop renders a cpu.Stop as a T-reply:
//
//	T<kind>;<pcHex>[;F<fkind>;<msgHex>;<file|func|line hex triples ','-joined>]
func encodeStop(st cpu.Stop) string {
	var b strings.Builder
	fmt.Fprintf(&b, "T%d;%x", int(st.Kind), st.PC)
	if st.Fault != nil {
		fmt.Fprintf(&b, ";F%d;%s;", int(st.Fault.Kind), hex.EncodeToString([]byte(st.Fault.Msg)))
		for i, fr := range st.Fault.Frames {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s|%s|%d",
				hex.EncodeToString([]byte(fr.File)), hex.EncodeToString([]byte(fr.Func)), fr.Line)
		}
	}
	return b.String()
}

// decodeStop parses a T-reply back into a cpu.Stop.
func decodeStop(s string) (cpu.Stop, error) {
	if !strings.HasPrefix(s, "T") {
		return cpu.Stop{}, fmt.Errorf("ocd: not a stop reply: %q", s)
	}
	fields := strings.Split(s[1:], ";")
	if len(fields) < 2 {
		return cpu.Stop{}, fmt.Errorf("ocd: short stop reply: %q", s)
	}
	kind, err := strconv.Atoi(fields[0])
	if err != nil {
		return cpu.Stop{}, fmt.Errorf("ocd: bad stop kind: %q", s)
	}
	pc, err := strconv.ParseUint(fields[1], 16, 64)
	if err != nil {
		return cpu.Stop{}, fmt.Errorf("ocd: bad stop pc: %q", s)
	}
	st := cpu.Stop{Kind: cpu.StopKind(kind), PC: pc}
	if len(fields) >= 4 && strings.HasPrefix(fields[2], "F") {
		fkind, err := strconv.Atoi(fields[2][1:])
		if err != nil {
			return cpu.Stop{}, fmt.Errorf("ocd: bad fault kind: %q", s)
		}
		msg, err := hex.DecodeString(fields[3])
		if err != nil {
			return cpu.Stop{}, fmt.Errorf("ocd: bad fault msg: %q", s)
		}
		f := &cpu.Fault{Kind: cpu.FaultKind(fkind), PC: pc, Msg: string(msg)}
		if len(fields) >= 5 && fields[4] != "" {
			for _, tr := range strings.Split(fields[4], ",") {
				parts := strings.Split(tr, "|")
				if len(parts) != 3 {
					return cpu.Stop{}, fmt.Errorf("ocd: bad frame: %q", tr)
				}
				file, err1 := hex.DecodeString(parts[0])
				fn, err2 := hex.DecodeString(parts[1])
				line, err3 := strconv.Atoi(parts[2])
				if err1 != nil || err2 != nil || err3 != nil {
					return cpu.Stop{}, fmt.Errorf("ocd: bad frame: %q", tr)
				}
				f.Frames = append(f.Frames, cpu.Frame{File: string(file), Func: string(fn), Line: line})
			}
		}
		st.Fault = f
	}
	return st, nil
}
