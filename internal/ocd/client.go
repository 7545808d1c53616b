package ocd

import (
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/rsp"
)

// ErrTimeout is returned when the target does not respond — the board failed
// to boot, the image is corrupt, or the core is dead. This is watchdog
// signal (1) of the paper's Algorithm 1.
var ErrTimeout = errors.New("ocd: connection timeout")

// RemoteError is a non-timeout error reported by the debug server.
type RemoteError struct {
	Code Code
	Msg  string
}

func (e *RemoteError) Error() string {
	if e.Msg == "" {
		return "ocd: remote error " + string(e.Code)
	}
	return fmt.Sprintf("ocd: remote %s error: %s", e.Code, e.Msg)
}

// Client is the host side of the debug link. It is the transport layer of
// the internal/link stack: round-trip accounting and latency histograms live
// in the link.Metrics middleware, retries and reconnection in link.Session.
type Client struct {
	conn   *rsp.Conn
	direct *Server
	closer func() error
}

// ConnectDirect attaches a client that dispatches commands into the server
// in-process, with no RSP framing and no packet pipe (or its goroutine
// handoffs). The latency model charges every command exactly as on the wire.
// FlashWrite does not exercise the vFlashWrite grammar: it hands raw bytes to
// the server's flash executor and is charged the length of the request it
// replaces. The other commands go through the grammar. Campaign engines use
// this client; the framed transport stays covered by Connect and the protocol
// tests.
func ConnectDirect(srv *Server) *Client {
	return &Client{direct: srv}
}

// NewClient wraps an established transport.
func NewClient(rw interface {
	Read([]byte) (int, error)
	Write([]byte) (int, error)
}) *Client {
	return &Client{conn: rsp.NewConn(rw)}
}

// Connect wires a client to a server over an in-process pipe, starting the
// server's service goroutine. Close detaches and tears the pipe down.
func Connect(srv *Server) *Client {
	host, probe := net.Pipe()
	go func() {
		_ = srv.Serve(probe)
		probe.Close()
	}()
	c := NewClient(host)
	c.closer = func() error {
		// Best-effort detach so the server goroutine exits cleanly.
		_ = c.conn.Send([]byte("D"))
		_, _ = c.conn.Recv()
		return host.Close()
	}
	return c
}

// Close detaches from the probe.
func (c *Client) Close() error {
	if c.closer != nil {
		err := c.closer()
		c.closer = nil
		return err
	}
	return nil
}

func (c *Client) call(req string) (string, error) {
	var s string
	if c.direct != nil {
		s, _ = c.direct.handle(req)
	} else {
		resp, err := c.conn.Exchange([]byte(req))
		if err != nil {
			return "", err
		}
		s = string(resp)
	}
	return reply(s)
}

// reply returns a server reply, or the error it encodes.
func reply(s string) (string, error) {
	if strings.HasPrefix(s, "E") {
		return "", decodeError(s[1:])
	}
	return s, nil
}

func decodeError(s string) error {
	if s == string(CodeTimeout) {
		return ErrTimeout
	}
	code, rest := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		code, rest = s[:i], s[i+1:]
	}
	msg := ""
	if b, err := hex.DecodeString(rest); err == nil {
		msg = string(b)
	} else {
		msg = rest
	}
	return &RemoteError{Code: Code(code), Msg: msg}
}

// ReadMem reads n bytes of target memory at addr.
func (c *Client) ReadMem(addr uint64, n int) ([]byte, error) {
	resp, err := c.call(fmt.Sprintf("m%x,%x", addr, n))
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(resp, "D") {
		return nil, fmt.Errorf("ocd: bad read reply %q", resp)
	}
	data, err := hex.DecodeString(resp[1:])
	if err != nil {
		return nil, fmt.Errorf("ocd: bad read payload: %v", err)
	}
	if len(data) != n {
		return nil, fmt.Errorf("ocd: short read: got %d want %d", len(data), n)
	}
	return data, nil
}

// WriteMem writes data into target memory at addr.
func (c *Client) WriteMem(addr uint64, data []byte) error {
	_, err := c.call(fmt.Sprintf("M%x,%x:%s", addr, len(data), hex.EncodeToString(data)))
	return err
}

// SetBreakpoint arms a hardware breakpoint at addr.
func (c *Client) SetBreakpoint(addr uint64) error {
	_, err := c.call(fmt.Sprintf("Z0,%x", addr))
	return err
}

// ClearBreakpoint disarms the breakpoint at addr.
func (c *Client) ClearBreakpoint(addr uint64) error {
	_, err := c.call(fmt.Sprintf("z0,%x", addr))
	return err
}

// Continue resumes the target with the given step budget and returns the
// next stop event (the GDB -exec-continue of Algorithm 1).
func (c *Client) Continue(budget int64) (cpu.Stop, error) {
	resp, err := c.call(fmt.Sprintf("c%d", budget))
	if err != nil {
		return cpu.Stop{}, err
	}
	return decodeStop(resp)
}

// Reset warm-resets the board; a boot failure (corrupt image) surfaces as a
// RemoteError with code "boot", permanent death as code "dead".
func (c *Client) Reset() error {
	_, err := c.call("r")
	return err
}

// PowerCycle drops board power and cold-boots — the recovery ladder's last
// rung before giving up on the board. Slower than Reset but clears marginal
// conditions a warm reset cannot. Probe firmware that predates the command
// answers Ebadcmd.
func (c *Client) PowerCycle() error {
	_, err := c.call("R")
	return err
}

// FlashErase erases the flash range [off, off+n).
func (c *Client) FlashErase(off, n int) error {
	_, err := c.call(fmt.Sprintf("vFlashErase:%x,%x", off, n))
	return err
}

// flashChunk bounds one vFlashWrite payload; larger images stream in pieces,
// as debug probes with small adapter buffers do.
const flashChunk = 16 * 1024

// FlashWrite programs data at flash offset off (erase first), chunking the
// transfer to fit the adapter's packet limit. An in-process client skips the
// hex round trip: each chunk's raw bytes go straight to the server's flash
// executor, which charges the vFlashWrite request the chunk would have been.
func (c *Client) FlashWrite(off int, data []byte) error {
	for start := 0; start < len(data); start += flashChunk {
		chunk := data[start:min(start+flashChunk, len(data))]
		var err error
		if c.direct != nil {
			_, err = reply(c.direct.flashWriteRaw(off+start, chunk))
		} else {
			_, err = c.call(fmt.Sprintf("vFlashWrite:%x:%s", off+start, hex.EncodeToString(chunk)))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// DrainCov atomically reads and clears the target coverage buffer at addr in
// a single round trip: the server reads the header, transfers up to
// maxEntries valid entries, and zeroes the count and lost words before
// replying. The legacy sequence (speculative read, tail read, clear write)
// costs three round trips; on probe-latency-dominated links this is the
// single largest per-exec saving.
func (c *Client) DrainCov(addr uint64, maxEntries int) (entries []uint32, lost uint32, err error) {
	resp, err := c.call(fmt.Sprintf("vCovDrain:%x,%x", addr, maxEntries))
	if err != nil {
		return nil, 0, err
	}
	if !strings.HasPrefix(resp, "V") {
		return nil, 0, fmt.Errorf("ocd: bad drain reply %q", resp)
	}
	body := resp[1:]
	semi := strings.IndexByte(body, ';')
	if semi < 0 {
		return nil, 0, fmt.Errorf("ocd: bad drain reply %q", resp)
	}
	l, err := strconv.ParseUint(body[:semi], 16, 32)
	if err != nil {
		return nil, 0, fmt.Errorf("ocd: bad drain lost count: %v", err)
	}
	raw, err := hex.DecodeString(body[semi+1:])
	if err != nil {
		return nil, 0, fmt.Errorf("ocd: bad drain payload: %v", err)
	}
	if len(raw)%4 != 0 {
		return nil, 0, fmt.Errorf("ocd: ragged drain payload (%d bytes)", len(raw))
	}
	entries = make([]uint32, len(raw)/4)
	for i := range entries {
		entries[i] = uint32(raw[i*4]) | uint32(raw[i*4+1])<<8 | uint32(raw[i*4+2])<<16 | uint32(raw[i*4+3])<<24
	}
	return entries, uint32(l), nil
}

// WriteMemContinue coalesces a mailbox write with the resume that follows it
// into one round trip: the server performs the memory write, then continues
// the target with the given step budget and replies with the stop event.
func (c *Client) WriteMemContinue(addr uint64, data []byte, budget int64) (cpu.Stop, error) {
	resp, err := c.call(fmt.Sprintf("vRun:%x,%d:%s", addr, budget, hex.EncodeToString(data)))
	if err != nil {
		return cpu.Stop{}, err
	}
	return decodeStop(resp)
}

// Snapshot asks the probe to capture the board's current flash, RAM and
// breakpoint state as the golden image RestoreSnapshot rolls back to. One
// round trip; the capture itself happens probe-side. Probe firmware that
// predates the vectored commands answers Ebadcmd.
func (c *Client) Snapshot() error {
	_, err := c.call("vSnap")
	return err
}

// RestoreSnapshot asks the probe to roll the board back to the cached
// snapshot, shipping only the dirty delta and replaying to the snapshot's
// breakpoint park — the whole restore costs one round trip instead of the
// reset/reflash/re-arm/run-to-main ladder. A missing snapshot surfaces as a
// RemoteError with code "snap"; legacy probes answer Ebadcmd.
func (c *Client) RestoreSnapshot() (board.RestoreStats, error) {
	var st board.RestoreStats
	resp, err := c.call("vRestore")
	if err != nil {
		return st, err
	}
	if !strings.HasPrefix(resp, "S") {
		return st, fmt.Errorf("ocd: bad restore reply %q", resp)
	}
	parts := strings.Split(resp[1:], ",")
	if len(parts) != 4 {
		return st, fmt.Errorf("ocd: bad restore reply %q", resp)
	}
	vals := make([]int64, 4)
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 16, 64)
		if err != nil {
			return st, fmt.Errorf("ocd: bad restore reply %q: %v", resp, err)
		}
		vals[i] = v
	}
	st.FlashSectors = int(vals[0])
	st.RAMPages = int(vals[1])
	st.RestoredBytes = vals[2]
	st.SkippedBytes = vals[3]
	return st, nil
}

// DrainUART returns console lines emitted since the previous drain.
func (c *Client) DrainUART() ([]string, error) {
	resp, err := c.call("qUART")
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(resp, "L") {
		return nil, fmt.Errorf("ocd: bad uart reply %q", resp)
	}
	body := resp[1:]
	if body == "" {
		return nil, nil
	}
	parts := strings.Split(body, ";")
	lines := make([]string, 0, len(parts))
	for _, p := range parts {
		b, err := hex.DecodeString(p)
		if err != nil {
			return nil, fmt.Errorf("ocd: bad uart line: %v", err)
		}
		lines = append(lines, string(b))
	}
	return lines, nil
}

// BoardState queries power/liveness state, boot count and the last boot
// error message (empty when none).
func (c *Client) BoardState() (st board.State, boots int, lastBoot string, err error) {
	resp, err := c.call("?")
	if err != nil {
		return 0, 0, "", err
	}
	if !strings.HasPrefix(resp, "Qstate:") {
		return 0, 0, "", fmt.Errorf("ocd: bad state reply %q", resp)
	}
	for _, f := range strings.Split(resp[1:], ";") {
		k, v, ok := strings.Cut(f, ":")
		if !ok {
			continue
		}
		switch k {
		case "state":
			switch v {
			case "off":
				st = board.Off
			case "on":
				st = board.On
			case "bricked":
				st = board.Bricked
			case "dead":
				st = board.Dead
			default:
				return 0, 0, "", fmt.Errorf("ocd: unknown state %q", v)
			}
		case "boots":
			boots, _ = strconv.Atoi(v)
		case "lastboot":
			if b, derr := hex.DecodeString(v); derr == nil {
				lastBoot = string(b)
			}
		}
	}
	return st, boots, lastBoot, nil
}
