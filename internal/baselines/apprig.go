package baselines

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"github.com/eof-fuzz/eof/internal/agent"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cov"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/ocd"
	"github.com/eof-fuzz/eof/internal/osinfo"
	"github.com/eof-fuzz/eof/internal/vtime"
	"github.com/eof-fuzz/eof/internal/wire"
)

// AppOutcome classifies one application-level execution.
type AppOutcome int

// Outcomes.
const (
	AppCompleted AppOutcome = iota
	AppCrashed
	AppHung
)

// AppRig is a hardware board driven over the debug port for application-
// level fuzzing of a single entry point (the GDBFuzz/SHiFT harness shape):
// one buffer in, one call out, with the instrumentation confined to the
// modules under test for coverage *measurement* regardless of what feedback
// the tool itself consumes.
type AppRig struct {
	OS     *osinfo.Info
	Board  *board.Spec
	Entry  string // entry-point API, takes (buffer, length)
	Init   string // optional one-shot init API
	InitA  []uint64
	Lat    ocd.Latency
	Budget int64

	Clock     *vtime.Clock
	Collector *cov.Collector // measurement collector

	brd      *board.Board
	client   link.Link
	images   *osinfo.Images
	lay      board.Layout
	mainAddr uint64
	entryIdx int
	initIdx  int

	// ExtraBPs are tool-armed breakpoints (GDBFuzz coverage probes); a stop
	// at one is reported via the BPHits channel of the last run.
	ExtraBPs map[uint64]bool
	// LastHits lists extra breakpoints hit during the last RunBuffer.
	LastHits []uint64
	// LastFault carries the fault of the last AppCrashed outcome.
	LastFault *cpu.Fault

	Restores int
}

// NewAppRig builds the rig. covModules confines instrumentation.
func NewAppRig(info *osinfo.Info, spec *board.Spec, entry, init string, initArgs []uint64, covModules []string, lat ocd.Latency) (*AppRig, error) {
	osInfo := info
	if len(covModules) > 0 {
		osInfo = osinfo.WithCovModules(info, covModules)
	}
	entryIdx := osInfo.APIIndex(entry)
	if entryIdx < 0 {
		return nil, fmt.Errorf("baselines: entry API %q unknown", entry)
	}
	initIdx := -1
	if init != "" {
		if initIdx = osInfo.APIIndex(init); initIdx < 0 {
			return nil, fmt.Errorf("baselines: init API %q unknown", init)
		}
	}
	images, err := osInfo.BuildImages(spec, true)
	if err != nil {
		return nil, err
	}
	syms := images.Syms
	table, err := osInfo.PartTable()
	if err != nil {
		return nil, err
	}
	clock := &vtime.Clock{}
	brd, err := board.New(spec, table, osInfo.Builder, clock)
	if err != nil {
		return nil, err
	}
	r := &AppRig{
		OS:        osInfo,
		Board:     spec,
		Entry:     entry,
		Init:      init,
		InitA:     initArgs,
		Lat:       lat,
		Budget:    500_000,
		Clock:     clock,
		Collector: cov.NewCollector(),
		brd:       brd,
		images:    images,
		lay:       board.LayoutFor(spec),
		mainAddr:  syms.Addr(agent.SymExecutorMain),
		entryIdx:  entryIdx,
		initIdx:   initIdx,
		ExtraBPs:  make(map[uint64]bool),
	}
	return r, nil
}

// Setup provisions flash, boots, attaches the probe, runs the init call.
func (r *AppRig) Setup() error {
	tab := r.brd.PartitionTable()
	for _, part := range []struct {
		name string
		data []byte
	}{{"bootloader", r.images.Boot}, {"kernel", r.images.Kernel}} {
		p := tab.Lookup(part.name)
		if p == nil {
			return fmt.Errorf("baselines: partition %q missing", part.name)
		}
		if err := r.brd.Provision(part.name, part.data); err != nil {
			return err
		}
	}
	if err := r.brd.Boot(); err != nil {
		return err
	}
	r.client = ocd.ConnectDirect(ocd.NewServer(r.brd, r.Lat))
	return r.resync()
}

// Close detaches and kills the board.
func (r *AppRig) Close() {
	if r.client != nil {
		r.client.Close()
	}
	if r.brd.State() == board.On {
		r.brd.Core().Kill()
	}
}

// Client exposes the debug link for tool-specific breakpoint management.
func (r *AppRig) Client() link.Link { return r.client }

func (r *AppRig) resync() error {
	if err := r.client.SetBreakpoint(r.mainAddr); err != nil {
		return err
	}
	for addr := range r.ExtraBPs {
		if err := r.client.SetBreakpoint(addr); err != nil {
			break
		}
	}
	// Run to executor_main.
	for i := 0; i < 32; i++ {
		st, err := r.client.Continue(r.Budget)
		if err != nil {
			return err
		}
		if st.Kind == cpu.StopBreakpoint && st.PC == r.mainAddr {
			if r.initIdx >= 0 {
				return r.runInit()
			}
			return nil
		}
		if st.Kind == cpu.StopCovFull {
			if _, err := r.drainCov(); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("baselines: target never reached executor_main")
}

func (r *AppRig) runInit() error {
	args := make([]wire.Arg, len(r.InitA))
	for i, v := range r.InitA {
		args[i] = wire.Arg{Kind: wire.ArgImm, Val: v}
	}
	p := &wire.Prog{Calls: []wire.Call{{API: uint16(r.initIdx), Args: args}}}
	outcome, _, err := r.exec(p, 3*time.Second)
	if err != nil {
		return err
	}
	if outcome != AppCompleted {
		return fmt.Errorf("baselines: init call did not complete")
	}
	return nil
}

// RunBuffer executes entry(buffer, len(buffer)) and returns the outcome plus
// the measured fresh edges.
func (r *AppRig) RunBuffer(buf []byte, timeout time.Duration) (AppOutcome, int, error) {
	if len(buf) > wire.MaxBlob {
		buf = buf[:wire.MaxBlob]
	}
	p := &wire.Prog{Calls: []wire.Call{{
		API: uint16(r.entryIdx),
		Args: []wire.Arg{
			{Kind: wire.ArgBlob, Blob: buf},
			{Kind: wire.ArgImm, Val: uint64(len(buf))},
		},
	}}}
	return r.exec(p, timeout)
}

func (r *AppRig) exec(p *wire.Prog, timeout time.Duration) (AppOutcome, int, error) {
	r.LastHits = r.LastHits[:0]
	r.LastFault = nil
	raw, err := p.Marshal()
	if err != nil {
		return AppHung, 0, err
	}
	buf := make([]byte, 4+len(raw))
	binary.LittleEndian.PutUint32(buf, uint32(len(raw)))
	copy(buf[4:], raw)
	if err := r.client.WriteMem(r.lay.MailboxIn, buf); err != nil {
		if errors.Is(err, ocd.ErrTimeout) {
			return AppHung, 0, r.restore()
		}
		return AppHung, 0, err
	}
	start := r.Clock.Now()
	fresh := 0
	var lastPC uint64
	stall := 0
	for i := 0; i < 256; i++ {
		st, err := r.client.Continue(r.Budget)
		if err != nil {
			if errors.Is(err, ocd.ErrTimeout) {
				return AppHung, fresh, r.restore()
			}
			return AppHung, fresh, err
		}
		switch st.Kind {
		case cpu.StopBreakpoint:
			if st.PC == r.mainAddr {
				n, err := r.drainCov()
				if err != nil {
					return AppHung, fresh, err
				}
				return AppCompleted, fresh + n, nil
			}
			if r.ExtraBPs[st.PC] {
				r.LastHits = append(r.LastHits, st.PC)
				delete(r.ExtraBPs, st.PC)
				if err := r.client.ClearBreakpoint(st.PC); err != nil {
					return AppHung, fresh, err
				}
			}
		case cpu.StopCovFull:
			n, err := r.drainCov()
			if err != nil {
				return AppHung, fresh, err
			}
			fresh += n
		case cpu.StopFault:
			r.LastFault = st.Fault
			return AppCrashed, fresh, r.restore()
		case cpu.StopBudget:
			if st.PC == lastPC {
				stall++
			} else {
				lastPC, stall = st.PC, 0
			}
			if stall >= 2 || r.Clock.Now()-start > timeout {
				return AppHung, fresh, r.restore()
			}
		case cpu.StopExit, cpu.StopKilled:
			return AppHung, fresh, r.restore()
		}
	}
	return AppHung, fresh, r.restore()
}

// restore reboots (reflashing if the image is damaged), re-arms breakpoints
// and re-runs the init call.
func (r *AppRig) restore() error {
	r.Restores++
	if err := r.client.Reset(); err != nil {
		tab := r.brd.PartitionTable()
		for _, part := range []struct {
			name string
			data []byte
		}{{"bootloader", r.images.Boot}, {"kernel", r.images.Kernel}} {
			pt := tab.Lookup(part.name)
			if err := r.client.FlashErase(pt.Offset, pt.Size); err != nil {
				return err
			}
			if err := r.client.FlashWrite(pt.Offset, part.data); err != nil {
				return err
			}
		}
		if err := r.client.Reset(); err != nil {
			return err
		}
	}
	return r.resync()
}

func (r *AppRig) drainCov() (int, error) {
	header, err := r.client.ReadMem(r.lay.Cov, 16)
	if err != nil {
		return 0, err
	}
	count := int(binary.LittleEndian.Uint32(header[4:]))
	if count <= 0 || count > r.Board.CovEntries {
		return 0, nil
	}
	raw, err := r.client.ReadMem(r.lay.Cov+16, count*4)
	if err != nil {
		return 0, err
	}
	entries := make([]uint32, count)
	for i := range entries {
		entries[i] = binary.LittleEndian.Uint32(raw[i*4:])
	}
	if err := r.client.WriteMem(r.lay.Cov+4, []byte{0, 0, 0, 0}); err != nil {
		return 0, err
	}
	return len(r.Collector.Ingest(entries)), nil
}

// DrainUART exposes console capture for crash attribution.
func (r *AppRig) DrainUART() []string {
	lines, err := r.client.DrainUART()
	if err != nil {
		return nil
	}
	return lines
}
