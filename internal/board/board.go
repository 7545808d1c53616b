// Package board assembles the virtual development board: flash, RAM, UART,
// CPU core and the firmware boot path. A Board outlives reboots — flash
// contents (including corruption left behind by kernel bugs) persist until
// the host reflashes partitions over the debug link, which is exactly the
// failure/recovery surface the paper's state-restoration module targets.
package board

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"github.com/eof-fuzz/eof/internal/cov"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/flash"
	"github.com/eof-fuzz/eof/internal/mem"
	"github.com/eof-fuzz/eof/internal/sym"
	"github.com/eof-fuzz/eof/internal/uart"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// RAM layout offsets (from RAMBase). Fixed across boards so the host tooling
// can locate the shared structures from the image header alone.
const (
	FSBOffset     = 0x40  // fault status block
	FSBSize       = 0x2C0 // 704 bytes for fault record + frames
	CovOffset     = 0x300 // coverage buffer header
	MailboxAlign  = 0x100
	MailboxInSize = 16 * 1024
	MailboxOutLen = 256
)

// State is the board's coarse power/liveness state.
type State int

// Board states.
const (
	Off State = iota
	On
	Bricked // boot failed: image invalid until reflashed
	Dead    // permanent hardware death: no recovery rung brings it back
)

func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case On:
		return "on"
	case Bricked:
		return "bricked"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Spec describes a board model.
type Spec struct {
	Name string // e.g. "stm32h745"
	Arch string // "arm", "riscv", "xtensa"

	HZ             uint64
	CyclesPerBlock uint64
	InstrCycles    uint64
	MaxBreakpoints int

	FlashBase  uint64
	FlashSize  int
	SectorSize int

	RAMBase uint64
	RAMSize int

	CovEntries int

	// Emulated marks QEMU-style boards; peripheral-dependent APIs behave
	// differently there (the Tardis/Gustave comparison hinges on this).
	Emulated bool
	// IdleWarp divides the wall-clock cost of idle waits (kernel tick
	// periods): a fuzzing emulator fast-forwards virtual timers instead of
	// idling in host wall-clock, so sleeps and timeouts resolve IdleWarp
	// times faster than on hardware. 0 or 1 leaves time unwarped.
	IdleWarp uint64
	// Peripherals lists hardware blocks present on this board.
	Peripherals map[string]bool
}

// HasPeripheral reports whether the board provides the named block.
func (s *Spec) HasPeripheral(name string) bool { return s.Peripherals[name] }

// CPUConfig derives the cpu package configuration.
func (s *Spec) CPUConfig() cpu.Config {
	return cpu.Config{
		Model:          vtime.CycleModel{HZ: s.HZ},
		CyclesPerBlock: s.CyclesPerBlock,
		InstrCycles:    s.InstrCycles,
		MaxBreakpoints: s.MaxBreakpoints,
	}
}

// Layout gives the addresses of the shared host/target RAM structures for a
// board spec. Boot derives the live environment from it, and the host derives
// mailbox/FSB/coverage addresses without asking the target.
type Layout struct {
	FSB        uint64
	Cov        uint64
	CovBytes   int
	MailboxIn  uint64
	MailboxOut uint64
	Scratch    uint64
}

// LayoutFor computes the RAM layout for spec.
func LayoutFor(spec *Spec) Layout {
	covAddr := spec.RAMBase + CovOffset
	covBytes := cov.BufferBytes(spec.CovEntries)
	covEnd := covAddr + uint64(covBytes)
	mboxIn := (covEnd + MailboxAlign - 1) &^ (MailboxAlign - 1)
	mboxOut := mboxIn + MailboxInSize
	scratch := (mboxOut + MailboxOutLen + MailboxAlign - 1) &^ (MailboxAlign - 1)
	return Layout{
		FSB:        spec.RAMBase + FSBOffset,
		Cov:        covAddr,
		CovBytes:   covBytes,
		MailboxIn:  mboxIn,
		MailboxOut: mboxOut,
		Scratch:    scratch,
	}
}

// Env is everything a firmware builder needs to construct the OS + agent.
// Mem, RAM and Cov belong to the board and are reset in place at every boot,
// so an Env kept from an earlier boot sees the current boot's RAM.
type Env struct {
	Spec         *Spec
	Clock        *vtime.Clock
	Core         *cpu.Core
	Mem          *mem.Map
	RAM          *mem.Region
	UART         *uart.UART
	Flash        *flash.Device
	Cov          *cov.Runtime // nil when the image is not instrumented
	Instrumented bool
	Syms         *sym.Table
	BuildID      uint64

	// Shared-structure addresses.
	FSBAddr     uint64
	CovAddr     uint64
	MailboxIn   uint64
	MailboxOut  uint64
	ScratchBase uint64 // first RAM address free for the kernel
}

// Firmware is a built OS + agent image; Main runs on the target goroutine.
type Firmware interface {
	Main()
}

// Builder constructs firmware from a booted environment. It corresponds to
// linking the OS, agent and instrumentation into one image.
type Builder func(env *Env) (Firmware, error)

// BootError reports a failed boot with the partition that failed validation.
type BootError struct {
	Partition string
	Err       error
}

func (e *BootError) Error() string {
	return fmt.Sprintf("boot: partition %q invalid: %v", e.Partition, e.Err)
}

// Board is one virtual development board.
type Board struct {
	Spec  *Spec
	Clock *vtime.Clock

	flashDev *flash.Device
	table    *flash.Table
	builder  Builder
	// images is the last boot-image validation; it stands while the flash
	// mutation count is the one it ran at.
	images imageCheck

	// The memory map, its RAM region and the coverage runtime (created at
	// the first instrumented boot) last as long as the board: every boot
	// resets them in place.
	memmap *mem.Map
	ram    *mem.Region
	covrt  *cov.Runtime
	core   *cpu.Core
	uartd  *uart.UART
	env    *Env
	fw     Firmware

	state     State
	bootCount int
	lastBoot  error

	snap    *snapshot // cached golden state for delta restore, nil until Snapshot
	degrade *degrader // nil = perfect board
}

// New creates a powered-off board with erased flash.
func New(spec *Spec, table *flash.Table, builder Builder, clock *vtime.Clock) (*Board, error) {
	dev := flash.NewDevice(spec.FlashSize, spec.SectorSize)
	if err := table.Validate(dev); err != nil {
		return nil, err
	}
	mm := mem.NewMap()
	mm.MustAdd(mem.BackedRegion("flash", spec.FlashBase, dev.Bytes(), mem.RX))
	ram := mem.NewRegion("ram", spec.RAMBase, spec.RAMSize, mem.RW)
	mm.MustAdd(ram)
	return &Board{
		Spec:     spec,
		Clock:    clock,
		flashDev: dev,
		table:    table,
		builder:  builder,
		memmap:   mm,
		ram:      ram,
		uartd:    uart.New(clock),
		state:    Off,
	}, nil
}

// SetDegrade installs the degradation model. Call before the first boot; a
// config with no modes enabled leaves the board perfect.
func (b *Board) SetDegrade(cfg DegradeConfig) {
	if !cfg.Enabled() {
		b.degrade = nil
		return
	}
	b.degrade = newDegrader(cfg)
}

// Flash returns the flash device (persistent across reboots).
func (b *Board) Flash() *flash.Device { return b.flashDev }

// PartitionTable returns the board's partition table.
func (b *Board) PartitionTable() *flash.Table { return b.table }

// UART returns the serial console capture.
func (b *Board) UART() *uart.UART { return b.uartd }

// State returns the board's power/liveness state.
func (b *Board) State() State { return b.state }

// BootCount returns how many successful boots have occurred.
func (b *Board) BootCount() int { return b.bootCount }

// LastBootError returns the most recent boot failure, if any.
func (b *Board) LastBootError() error { return b.lastBoot }

// Core returns the live CPU core, or nil when the board is off/bricked.
func (b *Board) Core() *cpu.Core {
	if b.state != On {
		return nil
	}
	return b.core
}

// Mem returns the live memory map, or nil when the board is off/bricked.
func (b *Board) Mem() *mem.Map {
	if b.state != On {
		return nil
	}
	return b.memmap
}

// Env returns the live firmware environment, or nil when not booted.
func (b *Board) Env() *Env {
	if b.state != On {
		return nil
	}
	return b.env
}

// Provision factory-programs a partition image, bypassing the debug link.
func (b *Board) Provision(part string, data []byte) error {
	if b.state == Dead {
		return fmt.Errorf("board: provision: %w", ErrDead)
	}
	p := b.table.Lookup(part)
	if p == nil {
		return fmt.Errorf("board: no partition %q", part)
	}
	if len(data) > p.Size {
		return fmt.Errorf("board: image %d bytes exceeds partition %q (%d bytes)", len(data), part, p.Size)
	}
	return b.flashDev.WriteImage(p.Offset, data)
}

// Virtual time consumed by boots. A power cycle pays an extra settle delay on
// top of the boot: discharging the rails and re-enumerating the probe is far
// slower than a warm reset, which is why it is the recovery ladder's last
// resort before declaring the board dead.
const (
	bootDelay       = 280 * time.Millisecond
	powerCycleDelay = 750 * time.Millisecond
)

// Boot powers the board on: validates flash images, rebuilds firmware state
// and starts the core halted at the firmware entry. On image validation
// failure the board ends up Bricked and the error is returned. With a
// degradation model installed the attempt may also fail transiently (board
// stays Off) or kill the board for good (ErrDead).
func (b *Board) Boot() error { return b.boot(false) }

// PowerCycle fully powers the board down, waits for the rails to settle and
// cold-boots. Functionally a Reset, but it costs more virtual time and its
// cold start clears marginal conditions a warm reset cannot (the degradation
// model halves the transient boot-failure rate for cold boots).
func (b *Board) PowerCycle() error {
	if b.state == Dead {
		return fmt.Errorf("board: power-cycle: %w", ErrDead)
	}
	b.shutdown()
	b.Clock.Advance(powerCycleDelay)
	return b.boot(true)
}

func (b *Board) boot(cold bool) error {
	if b.state == Dead {
		return fmt.Errorf("board: boot: %w", ErrDead)
	}
	if b.state == On {
		b.shutdown()
	}
	b.Clock.Advance(bootDelay)

	if b.degrade != nil {
		if err := b.degrade.bootFate(cold); err != nil {
			if errors.Is(err, ErrDead) {
				b.shutdown()
				b.state = Dead
				b.lastBoot = fmt.Errorf("board: %w", err)
				return b.lastBoot
			}
			// Transient power-on failure: the board stays off, not bricked —
			// a later attempt (or a cold boot) may well succeed.
			b.state = Off
			b.lastBoot = fmt.Errorf("board: %w", err)
			return b.lastBoot
		}
	}

	rt, err := b.buildRuntime()
	if err != nil {
		b.state = Bricked
		b.lastBoot = err
		return err
	}

	b.core = rt.core
	b.env = rt.env
	b.fw = rt.fw
	b.state = On
	b.bootCount++
	b.lastBoot = nil
	b.uartd.WriteString(fmt.Sprintf("boot: %s build %#x instrumented=%v board=%s\n",
		rt.kimg.OS, rt.kimg.BuildID, rt.kimg.Instrumented, b.Spec.Name))
	rt.core.Start(rt.fw.Main)
	return nil
}

// runtime bundles the per-boot objects a successful image validation yields.
type runtime struct {
	core *cpu.Core
	env  *Env
	fw   Firmware
	kimg *flash.Image
}

// buildRuntime validates the flash images, resets RAM and the coverage
// runtime in place and constructs the core and firmware objects. It is
// shared by cold boots and by the snapshot warm-restore path; callers shut
// the old core down first, commit the result and charge whatever timing
// their path costs.
func (b *Board) buildRuntime() (*runtime, error) {
	kimg, err := b.validateImages()
	if err != nil {
		return nil, err
	}

	// No target goroutine is left to touch RAM: Core.Kill returns only once
	// the old one has exited.
	b.ram.Reset()
	core := cpu.New(b.Clock, b.Spec.CPUConfig())
	core.SetInstrumented(kimg.Instrumented)

	lay := LayoutFor(b.Spec)

	env := &Env{
		Spec:         b.Spec,
		Clock:        b.Clock,
		Core:         core,
		Mem:          b.memmap,
		RAM:          b.ram,
		UART:         b.uartd,
		Flash:        b.flashDev,
		Instrumented: kimg.Instrumented,
		Syms:         sym.NewTable(b.Spec.FlashBase + 0x1000),
		BuildID:      kimg.BuildID,
		FSBAddr:      lay.FSB,
		CovAddr:      lay.Cov,
		MailboxIn:    lay.MailboxIn,
		MailboxOut:   lay.MailboxOut,
		ScratchBase:  lay.Scratch,
	}
	// The FSB and the coverage buffer are mutated by the runtime directly
	// through the RAM slab, bypassing the map's write path: pin their pages
	// permanently dirty so delta restores never miss them.
	b.ram.PinDirty(FSBOffset, FSBSize)
	if kimg.Instrumented {
		if b.covrt == nil {
			b.covrt = cov.NewRuntime(b.ram.Bytes()[CovOffset:CovOffset+uint64(lay.CovBytes)], b.Spec.CovEntries)
		} else {
			b.covrt.Reset()
		}
		env.Cov = b.covrt
		b.ram.PinDirty(CovOffset, lay.CovBytes)
	}

	fw, err := b.builder(env)
	if err != nil {
		return nil, fmt.Errorf("boot: firmware init: %w", err)
	}
	return &runtime{core: core, env: env, fw: fw, kimg: kimg}, nil
}

// imageCheck is one validation of the boot images: the parsed kernel image
// or the boot error, and the flash mutation count it ran at.
type imageCheck struct {
	done bool
	at   uint64
	kimg *flash.Image
	err  error
}

// validateImages validates the bootloader and kernel partitions, reusing the
// last result while the flash has taken no erase, program or corrupting
// write since it ran.
func (b *Board) validateImages() (*flash.Image, error) {
	if c := b.images; c.done && c.at == b.flashDev.Mutations() {
		return c.kimg, c.err
	}
	kimg, err := b.validatePartition("bootloader", flash.MagicBoot)
	if err == nil {
		kimg, err = b.validatePartition("kernel", flash.MagicKernel)
	}
	b.images = imageCheck{done: true, at: b.flashDev.Mutations(), kimg: kimg, err: err}
	return kimg, err
}

func (b *Board) validatePartition(name string, wantMagic uint32) (*flash.Image, error) {
	p := b.table.Lookup(name)
	if p == nil {
		return nil, &BootError{Partition: name, Err: fmt.Errorf("missing from partition table")}
	}
	raw, err := b.flashDev.View(p.Offset, p.Size)
	if err != nil {
		return nil, &BootError{Partition: name, Err: err}
	}
	im, err := flash.ParseImage(raw)
	if err != nil {
		return nil, &BootError{Partition: name, Err: err}
	}
	if im.Magic != wantMagic {
		return nil, &BootError{Partition: name, Err: fmt.Errorf("wrong image type %#x", im.Magic)}
	}
	return im, nil
}

func (b *Board) shutdown() {
	if b.core != nil {
		b.core.Kill()
	}
	b.core = nil
	b.env = nil
	b.fw = nil
	if b.state != Dead {
		b.state = Off
	}
}

// Reset warm-resets the board: kills the core and reboots from flash without
// dropping power. If flash is corrupt the board comes back Bricked.
func (b *Board) Reset() error {
	if b.state == Dead {
		return fmt.Errorf("board: reset: %w", ErrDead)
	}
	b.shutdown()
	return b.Boot()
}

// Flash timing model for the debug-link flash commands.
const (
	eraseSectorTime  = 12 * time.Millisecond // per sector erase
	programTimePerKB = 5 * time.Millisecond  // ~200 KiB/s program rate
)

// FlashErase erases every sector covering [off, off+n), advancing virtual
// time by the erase cost. Allowed in any state short of Dead (the probe can
// always reach flash; that is the point of debug-port restoration). Sectors
// erase one at a time: a worn sector failing mid-range leaves the earlier
// sectors erased, exactly the torn state a real NOR part produces.
func (b *Board) FlashErase(off, n int) error {
	if b.state == Dead {
		return fmt.Errorf("board: flash erase: %w", ErrDead)
	}
	if n <= 0 || off < 0 || off > b.flashDev.Size()-n {
		// Delegate no-ops and range errors without charging erase time for
		// sectors that were never touched.
		return b.flashDev.EraseRange(off, n)
	}
	for s := off / b.Spec.SectorSize; s <= (off+n-1)/b.Spec.SectorSize; s++ {
		b.Clock.Advance(eraseSectorTime)
		if b.degrade != nil && b.degrade.wearFail(s, b.flashDev.EraseCount(s)) {
			return fmt.Errorf("board: sector %d erase failed after %d cycles (worn)",
				s, b.flashDev.EraseCount(s))
		}
		if err := b.flashDev.Erase(s); err != nil {
			return err
		}
	}
	return nil
}

// FlashProgram programs data at off, advancing virtual time by the program
// cost. A worn sector in the range fails the write mid-way: bytes before the
// failing sector land, the rest do not — the torn-image case the recovery
// ladder must dig the board out of.
func (b *Board) FlashProgram(off int, data []byte) error {
	if b.state == Dead {
		return fmt.Errorf("board: flash program: %w", ErrDead)
	}
	b.Clock.Advance(time.Duration((len(data)+1023)/1024) * programTimePerKB)
	if b.degrade != nil && len(data) > 0 && off >= 0 && off <= b.flashDev.Size()-len(data) {
		for s := off / b.Spec.SectorSize; s <= (off+len(data)-1)/b.Spec.SectorSize; s++ {
			if b.degrade.wearFail(s, b.flashDev.EraseCount(s)) {
				if pre := s*b.Spec.SectorSize - off; pre > 0 {
					_ = b.flashDev.Program(off, data[:pre])
				}
				return fmt.Errorf("board: sector %d program failed after %d cycles (worn)",
					s, b.flashDev.EraseCount(s))
			}
		}
	}
	return b.flashDev.Program(off, data)
}

// Snapshot/delta-restore cost model. Capturing a snapshot reads the board
// state back over the probe once; restoring ships dirty RAM pages at roughly
// SWD bulk-write rate. Flash deltas go through FlashErase/FlashProgram and
// pay the real erase/program timings, wear included.
const (
	snapshotCaptureTime = 10 * time.Millisecond
	restorePageTime     = 50 * time.Microsecond // per dirty RAM page shipped
)

// ErrNoSnapshot is returned by RestoreSnapshot when no snapshot is cached.
var ErrNoSnapshot = errors.New("board: no snapshot cached")

// snapshot is the cached golden state RestoreSnapshot rolls back to. Its
// flash half is the flash device's capture, which saves each sector before
// its first change.
type snapshot struct {
	ram []byte   // full RAM contents at capture
	bps []uint64 // armed breakpoints at capture
}

// RestoreStats describes what one delta restore shipped and what it proved
// clean and left in place.
type RestoreStats struct {
	FlashSectors  int   // flash sectors erased and re-programmed
	RAMPages      int   // RAM pages shipped
	RestoredBytes int64 // bytes actually re-shipped
	SkippedBytes  int64 // bytes left untouched
}

// Snapshot captures the current board state — flash, RAM and the armed
// breakpoint set — as the golden image RestoreSnapshot rolls back to, and
// resets the dirty tracking so DirtySince diffs against this point. Flash is
// captured copy-before-write and RAM is copied into the previous snapshot's
// buffer. The board must be On, and for restores to be byte-faithful it
// should be parked at a state a plain boot deterministically reproduces (the
// engine snapshots at the executor_main park).
func (b *Board) Snapshot() error {
	if b.state != On {
		return fmt.Errorf("board: snapshot: board %v", b.state)
	}
	b.Clock.Advance(snapshotCaptureTime)
	if b.snap == nil {
		b.snap = &snapshot{}
	}
	b.snap.ram = append(b.snap.ram[:0], b.ram.Bytes()...)
	b.snap.bps = b.core.Breakpoints()
	b.flashDev.Capture()
	b.flashDev.ClearDirty()
	b.ram.ClearDirty()
	return nil
}

// HasSnapshot reports whether a golden snapshot is cached.
func (b *Board) HasSnapshot() bool { return b.snap != nil }

// DropSnapshot discards the cached snapshot and ends the flash capture (a
// newly provisioned image makes the old golden state meaningless).
func (b *Board) DropSnapshot() {
	b.snap = nil
	b.flashDev.EndCapture()
}

// DirtySince returns the flash sectors and RAM pages touched since the last
// Snapshot — the candidate set a delta restore diffs against the golden
// image. RAM pages include the permanently pinned device-mutated pages.
func (b *Board) DirtySince() (sectors, pages []int) {
	sectors = b.flashDev.DirtySectors()
	if b.env != nil {
		pages = b.ram.DirtyPages()
	}
	return sectors, pages
}

// RestoreSnapshot rolls the board back to the cached snapshot by shipping
// only the delta: dirty flash sectors whose bytes actually diverged are
// erased and re-programmed from the golden image, dirty RAM pages are
// re-shipped at bulk-write cost, and the firmware runtime is rebuilt warm —
// no power-on delay, no boot-fate roll, no boot banner — then replayed to
// the snapshot's breakpoint park so the core ends up exactly where the
// snapshot was taken. On failure (worn sector tearing the flash write, image
// validation, replay fault) the board is left for the full recovery ladder
// and the error is returned.
func (b *Board) RestoreSnapshot() (RestoreStats, error) {
	var st RestoreStats
	if b.state == Dead {
		return st, fmt.Errorf("board: restore: %w", ErrDead)
	}
	if b.snap == nil {
		return st, ErrNoSnapshot
	}
	sec := b.Spec.SectorSize

	// Flash delta. A worn sector failing mid-restore leaves the same torn
	// state a full reflash would; the dirty bitmap is not cleared on that
	// path, so the escalated restore still sees a conservative set.
	for _, s := range b.flashDev.DirtySectors() {
		off := s * sec
		golden := b.flashDev.Captured(s)
		cur, err := b.flashDev.View(off, sec)
		if err != nil {
			return st, err
		}
		if bytes.Equal(cur, golden) {
			continue // dirtied but unchanged: same bytes were re-programmed
		}
		if err := b.FlashErase(off, sec); err != nil {
			return st, err
		}
		if err := b.FlashProgram(off, golden); err != nil {
			return st, err
		}
		st.FlashSectors++
		st.RestoredBytes += int64(sec)
	}
	b.flashDev.ClearDirty()

	// RAM delta: count dirty pages that diverged from golden and charge the
	// bulk-write cost of shipping them. The contents land wholesale after
	// the warm rebuild below, which guarantees byte-identity.
	if b.env != nil {
		ram := b.ram.Bytes()
		for _, p := range b.ram.DirtyPages() {
			lo := p * mem.PageSize
			hi := lo + mem.PageSize
			if hi > len(ram) {
				hi = len(ram)
			}
			if bytes.Equal(ram[lo:hi], b.snap.ram[lo:hi]) {
				continue
			}
			st.RAMPages++
			st.RestoredBytes += int64(hi - lo)
			b.Clock.Advance(restorePageTime)
		}
	} else {
		// No live RAM to diff against (the board is off or bricked): the
		// whole image ships.
		st.RAMPages = (len(b.snap.ram) + mem.PageSize - 1) / mem.PageSize
		st.RestoredBytes += int64(len(b.snap.ram))
		b.Clock.Advance(time.Duration(st.RAMPages) * restorePageTime)
	}
	st.SkippedBytes = int64(b.flashDev.Size()+len(b.snap.ram)) - st.RestoredBytes

	// Warm rebuild: same construction as a boot, but the rails never drop.
	b.shutdown()
	rt, err := b.buildRuntime()
	if err != nil {
		b.state = Bricked
		b.lastBoot = err
		return st, err
	}
	b.core = rt.core
	b.env = rt.env
	b.fw = rt.fw
	b.state = On
	b.lastBoot = nil
	rt.core.Start(rt.fw.Main)

	// Re-arm the snapshot's breakpoints and replay to the first hit, parking
	// the core where the snapshot captured it.
	for _, a := range b.snap.bps {
		if err := rt.core.SetBreakpoint(a); err != nil {
			b.shutdown()
			return st, err
		}
	}
	if len(b.snap.bps) > 0 {
		if err := b.replayToBreakpoint(rt); err != nil {
			b.shutdown()
			return st, err
		}
	}

	// Overwrite RAM with the golden bytes wholesale. The replay reproduced
	// the kernel's object state; this squashes any byte-level drift (e.g. a
	// coverage buffer the host had already drained at capture time).
	if err := b.memmap.Write(b.ram.Base, b.snap.ram); err != nil {
		b.shutdown()
		return st, err
	}
	b.ram.ClearDirty()
	if rt.env.Cov != nil {
		rt.env.Cov.SyncFromRAM()
	}
	b.uartd.Drain() // discard crash leftovers and replay boot chatter
	return st, nil
}

// replayToBreakpoint drives the freshly rebuilt core to the snapshot's park
// point, handling the same boot-time stops the host's run-to-main loop does.
func (b *Board) replayToBreakpoint(rt *runtime) error {
	budget := int64(b.Spec.HZ) // one virtual second per slice
	for i := 0; i < 64; i++ {
		stop := rt.core.Continue(budget)
		switch stop.Kind {
		case cpu.StopBreakpoint:
			return nil
		case cpu.StopBudget:
			continue
		case cpu.StopCovFull:
			// Clear the buffer the way the host would and keep replaying;
			// the golden RAM overwrite squashes the contents afterwards.
			if err := b.memmap.PutU32(rt.env.CovAddr+4, 0); err != nil {
				return err
			}
			rt.env.Cov.SyncFromRAM()
		default:
			return fmt.Errorf("board: restore replay stopped: %v at %#x", stop.Kind, stop.PC)
		}
	}
	return fmt.Errorf("board: restore replay never reached a breakpoint")
}
