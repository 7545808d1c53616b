package board

import (
	"bytes"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"

	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/flash"
	"github.com/eof-fuzz/eof/internal/mem"
)

// TestRestoreByteEquivalence is the delta-restore correctness invariant: after
// a snapshot restore, flash and RAM are byte-identical to a twin board that
// was fully reflashed from the same golden images and rebooted. Three rounds
// in a row damage different flash sectors (both partitions, a span across
// two sectors, an erase, a sector outside every partition) and RAM pages,
// so later rounds restore over a capture earlier rounds already used.
func TestRestoreByteEquivalence(t *testing.T) {
	b := provisioned(t, true) // delta-restored board
	r := provisioned(t, true) // reference board: full reflash + reset
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := r.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Each round damages flash (a torn image) and RAM (crash leftovers) on
	// the delta board, the state a restore exists to repair.
	rounds := []func(){
		func() {
			b.Flash().Corrupt(0x8000+64, 16, 0xAA)
			if err := b.Mem().PutU32(b.Env().ScratchBase, 0xDEADBEEF); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			b.Flash().Corrupt(0x40, 8, 0x00)
			b.Flash().Corrupt(0xA000-8, 16, 0x11)
			if err := b.Mem().Fill(b.Env().ScratchBase+5*mem.PageSize, 3*mem.PageSize, 0x5A); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if err := b.FlashErase(0xC000, b.Spec.SectorSize); err != nil {
				t.Fatal(err)
			}
			b.Flash().Corrupt(0x60000, 4, 0x00)
			last := b.Spec.RAMBase + uint64(b.Spec.RAMSize) - 8
			if err := b.Mem().PutU64(last, 0x0123456789ABCDEF); err != nil {
				t.Fatal(err)
			}
		},
	}
	boot := (&flash.Image{Magic: flash.MagicBoot, OS: "x", BuildID: 1, CodeSize: 64}).Serialize()
	kern := (&flash.Image{Magic: flash.MagicKernel, OS: "x", BuildID: 1, Instrumented: true, CodeSize: 256}).Serialize()
	for round, damage := range rounds {
		damage()
		st, err := b.RestoreSnapshot()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st.FlashSectors == 0 {
			t.Fatalf("round %d: corrupted sector not re-shipped: %+v", round, st)
		}
		if st.RestoredBytes == 0 || st.SkippedBytes == 0 {
			t.Fatalf("round %d: implausible restore stats: %+v", round, st)
		}

		// Reference path: full reflash of both partitions + reboot.
		for _, part := range []struct {
			off  int
			data []byte
		}{{0, boot}, {0x8000, kern}} {
			if err := r.FlashErase(part.off, len(part.data)); err != nil {
				t.Fatal(err)
			}
			if err := r.FlashProgram(part.off, part.data); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}

		if !bytes.Equal(b.Flash().Bytes(), r.Flash().Bytes()) {
			t.Fatalf("round %d: flash differs from full-reflash reference after delta restore", round)
		}
		if !bytes.Equal(b.Env().RAM.Bytes(), r.Env().RAM.Bytes()) {
			t.Fatalf("round %d: RAM differs from reflash+reset reference after delta restore", round)
		}
		if b.State() != On {
			t.Fatalf("round %d: restored board state: %v", round, b.State())
		}
	}
	b.Core().Kill()
	r.Core().Kill()
}

// TestRestoreSkipsCleanState asserts the delta property: dirtied-but-unchanged
// state is proven clean by the byte diff and not re-shipped.
func TestRestoreSkipsCleanState(t *testing.T) {
	b := provisioned(t, true)
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if secs, _ := b.DirtySince(); len(secs) != 0 {
		t.Fatalf("snapshot left dirty sectors: %v", secs)
	}

	// Re-program a sector with its own bytes: dirty, but byte-equal.
	sz := b.Spec.SectorSize
	cur, err := b.Flash().Read(0, sz)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.FlashErase(0, sz); err != nil {
		t.Fatal(err)
	}
	if err := b.FlashProgram(0, cur); err != nil {
		t.Fatal(err)
	}
	if secs, _ := b.DirtySince(); len(secs) == 0 {
		t.Fatal("reprogram did not mark the sector dirty")
	}

	st, err := b.RestoreSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.FlashSectors != 0 {
		t.Fatalf("byte-equal sector was re-shipped: %+v", st)
	}
	b.Core().Kill()
}

// TestRestoreTornSectorEscalates asserts the failure contract: a worn sector
// tearing the delta restore's flash write surfaces the error, and the classic
// reflash + boot path still recovers the board afterwards.
func TestRestoreTornSectorEscalates(t *testing.T) {
	b := provisioned(t, true)
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Diverge a kernel sector so the restore must erase + re-program it, then
	// wear the flash out so that write tears.
	b.Flash().Corrupt(0x8000, 32, 0x5A)
	b.SetDegrade(DegradeConfig{WearLimit: 1, WearFailStreak: 2, Seed: 1})

	_, err := b.RestoreSnapshot()
	if err == nil || !strings.Contains(err.Error(), "worn") {
		t.Fatalf("restore across worn sector: %v", err)
	}
	if secs, _ := b.DirtySince(); len(secs) == 0 {
		t.Fatal("failed restore cleared the dirty bitmap")
	}

	// The recovery ladder's reflash rung repairs the torn image once the
	// marginal cells recover (WearFailStreak operations later).
	kern := (&flash.Image{Magic: flash.MagicKernel, OS: "x", BuildID: 1, Instrumented: true, CodeSize: 256}).Serialize()
	var ferr error
	for attempt := 0; attempt < 4; attempt++ {
		if ferr = b.FlashErase(0x8000, len(kern)); ferr != nil {
			continue
		}
		if ferr = b.FlashProgram(0x8000, kern); ferr == nil {
			break
		}
	}
	if ferr != nil {
		t.Fatalf("reflash never recovered: %v", ferr)
	}
	if err := b.Boot(); err != nil {
		t.Fatalf("boot after reflash: %v", err)
	}
	b.Core().Kill()
}

// TestRestoreWithoutSnapshotFails pins the ErrNoSnapshot contract the probe
// maps to the Esnap wire code.
func TestRestoreWithoutSnapshotFails(t *testing.T) {
	b := provisioned(t, true)
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RestoreSnapshot(); err != ErrNoSnapshot {
		t.Fatalf("restore without snapshot: %v", err)
	}
	if err := b.Snapshot(); err != nil {
		t.Fatal(err)
	}
	b.DropSnapshot()
	if b.HasSnapshot() {
		t.Fatal("drop kept the snapshot")
	}
	if _, err := b.RestoreSnapshot(); err != ErrNoSnapshot {
		t.Fatalf("restore after drop: %v", err)
	}
	b.Core().Kill()
}

// TestRestoreAllocatesNoMemoryCopy pins the in-place rebuild: once warm, a
// snapshot restore and a reset reuse the board's RAM region and coverage
// runtime instead of allocating them, and a capture copies RAM but not flash.
func TestRestoreAllocatesNoMemoryCopy(t *testing.T) {
	b := provisioned(t, true)
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	const slack = 64 << 10
	if got := allocPerCall(1, func() {
		if err := b.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}); got >= uint64(b.Spec.RAMSize+slack) {
		t.Fatalf("Snapshot allocated %d bytes, want < RAMSize + %d", got, slack)
	}
	restore := func() {
		b.Flash().Corrupt(0x8000+64, 16, 0x0F)
		if err := b.Mem().PutU32(b.Env().ScratchBase, 0xDEADBEEF); err != nil {
			t.Fatal(err)
		}
		if _, err := b.RestoreSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	reset := func() {
		if err := b.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		f    func()
	}{{"RestoreSnapshot", restore}, {"Reset", reset}} {
		c.f() // warm-up
		if got := allocPerCall(20, c.f); got >= slack {
			t.Errorf("%s allocated %d bytes per call, want < %d", c.name, got, slack)
		}
	}
	b.Core().Kill()
}

// allocPerCall returns the bytes the process allocated per call of f.
func allocPerCall(n int, f func()) uint64 {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// zeroCheckFW records, each time Main starts, whether RAM outside the
// coverage buffer header is all zero, then parks at a fixed block.
type zeroCheckFW struct {
	env    *Env
	zeroed *[]bool
}

const zeroCheckPark = 0x0800_0000 + 0x2000

func (f *zeroCheckFW) Main() {
	ram := f.env.RAM.Bytes()
	hdr := CovOffset + 16 // the coverage runtime writes its header at boot
	*f.zeroed = append(*f.zeroed, allZero(ram[:CovOffset]) && allZero(ram[hdr:]))
	for {
		f.env.Core.Step(zeroCheckPark)
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestRebuildStartsOnZeroedRAM checks that a board reusing its RAM region
// clears it before the firmware starts, on a reset and on the replay of a
// snapshot restore, however much the previous run wrote into it.
func TestRebuildStartsOnZeroedRAM(t *testing.T) {
	var zeroed []bool
	b := provisioned(t, true)
	b.builder = func(env *Env) (Firmware, error) { return &zeroCheckFW{env: env, zeroed: &zeroed}, nil }
	park := func() {
		t.Helper()
		if err := b.Core().SetBreakpoint(zeroCheckPark); err != nil {
			t.Fatal(err)
		}
		if st := b.Core().Continue(1000); st.Kind != cpu.StopBreakpoint {
			t.Fatalf("stop %v, want the park breakpoint", st.Kind)
		}
	}
	scribble := func() {
		t.Helper()
		for _, off := range []uint64{FSBOffset, CovOffset + 64, uint64(b.Spec.RAMSize) - 4} {
			if err := b.Mem().PutU32(b.Spec.RAMBase+off, 0xDEADBEEF); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	park()
	scribble()
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	park()
	scribble()
	if err := b.Snapshot(); err != nil {
		t.Fatal(err)
	}
	scribble()
	if _, err := b.RestoreSnapshot(); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, true}; !slices.Equal(zeroed, want) {
		t.Fatalf("RAM zeroed at Main entry of boot, reset, restore: %v, want %v", zeroed, want)
	}
	b.Core().Kill()
}

// TestRestoreAfterRecapture checks that a second Snapshot moves the flash
// capture: after a reflash and a new capture, a restore rolls damaged flash
// back to the reflashed bytes, not to the first capture's.
func TestRestoreAfterRecapture(t *testing.T) {
	b := provisioned(t, true)
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot(); err != nil {
		t.Fatal(err)
	}
	boot := (&flash.Image{Magic: flash.MagicBoot, OS: "y", BuildID: 2, CodeSize: 96}).Serialize()
	kern := (&flash.Image{Magic: flash.MagicKernel, OS: "y", BuildID: 2, Instrumented: true, CodeSize: 5000}).Serialize()
	for _, part := range []struct {
		off  int
		data []byte
	}{{0, boot}, {0x8000, kern}} {
		if err := b.FlashErase(part.off, len(part.data)); err != nil {
			t.Fatal(err)
		}
		if err := b.FlashProgram(part.off, part.data); err != nil {
			t.Fatal(err)
		}
	}
	reflashed := bytes.Clone(b.Flash().Bytes())
	if err := b.Snapshot(); err != nil {
		t.Fatal(err)
	}
	b.Flash().Corrupt(0x10, 8, 0x00)
	b.Flash().Corrupt(0x8000+4090, 12, 0x33)
	if _, err := b.RestoreSnapshot(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Flash().Bytes(), reflashed) {
		t.Fatal("restore after a second snapshot did not return flash to the reflashed bytes")
	}
	if got := b.Env().BuildID; got != 2 {
		t.Fatalf("restored board runs build %d, want 2", got)
	}
	b.Core().Kill()
}
