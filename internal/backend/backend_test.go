package backend

import (
	"bytes"
	"errors"
	"testing"

	"github.com/eof-fuzz/eof/internal/agent"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/boards"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/flash"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/ocd"
	"github.com/eof-fuzz/eof/internal/targets"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// linkRig is a FreeRTOS backend brought up and connected, with what a test
// needs to drive it: the partition images and the executor_main address.
type linkRig struct {
	bk     Backend
	l      link.Link
	spec   *board.Spec
	table  *flash.Table
	images map[string][]byte
	main   uint64
}

// bringUp runs the engine's bring-up order on a fresh backend: Provision,
// Boot, Connect.
func bringUp(t *testing.T, factory Factory, spec *board.Spec) *linkRig {
	t.Helper()
	info, err := targets.ByName("freertos")
	if err != nil {
		t.Fatal(err)
	}
	images, err := info.BuildImages(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	syms, err := info.SymbolTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	table, err := info.PartTable()
	if err != nil {
		t.Fatal(err)
	}
	bk, err := factory(Env{Info: info, Spec: spec, Images: images, Clock: &vtime.Clock{}, Latency: ocd.DefaultLatency()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bk.Close() })
	if err := bk.Provision(); err != nil {
		t.Fatal(err)
	}
	if err := bk.Boot(); err != nil {
		t.Fatal(err)
	}
	return &linkRig{
		bk: bk, l: bk.Connect(), spec: spec, table: table,
		images: map[string][]byte{"bootloader": images.Boot, "kernel": images.Kernel},
		main:   syms.Addr(agent.SymExecutorMain),
	}
}

// runToMain arms executor_main and resumes until the core parks there,
// draining the coverage buffer whenever the boot path fills it.
func (r *linkRig) runToMain(t *testing.T) {
	t.Helper()
	if err := r.l.SetBreakpoint(r.main); err != nil {
		t.Fatal(err)
	}
	cov := board.LayoutFor(r.spec).Cov
	for i := 0; i < 64; i++ {
		st, err := r.l.Continue(500_000)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case st.Kind == cpu.StopBreakpoint && st.PC == r.main:
			return
		case st.Kind == cpu.StopCovFull:
			if _, _, err := r.l.DrainCov(cov, r.spec.CovEntries); err != nil {
				t.Fatal(err)
			}
		case st.Kind != cpu.StopBudget:
			t.Fatalf("stopped short of executor_main: %v at %#x", st.Kind, st.PC)
		}
	}
	t.Fatal("never reached executor_main")
}

// checkFlash asserts that every partition holds exactly its image, erased
// beyond it.
func (r *linkRig) checkFlash(t *testing.T, when string) {
	t.Helper()
	dev := r.bk.Board().Flash().Bytes()
	for name, img := range r.images {
		p := r.table.Lookup(name)
		part := dev[p.Offset : p.Offset+p.Size]
		if !bytes.Equal(part[:len(img)], img) {
			t.Fatalf("%s: partition %q differs from its image", when, name)
		}
		if tail := part[len(img):]; bytes.Count(tail, []byte{flash.Erased}) != len(tail) {
			t.Fatalf("%s: partition %q not erased past its image", when, name)
		}
	}
}

// reflashRoundTrip parks the target at executor_main, corrupts the kernel
// image, reflashes both partitions through the link, resets and parks it at
// executor_main again.
func reflashRoundTrip(t *testing.T, r *linkRig) {
	r.runToMain(t)
	kernel := r.table.Lookup("kernel")
	r.bk.Board().Flash().Corrupt(kernel.Offset+64, 32, 0)
	for _, name := range []string{"bootloader", "kernel"} {
		p := r.table.Lookup(name)
		if err := r.l.FlashErase(p.Offset, p.Size); err != nil {
			t.Fatalf("erase %s: %v", name, err)
		}
		if err := r.l.FlashWrite(p.Offset, r.images[name]); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
	r.checkFlash(t, "after reflash")
	if err := r.l.Reset(); err != nil {
		t.Fatalf("reset after reflash: %v", err)
	}
	r.runToMain(t)
	r.checkFlash(t, "after reset")
	st, boots, last, err := r.l.BoardState()
	if err != nil || st != board.On || boots != 2 || last != "" {
		t.Fatalf("board state after reset: %v boots=%d last=%q err=%v", st, boots, last, err)
	}
}

// checkTimeouts kills the core and checks that every command needing a live
// core answers ErrTimeout, the watchdog's boot-failure signal.
func checkTimeouts(t *testing.T, r *linkRig) {
	r.bk.Board().Core().Kill()
	lay := board.LayoutFor(r.spec)
	_, readErr := r.l.ReadMem(lay.MailboxIn, 4)
	_, contErr := r.l.Continue(100)
	_, _, drainErr := r.l.DrainCov(lay.Cov, r.spec.CovEntries)
	_, runErr := r.l.WriteMemContinue(lay.MailboxIn, []byte{1}, 100)
	for name, err := range map[string]error{
		"ReadMem": readErr, "WriteMem": r.l.WriteMem(lay.MailboxIn, []byte{1}),
		"SetBreakpoint": r.l.SetBreakpoint(r.main), "ClearBreakpoint": r.l.ClearBreakpoint(r.main),
		"Continue": contErr, "DrainCov": drainErr, "WriteMemContinue": runErr, "Snapshot": r.l.Snapshot(),
	} {
		if !errors.Is(err, ocd.ErrTimeout) {
			t.Errorf("%s on a dead core: %v, want ErrTimeout", name, err)
		}
	}
}

func TestHardwareLinkReflash(t *testing.T) {
	r := bringUp(t, Hardware(), boards.STM32H745())
	if r.bk.Class() != HW {
		t.Fatalf("class %v", r.bk.Class())
	}
	reflashRoundTrip(t, r)
	checkTimeouts(t, r)
}

func TestEmulatedLinkReflash(t *testing.T) {
	r := bringUp(t, Emulated(), EmulSpecFor(boards.STM32H745()))
	if r.bk.Class() != Emul {
		t.Fatalf("class %v", r.bk.Class())
	}
	reflashRoundTrip(t, r)
	checkTimeouts(t, r)
}
