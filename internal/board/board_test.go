package board

import (
	"testing"

	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/flash"
	"github.com/eof-fuzz/eof/internal/vtime"
)

func testSpec() *Spec {
	return &Spec{
		Name: "testboard", Arch: "arm", HZ: 100_000_000,
		CyclesPerBlock: 4, MaxBreakpoints: 6,
		FlashBase: 0x0800_0000, FlashSize: 1 << 20, SectorSize: 4096,
		RAMBase: 0x2000_0000, RAMSize: 256 * 1024, CovEntries: 128,
		Peripherals: map[string]bool{"serial": true},
	}
}

type spinFW struct{ env *Env }

func (f *spinFW) Main() {
	for {
		f.env.Core.Step(f.env.Spec.FlashBase + 0x2000)
	}
}

func provisioned(t *testing.T, instrumented bool) *Board {
	t.Helper()
	table, err := flash.ParseTable("bootloader, app, 0x0, 0x8000\nkernel, app, 0x8000, 0x40000\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testSpec(), table, func(env *Env) (Firmware, error) {
		return &spinFW{env: env}, nil
	}, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	boot := &flash.Image{Magic: flash.MagicBoot, OS: "x", BuildID: 1, CodeSize: 64}
	kern := &flash.Image{Magic: flash.MagicKernel, OS: "x", BuildID: 1, Instrumented: instrumented, CodeSize: 256}
	if err := b.Provision("bootloader", boot.Serialize()); err != nil {
		t.Fatal(err)
	}
	if err := b.Provision("kernel", kern.Serialize()); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBootLifecycle(t *testing.T) {
	b := provisioned(t, true)
	if b.State() != Off {
		t.Fatal("new board not off")
	}
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	if b.State() != On || b.BootCount() != 1 {
		t.Fatalf("state %v boots %d", b.State(), b.BootCount())
	}
	env := b.Env()
	if env.Cov == nil || !env.Instrumented {
		t.Fatal("instrumented image without cov runtime")
	}
	if env.ScratchBase <= env.MailboxOut {
		t.Fatal("layout ordering broken")
	}
	st := b.Core().Continue(100)
	if st.Kind != cpu.StopBudget {
		t.Fatalf("stop: %+v", st)
	}
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	if b.BootCount() != 2 {
		t.Fatalf("boots after reset: %d", b.BootCount())
	}
	b.Core().Kill()
}

func TestUninstrumentedBoot(t *testing.T) {
	b := provisioned(t, false)
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	if b.Env().Cov != nil || b.Env().Instrumented {
		t.Fatal("plain image got a cov runtime")
	}
	b.Core().Kill()
}

func TestBootFailsOnMissingImage(t *testing.T) {
	table, _ := flash.ParseTable("bootloader, app, 0x0, 0x8000\nkernel, app, 0x8000, 0x40000\n")
	b, err := New(testSpec(), table, func(env *Env) (Firmware, error) {
		return &spinFW{env: env}, nil
	}, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Boot(); err == nil {
		t.Fatal("boot with erased flash succeeded")
	}
	if b.State() != Bricked {
		t.Fatalf("state: %v", b.State())
	}
	if b.Core() != nil || b.Mem() != nil {
		t.Fatal("bricked board exposes live core")
	}
}

func TestCorruptionBricksUntilReflash(t *testing.T) {
	b := provisioned(t, true)
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	kern := (&flash.Image{Magic: flash.MagicKernel, OS: "x", BuildID: 1, Instrumented: true, CodeSize: 256}).Serialize()
	b.Flash().Corrupt(0x8000+40, 8, 0x0F)
	if err := b.Reset(); err == nil {
		t.Fatal("reset on corrupt flash succeeded")
	}
	if b.State() != Bricked {
		t.Fatalf("state: %v", b.State())
	}
	// Debug-port reflash path.
	if err := b.FlashErase(0x8000, len(kern)); err != nil {
		t.Fatal(err)
	}
	if err := b.FlashProgram(0x8000, kern); err != nil {
		t.Fatal(err)
	}
	if err := b.Boot(); err != nil {
		t.Fatalf("boot after reflash: %v", err)
	}
	b.Core().Kill()
}

// TestResetRevalidatesRewrittenKernel checks that a reset after a flash
// write boots the new image rather than a cached validation of the old one.
func TestResetRevalidatesRewrittenKernel(t *testing.T) {
	b := provisioned(t, true)
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	kern := &flash.Image{Magic: flash.MagicKernel, OS: "x", BuildID: 7, Instrumented: true, CodeSize: 256}
	if err := b.Provision("kernel", kern.Serialize()); err != nil {
		t.Fatal(err)
	}
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := b.Env().BuildID; got != 7 {
		t.Fatalf("reset after reprovisioning booted build %d, want 7", got)
	}
	b.Core().Kill()
}

func TestFlashTimingCharged(t *testing.T) {
	b := provisioned(t, false)
	before := b.Clock.Now()
	if err := b.FlashErase(0, 64*1024); err != nil {
		t.Fatal(err)
	}
	if err := b.FlashProgram(0, make([]byte, 64*1024)); err != nil {
		t.Fatal(err)
	}
	if b.Clock.Now() == before {
		t.Fatal("flash operations consumed no virtual time")
	}
}

func TestProvisionValidation(t *testing.T) {
	b := provisioned(t, false)
	if err := b.Provision("nope", []byte{1}); err == nil {
		t.Fatal("unknown partition accepted")
	}
	if err := b.Provision("bootloader", make([]byte, 0x9000)); err == nil {
		t.Fatal("oversized image accepted")
	}
}

func TestLayoutForMatchesBoot(t *testing.T) {
	b := provisioned(t, true)
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	lay := LayoutFor(b.Spec)
	env := b.Env()
	if lay.FSB != env.FSBAddr || lay.Cov != env.CovAddr ||
		lay.MailboxIn != env.MailboxIn || lay.MailboxOut != env.MailboxOut ||
		lay.Scratch != env.ScratchBase {
		t.Fatalf("layout mismatch: %+v vs env %+v", lay, env)
	}
	b.Core().Kill()
}

func TestBuilderFailureBricks(t *testing.T) {
	table, _ := flash.ParseTable("bootloader, app, 0x0, 0x8000\nkernel, app, 0x8000, 0x40000\n")
	b, err := New(testSpec(), table, func(env *Env) (Firmware, error) {
		return nil, errBoom
	}, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	boot := &flash.Image{Magic: flash.MagicBoot, OS: "x", BuildID: 1, CodeSize: 64}
	kern := &flash.Image{Magic: flash.MagicKernel, OS: "x", BuildID: 1, CodeSize: 64}
	b.Provision("bootloader", boot.Serialize())
	b.Provision("kernel", kern.Serialize())
	if err := b.Boot(); err == nil {
		t.Fatal("boot with failing builder succeeded")
	}
	if b.State() != Bricked {
		t.Fatalf("state: %v", b.State())
	}
}

var errBoom = &BootError{Partition: "x", Err: nil}
