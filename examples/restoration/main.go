// Restoration demonstrates Algorithm 1's state-restoration path at the
// debug-port level, using the framework's internal packages directly
// (advanced usage): boot FreeRTOS, trigger the flash-corrupting
// load_partitions bug over the debug link, watch the reboot fail, then
// reflash every partition through the probe and bring the board back.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"github.com/eof-fuzz/eof/internal/agent"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/boards"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/ocd"
	"github.com/eof-fuzz/eof/internal/targets"
	"github.com/eof-fuzz/eof/internal/vtime"
	"github.com/eof-fuzz/eof/internal/wire"
)

func main() {
	info, err := targets.ByName("freertos")
	check(err)
	spec := boards.STM32H745()
	images, err := info.BuildImages(spec, true)
	check(err)
	table, err := info.PartTable()
	check(err)

	clock := &vtime.Clock{}
	brd, err := board.New(spec, table, info.Builder, clock)
	check(err)
	check(brd.Provision("bootloader", images.Boot))
	check(brd.Provision("kernel", images.Kernel))
	check(brd.Boot())
	fmt.Println("1. board booted, attaching debug probe")

	client := ocd.Connect(ocd.NewServer(brd, ocd.DefaultLatency()))
	defer client.Close()

	syms := images.Syms
	mainAddr := syms.Addr(agent.SymExecutorMain)
	check(client.SetBreakpoint(mainAddr))
	check(client.SetBreakpoint(syms.Addr("panic_handler")))

	st, err := client.Continue(500_000)
	check(err)
	fmt.Printf("2. target parked at executor_main (%#x)\n", st.PC)

	// load_partitions(index=3, PART_REMAP): the remap path writes its mount
	// record into the kernel image in flash.
	prog := &wire.Prog{Calls: []wire.Call{{
		API: uint16(info.APIIndex("load_partitions")),
		Args: []wire.Arg{
			{Kind: wire.ArgImm, Val: 3},
			{Kind: wire.ArgImm, Val: 8},
		},
	}}}
	raw, err := prog.Marshal()
	check(err)
	buf := make([]byte, 4+len(raw))
	binary.LittleEndian.PutUint32(buf, uint32(len(raw)))
	copy(buf[4:], raw)
	lay := board.LayoutFor(spec)
	check(client.WriteMem(lay.MailboxIn, buf))

	st, err = client.Continue(500_000)
	check(err)
	if st.Kind != cpu.StopBreakpoint || st.PC != syms.Addr("panic_handler") {
		log.Fatalf("expected the exception monitor's breakpoint, got %+v", st)
	}
	fmt.Println("3. exception monitor fired at panic_handler — the kernel died mid-mount")

	if err := client.Reset(); err != nil {
		fmt.Println("4. reboot FAILED (image corrupt):", err)
	} else {
		log.Fatal("reboot unexpectedly succeeded on a corrupt image")
	}

	fmt.Println("5. reflashing every partition over the debug port...")
	for _, part := range []struct {
		name string
		data []byte
	}{{"bootloader", images.Boot}, {"kernel", images.Kernel}} {
		p := table.Lookup(part.name)
		check(client.FlashErase(p.Offset, p.Size))
		check(client.FlashWrite(p.Offset, part.data))
		fmt.Printf("   %-10s %7d bytes at %#x\n", part.name, len(part.data), p.Offset)
	}
	check(client.Reset())
	check(client.SetBreakpoint(mainAddr))
	st, err = client.Continue(500_000)
	check(err)
	fmt.Printf("6. board restored: parked at executor_main again (%#x), boot count %d\n",
		st.PC, brd.BootCount())
	fmt.Printf("   total virtual time for detection + restoration: %v\n", clock.Now())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
