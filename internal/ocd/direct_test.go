package ocd

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/boards"
	"github.com/eof-fuzz/eof/internal/targets"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// sameErr reports whether two link errors are indistinguishable to a caller:
// both nil, both ErrTimeout, or RemoteErrors with equal Code and Msg.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	if errors.Is(a, ErrTimeout) || errors.Is(b, ErrTimeout) {
		return errors.Is(a, ErrTimeout) && errors.Is(b, ErrTimeout)
	}
	var ra, rb *RemoteError
	if errors.As(a, &ra) && errors.As(b, &rb) {
		return ra.Code == rb.Code && ra.Msg == rb.Msg
	}
	return a.Error() == b.Error()
}

// TestDirectFlashWriteMatchesWire runs the same FlashErase/FlashWrite
// sequences on twin FreeRTOS boards, one behind the framed transport
// (Connect) and one behind the in-process client (ConnectDirect), whose
// FlashWrite skips the vFlashWrite grammar. Both must end with the same flash
// bytes, erase counts, dirty sectors, virtual clock and errors. The latency
// model charges about 1µs per request byte, so a charge one byte off fails.
func TestDirectFlashWriteMatchesWire(t *testing.T) {
	info, err := targets.ByName("freertos")
	if err != nil {
		t.Fatal(err)
	}
	spec := boards.ByName(boards.NameSTM32H745)
	images, err := info.BuildImages(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	table, err := info.PartTable()
	if err != nil {
		t.Fatal(err)
	}
	kOff, sec := table.Lookup("kernel").Offset, spec.SectorSize
	if len(images.Kernel) <= 2*flashChunk {
		t.Fatalf("kernel image of %d bytes does not span several chunks", len(images.Kernel))
	}
	junk := make([]byte, 40_000)
	rand.New(rand.NewSource(1)).Read(junk)

	cases := []struct {
		name    string
		degrade board.DegradeConfig
		run     func(b *board.Board, c *Client) []error
		check   func(t *testing.T, errs []error)
	}{{
		name: "multi-chunk kernel image",
		run: func(_ *board.Board, c *Client) []error {
			return []error{c.FlashErase(kOff, len(images.Kernel)), c.FlashWrite(kOff, images.Kernel)}
		},
		check: func(t *testing.T, errs []error) {
			if errs[0] != nil || errs[1] != nil {
				t.Fatalf("reflash: %v", errs)
			}
		},
	}, {
		name: "empty write",
		run: func(_ *board.Board, c *Client) []error {
			return []error{c.FlashWrite(kOff, nil), c.FlashWrite(kOff+1, []byte{})}
		},
		check: func(t *testing.T, errs []error) {
			if errs[0] != nil || errs[1] != nil {
				t.Fatalf("empty writes: %v", errs)
			}
		},
	}, {
		name: "negative offset",
		run: func(_ *board.Board, c *Client) []error {
			return []error{c.FlashWrite(-1, junk[:3]), c.FlashWrite(-kOff, junk)}
		},
		check: func(t *testing.T, errs []error) {
			for _, err := range errs {
				var re *RemoteError
				if !errors.As(err, &re) || re.Code != CodeBadArgs || re.Msg != "" {
					t.Fatalf("negative offset: %v, want a bare badargs error", err)
				}
			}
		},
	}, {
		// Sector kOff/sec+6 reaches its wear limit after two more erases,
		// so the first write tears in its second chunk; the retry lands.
		name:    "write across a worn sector",
		degrade: board.DegradeConfig{Seed: 1, WearLimit: 3},
		run: func(_ *board.Board, c *Client) []error {
			worn := kOff + 6*sec
			return []error{
				c.FlashErase(worn, sec), c.FlashErase(worn, sec),
				c.FlashWrite(kOff+100, junk), c.FlashWrite(kOff+100, junk),
			}
		},
		check: func(t *testing.T, errs []error) {
			var re *RemoteError
			if !errors.As(errs[2], &re) || re.Code != CodeFlash || !strings.Contains(re.Msg, "worn") {
				t.Fatalf("write across worn sector: %v", errs[2])
			}
			if errs[0] != nil || errs[1] != nil || errs[3] != nil {
				t.Fatalf("erases and retry: %v", errs)
			}
		},
	}, {
		name:    "dead board",
		degrade: board.DegradeConfig{Seed: 1, DieAfterBoots: 1},
		run: func(b *board.Board, c *Client) []error {
			if err := b.Boot(); !errors.Is(err, board.ErrDead) {
				return []error{err}
			}
			_, rerr := c.ReadMem(spec.RAMBase, 4)
			return []error{c.FlashErase(kOff, sec), c.FlashWrite(kOff, junk), rerr}
		},
		check: func(t *testing.T, errs []error) {
			if len(errs) != 3 {
				t.Fatalf("board did not die: %v", errs)
			}
			for _, err := range errs[:2] {
				var re *RemoteError
				if !errors.As(err, &re) || re.Code != CodeDead || !strings.Contains(re.Msg, "hardware death") {
					t.Fatalf("flash on a dead board: %v", err)
				}
			}
			if !errors.Is(errs[2], ErrTimeout) {
				t.Fatalf("read on a dead board: %v", errs[2])
			}
		},
	}}

	lat := Latency{PerCommand: time.Millisecond, BytesPerSec: 1 << 20}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var brds [2]*board.Board
			var errs [2][]error
			for i, connect := range []func(*Server) *Client{Connect, ConnectDirect} {
				b, err := board.New(spec, table, info.Builder, &vtime.Clock{})
				if err != nil {
					t.Fatal(err)
				}
				b.SetDegrade(tc.degrade)
				if err := b.Provision("bootloader", images.Boot); err != nil {
					t.Fatal(err)
				}
				if err := b.Provision("kernel", images.Kernel); err != nil {
					t.Fatal(err)
				}
				b.Flash().ClearDirty()
				c := connect(NewServer(b, lat))
				errs[i] = tc.run(b, c)
				brds[i] = b
				// Detaching the framed client charges its "D"; measure first.
				defer c.Close()
			}
			tc.check(t, errs[1])
			piped, direct := brds[0], brds[1]
			if len(errs[0]) != len(errs[1]) {
				t.Fatalf("error counts differ: wire %v, direct %v", errs[0], errs[1])
			}
			for i := range errs[0] {
				if !sameErr(errs[0][i], errs[1][i]) {
					t.Fatalf("command %d: wire error %v, direct error %v", i, errs[0][i], errs[1][i])
				}
			}
			if pw, dw := piped.Clock.Now(), direct.Clock.Now(); pw != dw {
				t.Fatalf("virtual clock: wire %v, direct %v", pw, dw)
			}
			if !bytes.Equal(piped.Flash().Bytes(), direct.Flash().Bytes()) {
				t.Fatal("flash contents differ")
			}
			for s := 0; s < piped.Flash().Sectors(); s++ {
				if pc, dc := piped.Flash().EraseCount(s), direct.Flash().EraseCount(s); pc != dc {
					t.Fatalf("sector %d erase count: wire %d, direct %d", s, pc, dc)
				}
			}
			if ps, ds := piped.Flash().DirtySectors(), direct.Flash().DirtySectors(); !slices.Equal(ps, ds) {
				t.Fatalf("dirty sectors: wire %v, direct %v", ps, ds)
			}
		})
	}
}
