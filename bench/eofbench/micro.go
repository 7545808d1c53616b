package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"testing"

	"github.com/eof-fuzz/eof/internal/agent"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/boards"
	"github.com/eof-fuzz/eof/internal/corpus"
	"github.com/eof-fuzz/eof/internal/cov"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/ocd"
	"github.com/eof-fuzz/eof/internal/prog"
	"github.com/eof-fuzz/eof/internal/rsp"
	"github.com/eof-fuzz/eof/internal/specgen"
	"github.com/eof-fuzz/eof/internal/targets"
	"github.com/eof-fuzz/eof/internal/trace"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// microNames lists one micro-benchmark per layer entry point, in run order:
// the snapshot restore runs before the flash writes dirty the kernel image.
var microNames = []string{
	"prog.generate", "prog.mutate", "prog.pack", "link.stack", "cov.ingest_256",
	"ocd.drain_cov", "board.restore_snapshot", "ocd.flash_write_64k", "board.reflash_kernel",
	"trace.jsonl_emit", "corpus.commit_blob", "rsp.exchange_4k",
}

// microFixture is the state the micro-benchmarks share, built from the run
// seed: a generated corpus and a FreeRTOS board booted, parked at
// executor_main behind the debug server, with a golden snapshot cached.
type microFixture struct {
	target *prog.Target
	gen    *prog.Generator
	progs  []*prog.Prog
	rnd    *rand.Rand
	spec   *board.Spec
	lay    board.Layout
	brd    *board.Board
	client *ocd.Client
	kernel []byte
	kOff   int
	dir    string
}

func newMicroFixture(seed int64, dir string) (*microFixture, error) {
	info, err := targets.ByName("freertos")
	if err != nil {
		return nil, err
	}
	spec := boards.ByName(benchBoard)
	res, err := specgen.Generate(info)
	if err != nil {
		return nil, err
	}
	target, err := prog.NewTarget(res.Spec, info)
	if err != nil {
		return nil, err
	}
	f := &microFixture{
		target: target,
		gen:    prog.NewGenerator(target, seed, prog.NewChoiceTable(res.Spec)),
		rnd:    rand.New(rand.NewSource(seed)),
		spec:   spec,
		lay:    board.LayoutFor(spec),
		dir:    dir,
	}
	for i := 0; i < 64; i++ {
		f.progs = append(f.progs, f.gen.Generate(10))
	}

	images, err := info.BuildImages(spec, true)
	if err != nil {
		return nil, err
	}
	table, err := info.PartTable()
	if err != nil {
		return nil, err
	}
	syms, err := info.SymbolTable(spec)
	if err != nil {
		return nil, err
	}
	f.kernel, f.kOff = images.Kernel, table.Lookup("kernel").Offset
	if f.brd, err = board.New(spec, table, info.Builder, &vtime.Clock{}); err != nil {
		return nil, err
	}
	if err := f.brd.Provision("bootloader", images.Boot); err != nil {
		return nil, err
	}
	if err := f.brd.Provision("kernel", images.Kernel); err != nil {
		return nil, err
	}
	if err := f.brd.Boot(); err != nil {
		return nil, err
	}
	f.client = ocd.ConnectDirect(ocd.NewServer(f.brd, ocd.DefaultLatency()))
	mainAddr := syms.Addr(agent.SymExecutorMain)
	if err := f.client.SetBreakpoint(mainAddr); err != nil {
		f.close()
		return nil, err
	}
	for i := 0; ; i++ {
		st, err := f.client.Continue(500_000)
		if err != nil {
			f.close()
			return nil, err
		}
		if st.Kind == cpu.StopBreakpoint && st.PC == mainAddr {
			break
		}
		if i == 64 {
			f.close()
			return nil, fmt.Errorf("micro fixture: board never reached executor_main")
		}
		if st.Kind == cpu.StopCovFull {
			if _, _, err := f.client.DrainCov(f.lay.Cov, spec.CovEntries); err != nil {
				f.close()
				return nil, err
			}
		}
	}
	if err := f.brd.Snapshot(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *microFixture) close() {
	if c := f.brd.Core(); c != nil {
		c.Kill()
	}
}

func (f *microFixture) bench(name string) (func(b *testing.B), error) {
	switch name {
	case "prog.generate":
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkProg = f.gen.Generate(10)
			}
		}, nil
	case "prog.mutate":
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkProg = f.gen.Mutate(f.progs[i%len(f.progs)])
			}
		}, nil
	case "prog.pack":
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wp, err := f.target.Serialize(f.progs[i%len(f.progs)])
				if err != nil {
					b.Fatal(err)
				}
				if sinkBytes, err = wp.Marshal(); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	case "link.stack":
		clock := &vtime.Clock{}
		stack := link.NewSession(link.NewMetrics(clock).Wrap(nopLink{}), link.SessionConfig{Clock: clock})
		buf := make([]byte, 256)
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stack.WriteMemContinue(f.lay.MailboxIn, buf, 500_000); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	case "cov.ingest_256":
		c := cov.NewCollector()
		entries := make([]uint32, 256)
		for i := range entries {
			entries[i] = f.rnd.Uint32()
		}
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Ingest(entries)
			}
		}, nil
	case "ocd.drain_cov":
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := f.client.DrainCov(f.lay.Cov, f.spec.CovEntries); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	case "board.restore_snapshot":
		dirty := make([]byte, 64)
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dirty[0] = byte(i)
				if err := f.client.WriteMem(f.lay.MailboxIn, dirty); err != nil {
					b.Fatal(err)
				}
				if _, err := f.brd.RestoreSnapshot(); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	case "ocd.flash_write_64k":
		data := make([]byte, 64<<10)
		f.rnd.Read(data)
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f.client.FlashWrite(f.kOff, data); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	case "board.reflash_kernel":
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f.brd.FlashErase(f.kOff, len(f.kernel)); err != nil {
					b.Fatal(err)
				}
				if err := f.brd.FlashProgram(f.kOff, f.kernel); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	case "trace.jsonl_emit":
		j := trace.NewJSONL(io.Discard)
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j.Emit(trace.Event{Seq: uint64(i), Kind: trace.CovGain, Exec: i, Edges: 3})
			}
		}, nil
	case "corpus.commit_blob":
		s, err := corpus.Open(f.dir, "freertos", benchBoard)
		if err != nil {
			return nil, err
		}
		blob, err := prog.ToJSON(f.progs[0])
		if err != nil {
			return nil, err
		}
		n := 0
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh suffix makes every blob new to the content-addressed store.
				n++
				e := corpus.Entry{Prog: strconv.AppendInt(blob[:len(blob):len(blob)], int64(n), 10),
					NewEdges: 1, Edges: []uint32{uint32(n)}}
				if _, err := s.Put(e); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	case "rsp.exchange_4k":
		return f.rspExchange, nil
	}
	return nil, fmt.Errorf("no micro-benchmark %q", name)
}

// rspExchange frames 4 KiB requests over an in-memory pipe to an echoing peer.
func (f *microFixture) rspExchange(b *testing.B) {
	host, probe := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		peer := rsp.NewConn(probe)
		for {
			req, err := peer.Recv()
			if err != nil || peer.Send(req) != nil {
				probe.Close()
				return
			}
		}
	}()
	defer wg.Wait()
	defer host.Close()
	c := rsp.NewConn(host)
	req := make([]byte, 4<<10)
	for i := range req {
		req[i] = "0123456789abcdef"[f.rnd.Intn(16)]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exchange(req); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	sinkProg  *prog.Prog
	sinkBytes []byte
)

// runMicro runs every micro-benchmark for about benchtime each and returns
// its ns/op, in calibrated nanoseconds (see calibRef), and allocs/op under
// "<name>.ns" and "<name>.allocs".
func runMicro(seed int64, dir, benchtime string) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	f, err := newMicroFixture(seed, dir)
	if err != nil {
		return nil, fmt.Errorf("micro fixture: %w", err)
	}
	defer f.close()
	var calibs []float64
	for i := 0; i < 5; i++ {
		calibs = append(calibs, calibrate().Seconds())
	}
	speed := ratio(calibRef.Seconds(), median(calibs))
	out := map[string]float64{}
	for _, name := range microNames {
		fn, err := f.bench(name)
		if err != nil {
			return nil, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		if r.N == 0 {
			return nil, fmt.Errorf("micro-benchmark %s failed", name)
		}
		out[name+".ns"] = float64(r.T.Nanoseconds()) / float64(r.N) * speed
		out[name+".allocs"] = float64(r.MemAllocs) / float64(r.N)
	}
	return out, nil
}

// nopLink is a transport that answers every command at once, so link.stack
// measures only the session and metrics middleware.
type nopLink struct{}

func (nopLink) ReadMem(addr uint64, n int) ([]byte, error)                     { return nil, nil }
func (nopLink) WriteMem(addr uint64, data []byte) error                        { return nil }
func (nopLink) SetBreakpoint(addr uint64) error                                { return nil }
func (nopLink) ClearBreakpoint(addr uint64) error                              { return nil }
func (nopLink) Continue(budget int64) (cpu.Stop, error)                        { return cpu.Stop{}, nil }
func (nopLink) Reset() error                                                   { return nil }
func (nopLink) PowerCycle() error                                              { return nil }
func (nopLink) FlashErase(off, n int) error                                    { return nil }
func (nopLink) FlashWrite(off int, data []byte) error                          { return nil }
func (nopLink) DrainCov(addr uint64, maxEntries int) ([]uint32, uint32, error) { return nil, 0, nil }
func (nopLink) WriteMemContinue(addr uint64, data []byte, budget int64) (cpu.Stop, error) {
	return cpu.Stop{}, nil
}
func (nopLink) Snapshot() error                               { return nil }
func (nopLink) RestoreSnapshot() (board.RestoreStats, error)  { return board.RestoreStats{}, nil }
func (nopLink) DrainUART() ([]string, error)                  { return nil, nil }
func (nopLink) BoardState() (board.State, int, string, error) { return board.On, 0, "", nil }
func (nopLink) Close() error                                  { return nil }
