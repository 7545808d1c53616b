// Command eofcorpus inspects and verifies the crash-safe corpus stores that
// `eof -corpus` writes.
//
// Usage:
//
//	eofcorpus -dir out/corpus -os freertos -board stm32h745 info
//	eofcorpus -dir out/corpus -os freertos -board stm32h745 verify [-strict]
//
// `info` prints the store's resumable state: entries, checkpointed epoch,
// elapsed virtual time, coverage, clusters and per-shard cursors. `-edges`
// reduces the output to the checkpointed edge count alone, for scripts.
//
// `verify` re-runs the full integrity walk — every manifest line against its
// schema and its program against the line's SHA-256, the checkpoint rotation
// against its self-checksum — and reports what was tolerated. Damage is
// handled exactly as a resuming campaign would: a torn manifest tail is cut
// off and a corrupt checkpoint quarantined into <dir>/damaged/. Flags may
// come before or after the command.
// Exit status: 0 when the store is clean (or recoverably degraded), 1 with
// -strict when any damage was found, 2 when the store cannot be loaded.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/eof-fuzz/eof/internal/corpus"
)

func main() {
	var (
		dir      = flag.String("dir", "", "corpus store root (as passed to eof -corpus)")
		osName   = flag.String("os", "freertos", "target OS namespace")
		board    = flag.String("board", "stm32h745", "board namespace")
		edges    = flag.Bool("edges", false, "info: print only the checkpointed edge count")
		strict   = flag.Bool("strict", false, "verify: exit nonzero when any damage was tolerated")
		cursors  = flag.Bool("cursors", false, "info: also print per-shard resume cursors")
		clusters = flag.Bool("clusters", false, "info: also print crash cluster keys")
	)
	flag.Parse()
	// The flag package stops at the first non-flag argument, so parse the
	// flags that follow the command too ("verify -strict"). The command line
	// exits on a bad flag, so Parse returns no error to handle.
	cmd := flag.Arg(0)
	if cmd != "" {
		_ = flag.CommandLine.Parse(flag.Args()[1:])
	}
	if *dir == "" || cmd == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: eofcorpus -dir <root> [-os <os>] [-board <board>] info|verify")
		os.Exit(2)
	}

	s, err := corpus.Open(*dir, *osName, *board)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eofcorpus:", err)
		os.Exit(2)
	}
	res, err := s.LoadResume()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eofcorpus:", err)
		os.Exit(2)
	}

	switch cmd {
	case "info":
		infoMain(s, res, *edges, *cursors, *clusters)
	case "verify":
		os.Exit(verifyMain(s, res, *strict))
	default:
		fmt.Fprintf(os.Stderr, "eofcorpus: unknown command %q (want info or verify)\n", cmd)
		os.Exit(2)
	}
}

// infoMain prints the store's resumable state.
func infoMain(s *corpus.Store, res *corpus.Resume, edgesOnly, cursors, clusters bool) {
	ck := res.Ck
	if edgesOnly {
		n := 0
		if ck != nil {
			n = len(ck.Edges)
		}
		fmt.Println(n)
		return
	}
	fmt.Printf("store: %s\n", s.Dir())
	fmt.Printf("entries: %d verified corpus programs\n", s.Len())
	if ck == nil {
		fmt.Println("checkpoint: none (no barrier completed yet)")
	} else {
		fmt.Printf("checkpoint: epoch %d, %v of campaign time, %d edges, %d clusters\n",
			ck.Epoch, ck.Elapsed.Round(time.Second), len(ck.Edges), len(ck.Clusters))
		fmt.Printf("seeds: base %d, resume continues at %d\n", ck.Seed, ck.NextSeed)
		if ck.Distills > 0 {
			fmt.Printf("distillations: %d\n", ck.Distills)
		}
		if cursors {
			for _, c := range ck.Cursors {
				fmt.Printf("cursor: shard %d seed %d execs %d\n", c.Shard, c.Seed, c.Execs)
			}
		}
		if clusters {
			for _, c := range ck.Clusters {
				fmt.Printf("cluster: %s\n", c)
			}
		}
	}
	tail := s.Len() - func() int {
		if ck == nil {
			return 0
		}
		return len(ck.Corpus)
	}()
	if tail > 0 {
		fmt.Printf("manifest tail: %d entries persisted after the checkpoint (kept on resume)\n", tail)
	}
	for _, w := range s.Warnings() {
		fmt.Printf("warning: %s\n", w)
	}
}

// verifyMain reports the integrity walk's findings; Open and LoadResume
// already performed it (manifest lines and their program hashes, checkpoint
// checksums), handling damage and accumulating warnings.
func verifyMain(s *corpus.Store, res *corpus.Resume, strict bool) int {
	warns := s.Warnings()
	ckState := "none"
	if res.Ck != nil {
		ckState = fmt.Sprintf("epoch %d (checksum ok)", res.Ck.Epoch)
	}
	fmt.Printf("verified: %d entries, checkpoint %s, %d warnings\n", s.Len(), ckState, len(warns))
	for _, w := range warns {
		fmt.Printf("warning: %s\n", w)
	}
	if strict && len(warns) > 0 {
		return 1
	}
	return 0
}
