package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// foldProfiles merges CPU profiles with `go tool pprof -traces` and folds
// every sample into one host_share module: the innermost frame on its stack
// that names one. Standard-library and runtime frames other than the
// allocator and collector are skipped, so a module's share is its self time
// plus the library code it calls. It returns each module's share of all
// samples (none when runs were too short to be sampled).
func foldProfiles(files []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces", "-unit=ms"}, files...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	shares := map[string]float64{}
	var total float64
	for _, block := range strings.Split(string(out), "-----------+")[1:] {
		// A block is "-----...\n  <value>ms   leaf\n           caller\n ..."
		lines := strings.Split(block, "\n")[1:]
		if len(lines) == 0 {
			continue
		}
		f := strings.Fields(lines[0])
		if len(f) < 2 || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: bad sample value %q", f[0])
		}
		lines[0] = strings.Join(f[1:], " ")
		module := "other"
		for _, line := range lines {
			if m := moduleOf(strings.TrimSuffix(strings.TrimSpace(line), " (inline)")); m != "" {
				module = m
				break
			}
		}
		shares[module] += ms
		total += ms
	}
	for m := range shares {
		shares[m] /= total
	}
	return shares, nil
}

const modulePrefix = "github.com/eof-fuzz/eof/internal/"

// moduleOf names the host_share module a stack frame belongs to, or "" for
// a library frame the walk should skip. Internal packages name themselves
// (the OS personalities under internal/os count as rtos; packages outside
// the list as other), as do the hex codec and the allocator and collector;
// the harness's own frames count as other.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "encoding/hex."):
		return "encoding_hex"
	case strings.HasPrefix(fn, "runtime."):
		if isGCAlloc(strings.TrimPrefix(fn, "runtime.")) {
			return "gc_alloc"
		}
		return ""
	case strings.HasPrefix(fn, "main."):
		return "other"
	case !strings.HasPrefix(fn, modulePrefix):
		return ""
	}
	pkg := strings.TrimPrefix(fn, modulePrefix)
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "os" {
		return "rtos"
	}
	for _, m := range hostModules {
		if m == pkg {
			return m
		}
	}
	return "other"
}

// gcAllocMarks name the runtime's allocation and collection functions.
var gcAllocMarks = []string{
	"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap",
	"rawstring", "rawbyteslice", "concatstring", "slicebytetostring",
	"gc", "GC", "scan", "mark", "Mark", "sweep", "greyobject", "findObject", "wbBuf",
	"bulkBarrier", "typePointers", "heapBits", "mspan", "mheap", "mcache", "mcentral",
	"scavenge", "memclrNoHeapPointers", "nextFreeFast", "publicationBarrier",
}

func isGCAlloc(fn string) bool {
	for _, m := range gcAllocMarks {
		if strings.Contains(fn, m) {
			return true
		}
	}
	return false
}
