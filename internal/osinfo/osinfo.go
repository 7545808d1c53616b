// Package osinfo defines the host-visible description of a target embedded
// OS build: how to construct its firmware, its partition layout, the symbols
// its monitors need, the C headers its API specifications are extracted
// from, and the parameters of its image-size model. This is the information
// a real deployment gets from the target's source tree, build configuration
// and ELF file.
package osinfo

import (
	"fmt"
	"strings"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/flash"
	"github.com/eof-fuzz/eof/internal/sym"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// Header is one C header (or doc file) fed to the specification generator.
type Header struct {
	Path string
	Text string
}

// Info describes one supported embedded OS.
type Info struct {
	// Name is the canonical lower-case identifier ("freertos").
	Name string
	// Display is the human name used in reports ("FreeRTOS").
	Display string
	// Version matches the paper's evaluated revision.
	Version string

	// PartTableText is the build-configuration partition table (the
	// KConfig-supplied file of Algorithm 1).
	PartTableText string

	// Builder constructs the OS+agent firmware on a booted environment.
	Builder board.Builder

	// ExceptionSyms are the OS-specific exception-entry symbols where the
	// exception monitor plants breakpoints (panic_handler, ...).
	ExceptionSyms []string

	// Headers feed the specification generator.
	Headers []Header

	// APINames is the agent dispatch table order; wire API indices resolve
	// against it.
	APINames []string

	// Image-size model: the image's code section is
	// BaseCodeBytes + blocks*(BytesPerBlock [+ InstrBytesPerBlock]).
	BaseCodeBytes      int
	BytesPerBlock      int
	InstrBytesPerBlock int

	// BuildID seeds the deterministic image contents.
	BuildID uint64

	// Dictionary holds example payloads lifted from the target's unit tests
	// and documentation (the paper prompts the LLM with unit-test examples;
	// these tokens seed buffer-argument generation the same way).
	Dictionary []string
}

// APIIndex returns the dispatch index for an API name, or -1.
func (i *Info) APIIndex(name string) int {
	for idx, n := range i.APINames {
		if n == name {
			return idx
		}
	}
	return -1
}

// PartTable parses the build configuration's partition table.
func (i *Info) PartTable() (*flash.Table, error) {
	return flash.ParseTable(i.PartTableText)
}

// Images holds the serialized flash images for one build variant.
type Images struct {
	Boot        []byte
	Kernel      []byte
	KernelImage *flash.Image
	CodeBlocks  int
	// Syms is the dry-run symbol table CodeBlocks was counted from, the one
	// SymbolTable returns for the same board.
	Syms *sym.Table
}

// BuildImages produces the flash images for the OS on the given board. The
// code size comes from a dry-run boot that counts the build's basic blocks —
// the moral equivalent of reading section sizes out of the linked ELF — so
// instrumented and plain images differ in size exactly as §5.5.1 measures.
func (i *Info) BuildImages(spec *board.Spec, instrumented bool) (*Images, error) {
	syms, err := i.SymbolTable(spec)
	if err != nil {
		return nil, err
	}
	blocks := syms.TotalBlocks()
	per := i.BytesPerBlock
	if instrumented {
		per += i.InstrBytesPerBlock
	}
	codeSize := i.BaseCodeBytes + blocks*per
	kimg := &flash.Image{
		Magic:        flash.MagicKernel,
		OS:           i.Name,
		BuildID:      i.BuildID,
		Instrumented: instrumented,
		CodeSize:     uint32(codeSize),
		Entry:        spec.FlashBase + 0x1000,
	}
	bimg := &flash.Image{
		Magic:    flash.MagicBoot,
		OS:       i.Name + "-boot",
		BuildID:  i.BuildID ^ 0xB007,
		CodeSize: 16 * 1024,
		Entry:    spec.FlashBase,
	}
	return &Images{
		Boot:        bimg.Serialize(),
		Kernel:      kimg.Serialize(),
		KernelImage: kimg,
		CodeBlocks:  blocks,
		Syms:        syms,
	}, nil
}

// SymbolTable returns the build's symbol table for the given board, obtained
// from a dry-run construction — the host-side equivalent of reading symbols
// out of the linked ELF. Monitors use it to plant breakpoints by name.
func (i *Info) SymbolTable(spec *board.Spec) (*sym.Table, error) {
	table, err := i.PartTable()
	if err != nil {
		return nil, err
	}
	b, err := board.New(spec, table, i.Builder, new(vtime.Clock))
	if err != nil {
		return nil, err
	}
	kimg := &flash.Image{Magic: flash.MagicKernel, OS: i.Name, BuildID: i.BuildID, CodeSize: 64}
	bimg := &flash.Image{Magic: flash.MagicBoot, OS: i.Name, BuildID: i.BuildID, CodeSize: 64}
	if err := b.Provision("bootloader", bimg.Serialize()); err != nil {
		return nil, err
	}
	if err := b.Provision("kernel", kimg.Serialize()); err != nil {
		return nil, err
	}
	if err := b.Boot(); err != nil {
		return nil, fmt.Errorf("osinfo: dry-run boot of %s: %w", i.Name, err)
	}
	syms := b.Env().Syms
	b.Core().Kill()
	return syms, nil
}

// WithCovModules clones the build description with a builder that confines
// coverage instrumentation to functions whose source file starts with one of
// the given prefixes — the compile-time "instrument only these modules"
// restriction of the paper's application-level evaluation (Table 4).
func WithCovModules(info *Info, modules []string) *Info {
	clone := *info
	orig := info.Builder
	clone.Builder = func(env *board.Env) (board.Firmware, error) {
		fw, err := orig(env)
		if err == nil && env.Cov != nil {
			syms := env.Syms
			env.Cov.SetFilter(func(pc uint64) bool {
				f := syms.Find(pc)
				if f == nil {
					return false
				}
				for _, m := range modules {
					if strings.HasPrefix(f.File, m) {
						return true
					}
				}
				return false
			})
		}
		return fw, err
	}
	return &clone
}
