package rtos

import (
	"github.com/eof-fuzz/eof/internal/sym"
)

// Fn is one instrumented kernel function: a registered symbol whose basic
// blocks step the CPU (advancing virtual time, feeding coverage, honouring
// breakpoints) as the Go implementation executes. This is the simulation's
// analogue of the compiler's SanCov instrumentation pass.
type Fn struct {
	k  *Kernel
	SF *sym.Func
}

// frame is one backtrace entry: the symbol and the pseudo source line its
// last executed block maps to. Frames compare by symbol pointer, which is
// symbol identity: a table rejects duplicate names, and two Fns for one
// symbol (a personality's second memory pool) share its *sym.Func.
type frame struct {
	sf   *sym.Func
	line int
}

// Fn registers a function with nblocks basic blocks in the image's symbol
// table. Call once per function at kernel construction.
func (k *Kernel) Fn(name, file string, line, nblocks int) *Fn {
	return &Fn{k: k, SF: k.Env.Syms.AddFunc(name, file, line, nblocks)}
}

// Addr returns the function's entry address (block 0), where monitors plant
// breakpoints.
func (f *Fn) Addr() uint64 { return f.SF.Base }

// Name returns the symbol name.
func (f *Fn) Name() string { return f.SF.Name }

// Enter pushes a backtrace frame and executes the entry block. It returns f
// so call sites read `defer fn.Enter().Exit()`.
func (f *Fn) Enter() *Fn {
	k := f.k
	if k.core == nil {
		return f
	}
	k.frames = append(k.frames, frame{sf: f.SF, line: f.SF.Line})
	k.core.Step(f.SF.Base)
	return f
}

// Exit pops the backtrace frame. Use via defer so faults raised mid-function
// still unwind the Go stack consistently (the fault snapshot is taken before
// unwinding).
func (f *Fn) Exit() {
	k := f.k
	if n := len(k.frames); n > 0 && k.frames[n-1].sf == f.SF {
		k.frames = k.frames[:n-1]
	}
}

// B executes basic block i of the function and updates the frame's line so
// backtraces point at the matching pseudo source line.
func (f *Fn) B(i int) {
	k := f.k
	if k.core == nil {
		return
	}
	sf := f.SF
	if uint(i) >= uint(sf.NBlocks) {
		sf.Block(i) // panics with the range error
	}
	if n := len(k.frames); n > 0 && k.frames[n-1].sf == sf {
		k.frames[n-1].line = sf.Line + i
	}
	k.core.Step(sf.Base + uint64(i*sym.BlockStride))
}

// Bif executes block t when cond holds, otherwise block e; a branch helper
// that keeps handler bodies readable while still emitting distinct edges per
// outcome.
func (f *Fn) Bif(cond bool, t, e int) bool {
	if cond {
		f.B(t)
	} else {
		f.B(e)
	}
	return cond
}
