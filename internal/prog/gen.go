package prog

import (
	"math/rand"

	"github.com/eof-fuzz/eof/internal/syzlang"
)

// MaxGenCalls bounds program length after mutation growth; fresh generation
// stays shorter (the engine's MaxCalls), so long stateful sequences are
// reachable only by iteratively extending retained seeds.
const MaxGenCalls = 24

// timeoutForever is the wire sentinel for a blocking wait.
const timeoutForever = 0xFFFFFFFF

// ChoiceTable scores call adjacency. Base scores come from the resource
// dependency graph (a consumer placed after a producer is productive); the
// engine adds rewards when a pair of adjacent calls yields new coverage —
// the paper's "scoring call adjacency by resource dependencies and recent
// coverage".
type ChoiceTable struct {
	adj map[string]map[string]float64
}

// NewChoiceTable builds the initial table from the spec's resource graph.
func NewChoiceTable(spec *syzlang.Spec) *ChoiceTable {
	ct := &ChoiceTable{adj: make(map[string]map[string]float64)}
	for res := range spec.Resources {
		for _, prod := range spec.Producers(res) {
			for _, cons := range spec.Consumers(res) {
				ct.bump(prod.Name, cons.Name, 2.0)
			}
		}
	}
	return ct
}

func (ct *ChoiceTable) bump(prev, next string, amount float64) {
	m := ct.adj[prev]
	if m == nil {
		m = make(map[string]float64)
		ct.adj[prev] = m
	}
	m[next] += amount
}

// Reward credits the (prev, next) adjacency after it contributed new
// coverage, capped so a lucky pair cannot dominate generation forever.
func (ct *ChoiceTable) Reward(prev, next string, amount float64) {
	if prev == "" || next == "" {
		return
	}
	if ct.adj[prev][next] < 16 {
		ct.bump(prev, next, amount)
	}
}

// Score returns the adjacency bonus for next following prev.
func (ct *ChoiceTable) Score(prev, next string) float64 {
	return ct.adj[prev][next]
}

// Generator produces and mutates programs for one target.
type Generator struct {
	t   *Target
	rnd *rand.Rand
	ct  *ChoiceTable

	// RandomOnly disables API awareness: arguments become unconstrained
	// random scalars and buffers, resources are random numbers, and the
	// dependency graph is ignored. Used by the generation-guidance ablation
	// (the AFL-style configuration the paper contrasts against).
	RandomOnly bool
}

// NewGenerator creates a deterministic generator. ct may be shared with the
// engine so coverage rewards influence future generation.
func NewGenerator(t *Target, seed int64, ct *ChoiceTable) *Generator {
	if ct == nil {
		ct = NewChoiceTable(t.Spec)
	}
	return &Generator{t: t, rnd: rand.New(rand.NewSource(seed)), ct: ct}
}

// Generate produces a fresh program of up to maxCalls calls.
func (g *Generator) Generate(maxCalls int) *Prog {
	if maxCalls <= 0 || maxCalls > MaxGenCalls {
		maxCalls = MaxGenCalls
	}
	n := 1 + g.rnd.Intn(maxCalls)
	p := &Prog{}
	for len(p.Calls) < n {
		meta := g.chooseCall(p)
		g.appendWithDeps(p, meta, 0)
	}
	if len(p.Calls) > MaxGenCalls {
		p.Calls = p.Calls[:MaxGenCalls]
	}
	return p
}

// chooseCall picks the next call by weighted sampling over the spec.
func (g *Generator) chooseCall(p *Prog) *syzlang.Call {
	calls := g.t.Spec.Calls
	if g.RandomOnly {
		return calls[g.rnd.Intn(len(calls))]
	}
	avail := g.availableResources(p)
	last := ""
	if len(p.Calls) > 0 {
		last = p.Calls[len(p.Calls)-1].Meta.Name
	}
	weights := make([]float64, len(calls))
	total := 0.0
	for i, c := range calls {
		w := 1.0
		for _, a := range c.Args {
			if rt, ok := a.Type.(*syzlang.ResourceType); ok && avail[rt.Name] {
				w += 3.0
			}
		}
		if c.Ret != "" {
			w += 0.5
		}
		w += g.ct.Score(last, c.Name)
		weights[i] = w
		total += w
	}
	x := g.rnd.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return calls[i]
		}
	}
	return calls[len(calls)-1]
}

// availableResources maps resource kinds to availability in the program so
// far.
func (g *Generator) availableResources(p *Prog) map[string]bool {
	avail := make(map[string]bool)
	for _, c := range p.Calls {
		if c.Meta.Ret != "" {
			avail[c.Meta.Ret] = true
		}
	}
	return avail
}

// appendWithDeps appends meta, first generating producers for resource
// arguments that have none (depth-limited, syzkaller-style).
func (g *Generator) appendWithDeps(p *Prog, meta *syzlang.Call, depth int) int {
	if !g.RandomOnly && depth < 2 {
		for _, a := range meta.Args {
			rt, ok := a.Type.(*syzlang.ResourceType)
			if !ok {
				continue
			}
			if g.findProducer(p, rt.Name) >= 0 {
				continue
			}
			prods := g.t.Spec.Producers(rt.Name)
			if len(prods) == 0 {
				continue
			}
			// Usually satisfy the precondition; occasionally leave it
			// dangling to exercise error paths.
			if g.rnd.Intn(10) < 8 && len(p.Calls) < MaxGenCalls-1 {
				g.appendWithDeps(p, prods[g.rnd.Intn(len(prods))], depth+1)
			}
		}
	}
	idx := len(p.Calls)
	c := &Call{Meta: meta}
	c.Args = g.genArgs(p, meta)
	p.Calls = append(p.Calls, c)
	return idx
}

// findProducer returns the index of the most recent call producing res, -1
// if none.
func (g *Generator) findProducer(p *Prog, res string) int {
	for i := len(p.Calls) - 1; i >= 0; i-- {
		if p.Calls[i].Meta.Ret == res {
			return i
		}
	}
	return -1
}

// genArgs builds arguments for meta given the program so far. Length fields
// are filled in a second pass once their buffers exist.
func (g *Generator) genArgs(p *Prog, meta *syzlang.Call) []Arg {
	args := make([]Arg, len(meta.Args))
	for i, f := range meta.Args {
		if _, ok := f.Type.(*syzlang.LenType); ok {
			continue // second pass
		}
		args[i] = g.genArg(p, f.Type)
	}
	for i, f := range meta.Args {
		lt, ok := f.Type.(*syzlang.LenType)
		if !ok {
			continue
		}
		args[i] = &ConstArg{Val: uint64(bufferLen(meta, args, lt.Target))}
	}
	return args
}

// bufferLen finds the staged length of the named buffer argument.
func bufferLen(meta *syzlang.Call, args []Arg, target string) int {
	for i, f := range meta.Args {
		if f.Name != target {
			continue
		}
		if da, ok := args[i].(*DataArg); ok {
			n := len(da.Data)
			if _, isStr := f.Type.(*syzlang.StringType); isStr && n > 0 {
				n-- // exclude the terminator
			}
			return n
		}
	}
	return 0
}

func (g *Generator) genArg(p *Prog, t syzlang.Type) Arg {
	if g.RandomOnly {
		return g.genRandomArg(t)
	}
	switch v := t.(type) {
	case *syzlang.IntType:
		return &ConstArg{Val: g.genInt(v)}
	case *syzlang.FlagsType:
		return &ConstArg{Val: g.genFlags(v)}
	case *syzlang.ResourceType:
		if idx := g.findProducer(p, v.Name); idx >= 0 && g.rnd.Intn(10) < 9 {
			return &ResultArg{Index: idx}
		}
		// Bogus handle: zero or a small random number.
		if g.rnd.Intn(2) == 0 {
			return &ConstArg{Val: 0}
		}
		return &ConstArg{Val: uint64(g.rnd.Intn(0x2000))}
	case *syzlang.StringType:
		return &DataArg{Data: g.genString(v)}
	case *syzlang.BufferType:
		return &DataArg{Data: g.genBuffer(v)}
	case *syzlang.TimeoutType:
		return &ConstArg{Val: g.genTimeout()}
	default:
		return &ConstArg{Val: g.rnd.Uint64()}
	}
}

// genRandomArg is the AFL-style unconstrained variant.
func (g *Generator) genRandomArg(t syzlang.Type) Arg {
	switch t.(type) {
	case *syzlang.StringType, *syzlang.BufferType:
		n := g.rnd.Intn(64)
		b := make([]byte, n+1)
		for i := 0; i < n; i++ {
			b[i] = byte(g.rnd.Intn(256))
		}
		return &DataArg{Data: b}
	default:
		// Mostly small numbers (they at least parse as handles/sizes),
		// sometimes full-width garbage.
		if g.rnd.Intn(4) == 0 {
			return &ConstArg{Val: g.rnd.Uint64()}
		}
		return &ConstArg{Val: uint64(g.rnd.Intn(1 << 16))}
	}
}

func (g *Generator) genInt(t *syzlang.IntType) uint64 {
	if len(t.Values) > 0 {
		return uint64(t.Values[g.rnd.Intn(len(t.Values))])
	}
	if t.HasRange {
		span := t.Max - t.Min + 1
		switch g.rnd.Intn(12) {
		case 0:
			return uint64(t.Min)
		case 1:
			return uint64(t.Max)
		case 2:
			// Just outside the range: error-path probing.
			if g.rnd.Intn(2) == 0 && t.Min > -(1<<31) {
				return uint64(t.Min - 1)
			}
			return uint64(t.Max + 1)
		default:
			if span <= 0 {
				return uint64(t.Min)
			}
			return uint64(t.Min + g.rnd.Int63n(span))
		}
	}
	switch g.rnd.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return uint64(1)<<(uint(t.Bits)-1) - 1
	default:
		return g.rnd.Uint64() & (1<<uint(t.Bits) - 1)
	}
}

func (g *Generator) genFlags(t *syzlang.FlagsType) uint64 {
	set := g.t.Spec.Flags[t.Set]
	if set == nil || len(set.Values) == 0 {
		return 0
	}
	var v uint64
	for _, fl := range set.Values {
		if g.rnd.Intn(2) == 0 {
			v |= fl
		}
	}
	if v == 0 && g.rnd.Intn(2) == 0 {
		v = set.Values[g.rnd.Intn(len(set.Values))]
	}
	return v
}

func (g *Generator) genString(t *syzlang.StringType) []byte {
	if len(t.Values) > 0 && g.rnd.Intn(10) < 9 {
		s := t.Values[g.rnd.Intn(len(t.Values))]
		return append([]byte(s), 0)
	}
	n := 1 + g.rnd.Intn(8)
	b := make([]byte, n+1)
	for i := 0; i < n; i++ {
		b[i] = byte('a' + g.rnd.Intn(26))
	}
	return b
}

func (g *Generator) genBuffer(t *syzlang.BufferType) []byte {
	dict := g.t.Info.Dictionary
	if len(dict) > 0 && g.rnd.Intn(10) < 4 {
		b := append([]byte(nil), dict[g.rnd.Intn(len(dict))]...)
		// Light mutation keeps dictionary seeds from being static.
		if len(b) > 0 && g.rnd.Intn(3) == 0 {
			b[g.rnd.Intn(len(b))] ^= byte(1 << uint(g.rnd.Intn(8)))
		}
		return b
	}
	minLen, maxLen := t.MinLen, t.MaxLen
	if maxLen == 0 {
		maxLen = 64
	}
	if maxLen > 512 {
		maxLen = 512
	}
	n := minLen
	if maxLen > minLen {
		n += g.rnd.Intn(maxLen - minLen + 1)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(g.rnd.Intn(256))
	}
	return b
}

func (g *Generator) genTimeout() uint64 {
	switch g.rnd.Intn(20) {
	case 0:
		return uint64(50 + g.rnd.Intn(150))
	case 1:
		return timeoutForever
	case 2, 3, 4, 5:
		return 0
	default:
		return uint64(1 + g.rnd.Intn(20))
	}
}
