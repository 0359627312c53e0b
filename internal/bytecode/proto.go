package bytecode

import (
	"fmt"
	"strings"
	"sync"

	"ricjs/internal/ic"
	"ricjs/internal/source"
	"ricjs/internal/symtab"
)

// ConstKind discriminates constant-pool entries.
type ConstKind uint8

const (
	// ConstNumber is a numeric constant.
	ConstNumber ConstKind = iota
	// ConstString is a string constant.
	ConstString
)

// Const is a constant-pool entry.
type Const struct {
	Kind ConstKind
	Num  float64
	Str  string
}

// String renders the constant for disassembly.
func (c Const) String() string {
	if c.Kind == ConstString {
		return fmt.Sprintf("%q", c.Str)
	}
	return fmt.Sprintf("%g", c.Num)
}

// SiteInfo describes one feedback slot: the object access site it serves.
// The VM turns the site table into the function's ICVector.
type SiteInfo struct {
	Site source.Site
	Kind ic.AccessKind
	Name string
	// NameID is Name pre-interned at compile time; feedback slots carry it
	// so IC dispatch compares symbol IDs, never strings.
	NameID symtab.ID
}

// FuncProto is a compiled function: the shared, context-independent part
// of a function (V8's SharedFunctionInfo + bytecode). FuncProtos are what
// the code cache persists between runs.
type FuncProto struct {
	// Name is the function name, "" for anonymous functions,
	// "<main>" for the script toplevel.
	Name string
	// Script is the owning script name.
	Script string
	// DeclPos is the function's declaration position; constructor initial
	// hidden classes are keyed to it (paper Figure 2's Constructor HC).
	DeclPos source.Pos
	// CallLabel is the pre-rendered "name (script)" stack-trace label, so
	// pushing a call frame allocates nothing. The program's layout build
	// renders it, once, before any VM runs the function.
	CallLabel string

	NumParams int
	// NumLocals counts parameter, variable and temporary slots.
	NumLocals int
	// NumCtxSlots counts variables captured by nested closures; when
	// non-zero the function allocates a Context frame on entry.
	NumCtxSlots int

	Code   []uint32
	Consts []Const
	Names  []string
	// NameIDs holds the interned symbol for each Names entry, in lockstep:
	// the interpreter indexes it with the same operand it would use for
	// Names, so named access never hashes a string at run time.
	NameIDs []symtab.ID
	Protos  []*FuncProto
	Sites   []SiteInfo
}

// FunctionName implements a human-readable identity for diagnostics.
func (p *FuncProto) FunctionName() string {
	if p.Name == "" {
		return "<anonymous>"
	}
	return p.Name
}

// Disassemble renders the function's bytecode for tests and debugging.
func (p *FuncProto) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "function %s params=%d locals=%d ctx=%d\n",
		p.FunctionName(), p.NumParams, p.NumLocals, p.NumCtxSlots)
	for pc := 0; pc < len(p.Code); {
		op := Op(p.Code[pc])
		fmt.Fprintf(&b, "  %4d  %s", pc, op)
		n := op.OperandCount()
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&b, " %d", p.Code[pc+i])
		}
		switch op {
		case OpLoadConst:
			fmt.Fprintf(&b, "  ; %s", p.Consts[p.Code[pc+1]])
		case OpLoadNamed, OpStoreNamed, OpLoadGlobal, OpStoreGlobal:
			fmt.Fprintf(&b, "  ; %s @%s", p.Names[p.Code[pc+1]], p.Sites[p.Code[pc+2]].Site)
		case OpLoadKeyed, OpStoreKeyed:
			fmt.Fprintf(&b, "  ; @%s", p.Sites[p.Code[pc+1]].Site)
		case OpDeclGlobal, OpDeleteNamed:
			fmt.Fprintf(&b, "  ; %s", p.Names[p.Code[pc+1]])
		case OpMakeClosure:
			fmt.Fprintf(&b, "  ; %s", p.Protos[p.Code[pc+1]].FunctionName())
		}
		b.WriteByte('\n')
		pc += 1 + n
	}
	return b.String()
}

// WalkProtos visits p and every nested function proto depth-first.
func (p *FuncProto) WalkProtos(fn func(*FuncProto)) {
	fn(p)
	for _, nested := range p.Protos {
		nested.WalkProtos(fn)
	}
}

// Program is a compiled script: its toplevel function and metadata.
// Programs are shared read-only across VMs (codecache); the layout is
// the one piece derived lazily, once.
type Program struct {
	Script   string
	Toplevel *FuncProto

	layoutOnce sync.Once
	layout     *Layout
}

// Layout returns the program's site and function index, building it on
// first use. Every caller, on any goroutine, gets the same *Layout.
func (p *Program) Layout() *Layout {
	p.layoutOnce.Do(func() { p.layout = buildLayout(p.Toplevel) })
	return p.layout
}

// SiteRef locates a feedback site in a Layout: the slot at Index of the
// function Layout.Protos[Proto].
type SiteRef struct {
	Proto int32
	Index int32
}

// Layout is a compiled program's immutable site and function index. A VM
// registering the program carves one slot slab into per-function
// ICVectors by SlotBase and resolves sites through it; record validation
// checks site references against it. It is built once per Program and
// never written afterwards, so any number of VMs and validations share
// one copy.
type Layout struct {
	// Protos lists the program's functions in WalkProtos order.
	Protos []*FuncProto
	// SlotBase[i] is the offset of Protos[i]'s first feedback slot in a
	// program-wide slot slab; the final entry is the total site count.
	SlotBase []int32
	// sites maps every feedback site to its position; when two slots
	// share a site, the later one in walk order wins.
	sites map[source.Site]SiteRef
	// decls maps function declaration sites to their protos; nil when no
	// function has a declaration position.
	decls map[source.Site]*FuncProto
}

// buildLayout indexes the proto tree rooted at top. A first pass counts
// functions, sites and declarations so every slice and map is allocated
// once at its final size. It also renders call labels and backfills the
// interned names of protos built outside the compiler, which the VM
// requires; doing that here, under the program's sync.Once, keeps VMs
// sharing a program from writing proto fields.
func buildLayout(top *FuncProto) *Layout {
	if top == nil {
		return &Layout{SlotBase: []int32{0}}
	}
	var nProtos, nSites, nDecls int
	top.WalkProtos(func(p *FuncProto) {
		nProtos++
		nSites += len(p.Sites)
		if !p.DeclPos.IsZero() {
			nDecls++
		}
	})
	l := &Layout{
		Protos:   make([]*FuncProto, 0, nProtos),
		SlotBase: make([]int32, 0, nProtos+1),
		sites:    make(map[source.Site]SiteRef, nSites),
	}
	if nDecls > 0 {
		l.decls = make(map[source.Site]*FuncProto, nDecls)
	}
	base := int32(0)
	top.WalkProtos(func(p *FuncProto) {
		backfill(p)
		fi := int32(len(l.Protos))
		l.Protos = append(l.Protos, p)
		l.SlotBase = append(l.SlotBase, base)
		for i := range p.Sites {
			l.sites[p.Sites[i].Site] = SiteRef{Proto: fi, Index: int32(i)}
		}
		base += int32(len(p.Sites))
		if !p.DeclPos.IsZero() {
			l.decls[source.Site{Script: p.Script, Pos: p.DeclPos}] = p
		}
	})
	l.SlotBase = append(l.SlotBase, base)
	return l
}

// backfill fills the fields the VM needs that a proto may lack: the
// call label, and for a hand-built proto the interned name pool and
// interned site names.
func backfill(p *FuncProto) {
	if len(p.NameIDs) != len(p.Names) {
		p.NameIDs = make([]symtab.ID, len(p.Names))
		for i, n := range p.Names {
			p.NameIDs[i] = symtab.Intern(n)
		}
	}
	for i := range p.Sites {
		if si := &p.Sites[i]; si.NameID == symtab.None && si.Name != "" {
			si.NameID = symtab.Intern(si.Name)
		}
	}
	if p.CallLabel == "" {
		p.CallLabel = p.FunctionName() + " (" + p.Script + ")"
	}
}

// NumSites returns the program's total feedback site count.
func (l *Layout) NumSites() int { return int(l.SlotBase[len(l.SlotBase)-1]) }

// Lookup returns the position of the feedback site s.
func (l *Layout) Lookup(s source.Site) (SiteRef, bool) {
	ref, ok := l.sites[s]
	return ref, ok
}

// Info returns the compile-time description of the site at ref.
func (l *Layout) Info(ref SiteRef) *SiteInfo {
	return &l.Protos[ref.Proto].Sites[ref.Index]
}

// Decl returns the function declared at site s, or nil.
func (l *Layout) Decl(s source.Site) *FuncProto { return l.decls[s] }

// CountSites returns the total number of feedback sites across all
// functions in the program.
func (p *Program) CountSites() int { return p.Layout().NumSites() }
