package analysis

import (
	"ricjs/internal/bytecode"
	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/source"
)

// maxRounds bounds the global fixpoint. The abstract domains are finite
// (capped object sets, capped shape sets, monotone cells), so the fixpoint
// terminates on its own; the round cap is a defensive backstop that
// degrades to the global ⊤ instead of looping.
const maxRounds = 40

type ctxKey struct {
	owner *bytecode.FuncProto
	slot  int
}

type allocKey struct {
	fn *bytecode.FuncProto
	pc int
}

// fnInfo is the interprocedural summary of one compiled function: monotone
// cells for this/params/return that call transfers join into, plus
// reachability and escape flags.
type fnInfo struct {
	proto  *bytecode.FuncProto
	parent *bytecode.FuncProto
	// reachable functions are (re)interpreted every round.
	reachable bool
	// escaped functions may be called by statically-invisible callers:
	// this and params are ⊤ and the return value escapes.
	escaped bool
	this    *cell
	params  []*cell
	ret     *cell

	// sites resolves proto.Sites indexes to their site records.
	sites []siteUse
	// creator is the creator identity of the function's declaration
	// site, the root of the instances `new` builds; set on first use.
	creator string

	// Basic blocks, computed once: blockPC lists each block's leader pc
	// in code order, blockAt maps a leader pc to its block index (-1 for
	// every other pc).
	blockPC []int
	blockAt []int32
	// Per-block interpreter state, reused across runs: the entry state
	// of each block, whether one has arrived this run, and whether the
	// block waits on the worklist.
	entries []frameState
	entered []bool
	queued  []bool
}

// siteUse is one entry of a proto's site table, resolved to the record
// accumulating the receivers of its source site.
type siteUse struct {
	bytecode.SiteInfo
	rec *siteRecord
}

// siteRecord accumulates, per object-access site, the receivers the
// abstract interpreter saw flowing into the access. Predictions are
// expanded from the receivers' final shape sets after the fixpoint, so
// mid-analysis records are never published stale.
type siteRecord struct {
	site source.Site
	kind ic.AccessKind
	name string
	// creator caches creatorName.
	creator string
	reached bool
	top     bool
	objs    idSet
}

type analyzer struct {
	graph *Graph

	// builtinIDs maps every registered builtin name to its object id. It
	// belongs to the shared seed and is never written after seeding.
	builtinIDs map[string]int32
	objs       []*absObj
	global     *absObj
	globalTop  bool

	progs   []*bytecode.Program
	scripts map[string]bool
	fns     map[*bytecode.FuncProto]*fnInfo
	fnOrder []*fnInfo

	ctxCells  map[ctxKey]*cell
	allocObjs map[allocKey]*absObj
	instances map[*bytecode.FuncProto]*absObj
	protoObjs map[*absObj]*absObj
	natObjs   map[string]*absObj

	sites map[source.Site]*siteRecord

	// changed tracks whether any monotone structure grew this round.
	changed bool

	work Work
	// visited stamps objects with the traversal epoch that last saw them;
	// see newVisit.
	visited []uint32
	epoch   uint32
	// st is the state runFn steps a block's instructions on, and worklist
	// its block stack; both are reused across runs.
	st       frameState
	worklist []int
	idBuf    []int32
}

// Work counts what the abstract interpreter did. Every count is a pure
// function of the analyzed programs, so it is a deterministic proxy for
// analysis cost.
type Work struct {
	// Rounds is the number of global fixpoint rounds.
	Rounds uint64 `json:"rounds"`
	// FnRuns counts function interpretations (one per reachable function
	// per round).
	FnRuns uint64 `json:"fnRuns"`
	// Blocks counts basic blocks taken off a function's worklist.
	Blocks uint64 `json:"blocks"`
	// Steps counts instructions interpreted.
	Steps uint64 `json:"steps"`
	// Merges counts joins of a state into an existing block entry state.
	Merges uint64 `json:"merges"`
	// Clones counts state copies: a block's first entry state, and the
	// working copy each block runs on.
	Clones uint64 `json:"clones"`
}

// Analyze runs the static shape analysis over one or more compiled
// programs (a multi-script page analyzes them together, sharing the
// abstract global object) and returns the per-site predictions plus the
// static transition graph.
func Analyze(progs ...*bytecode.Program) *Result {
	a := &analyzer{
		scripts:   map[string]bool{},
		fns:       map[*bytecode.FuncProto]*fnInfo{},
		ctxCells:  map[ctxKey]*cell{},
		allocObjs: map[allocKey]*absObj{},
		instances: map[*bytecode.FuncProto]*absObj{},
		protoObjs: map[*absObj]*absObj{},
		natObjs:   map[string]*absObj{},
		sites:     map[source.Site]*siteRecord{},
	}
	a.loadSeed(seedTemplate())
	for _, p := range progs {
		if p == nil || p.Toplevel == nil {
			continue
		}
		a.progs = append(a.progs, p)
		a.scripts[p.Script] = true
		a.collect(p.Toplevel, nil)
		top := a.fns[p.Toplevel]
		top.reachable = true
		top.this.update(objVal(a.global))
	}
	a.fixpoint()
	return a.buildResult()
}

func (a *analyzer) newObj(label string) *absObj {
	id := len(a.objs)
	o := &absObj{id: id, label: label, self: idSet{int32(id)}}
	a.objs = append(a.objs, o)
	return o
}

// builtin returns the abstract object of a registered builtin, or nil.
func (a *analyzer) builtin(name string) *absObj {
	if id, ok := a.builtinIDs[name]; ok {
		return a.objs[id]
	}
	return nil
}

func (a *analyzer) collect(p *bytecode.FuncProto, parent *bytecode.FuncProto) {
	fi := &fnInfo{proto: p, parent: parent, this: newCell(), ret: newCell()}
	fi.params = make([]*cell, p.NumParams)
	for i := range fi.params {
		fi.params[i] = newCell()
	}
	a.fns[p] = fi
	a.fnOrder = append(a.fnOrder, fi)
	// Pre-register every site so never-reached ones surface as Dead
	// predictions instead of being silently absent.
	fi.sites = make([]siteUse, len(p.Sites))
	for i, si := range p.Sites {
		fi.sites[i] = siteUse{si, a.siteRecFor(si)}
	}
	fi.findBlocks()
	for _, child := range p.Protos {
		a.collect(child, p)
	}
}

func (a *analyzer) fixpoint() {
	for round := 0; ; round++ {
		if round >= maxRounds || a.graph.overflowed() {
			a.globalTop = true
			return
		}
		a.changed = false
		a.work.Rounds++
		for _, fi := range a.fnOrder {
			if fi.reachable {
				a.runFn(fi)
			}
		}
		if !a.changed {
			return
		}
	}
}

// ---- Monotone update helpers (all route through a.changed) ----

func (a *analyzer) upd(c *cell, v absVal) {
	if c.update(v) {
		a.changed = true
	}
}

func (a *analyzer) shapeAdd(o *absObj, s *Shape) {
	if o.shapes.add(s) {
		a.changed = true
	}
	a.recordRoot(o, s.root)
}

// recordRoot notes that o may hold shapes of r's lineage. Root membership
// only grows and is read only after the fixpoint, so it does not drive
// a.changed.
func (a *analyzer) recordRoot(o *absObj, r *Shape) {
	if r != nil {
		o.roots, _ = o.roots.with(int32(r.ID))
	}
}

func (a *analyzer) addProto(o, p *absObj) {
	if p == nil {
		if !o.protoTop {
			o.protoTop = true
			a.changed = true
		}
		return
	}
	if o.addProto(p) {
		a.changed = true
	}
}

// escapeVal marks every object in a value as escaped: it flowed into ⊤,
// so statically-invisible code may mutate it arbitrarily from now on.
func (a *analyzer) escapeVal(v absVal) {
	for _, id := range v.objs {
		a.escapeObj(a.objs[id])
	}
}

func (a *analyzer) escapeAll(vs []absVal) {
	for _, v := range vs {
		a.escapeVal(v)
	}
}

// escapeObj implements the ⊤-closure invariant: an escaped object has an
// unknown shape history (shapes ⊤), and everything reachable from it —
// field values, elements, prototypes — escapes with it. Escaped functions
// may be called by unknown code with unknown arguments.
func (a *analyzer) escapeObj(o *absObj) {
	if o == nil || o.escaped {
		return
	}
	o.escaped = true
	a.changed = true
	o.shapes.widen()
	for _, name := range o.fieldNames() {
		a.escapeVal(o.fields[name].get())
	}
	if o.unknown != nil {
		a.escapeVal(o.unknown.get())
	}
	if o.elems != nil {
		a.escapeVal(o.elems.get())
	}
	for _, p := range o.protos {
		a.escapeObj(a.objs[p])
	}
	if po := a.protoObjs[o]; po != nil {
		a.escapeObj(po)
	}
	a.escapeFn(o)
}

func (a *analyzer) escapeFn(o *absObj) {
	fi := a.fns[o.fn]
	if fi == nil {
		return
	}
	if !fi.reachable {
		fi.reachable = true
		a.changed = true
	}
	if !fi.escaped {
		fi.escaped = true
		a.changed = true
		a.escapeVal(fi.ret.get())
	}
	a.upd(fi.this, topVal)
	for _, pc := range fi.params {
		a.upd(pc, topVal)
	}
}

// newVisit starts a traversal over the abstract heap: every object
// counts as unvisited again.
func (a *analyzer) newVisit() { a.epoch++ }

// visit marks o visited in the current traversal, reporting whether it
// was not yet.
func (a *analyzer) visit(o *absObj) bool {
	if o.id >= len(a.visited) {
		a.visited = append(a.visited, make([]uint32, len(a.objs)-len(a.visited))...)
	}
	if a.visited[o.id] == a.epoch {
		return false
	}
	a.visited[o.id] = a.epoch
	return true
}

// ---- Site records ----

func (a *analyzer) siteRecFor(si bytecode.SiteInfo) *siteRecord {
	rec := a.sites[si.Site]
	if rec == nil {
		rec = &siteRecord{site: si.Site, kind: si.Kind, name: si.Name}
		a.sites[si.Site] = rec
	}
	return rec
}

// creatorName returns objects.Creator{Site: r.site}.String(), the
// identity of the transitions the site's stores and prototype loads
// create, rendering it once.
func (r *siteRecord) creatorName() string {
	if r.creator == "" {
		r.creator = objects.Creator{Site: r.site}.String()
	}
	return r.creator
}

// recordSite notes the receivers flowing into an access site.
func (a *analyzer) recordSite(rec *siteRecord, recv absVal) {
	if !rec.reached {
		rec.reached = true
		a.changed = true
	}
	if recv.top && !rec.top {
		rec.top = true
		a.changed = true
	}
	if objs, grew := rec.objs.union(recv.objs); grew {
		rec.objs = objs
		a.changed = true
	}
}

// ---- Lexical context slots ----

// ctxOwner resolves a (depth) context reference to the proto owning the
// context, mirroring the VM's chain walk: depth 0 is the nearest enclosing
// context-allocating function, self included.
func (a *analyzer) ctxOwner(p *bytecode.FuncProto, depth int) *bytecode.FuncProto {
	for cur := p; cur != nil; {
		if cur.NumCtxSlots > 0 {
			if depth == 0 {
				return cur
			}
			depth--
		}
		fi := a.fns[cur]
		if fi == nil {
			return nil
		}
		cur = fi.parent
	}
	return nil
}

func (a *analyzer) ctxCell(owner *bytecode.FuncProto, slot int) *cell {
	k := ctxKey{owner, slot}
	c := a.ctxCells[k]
	if c == nil {
		c = newCell()
		a.ctxCells[k] = c
	}
	return c
}

// ---- Allocation-site objects ----

func (a *analyzer) allocObj(fi *fnInfo, pc int, mk func() *absObj) *absObj {
	k := allocKey{fi.proto, pc}
	o := a.allocObjs[k]
	if o == nil {
		o = mk()
		a.allocObjs[k] = o
		a.changed = true
	}
	return o
}

// natObj returns a shared summary object for a native's results (e.g. the
// array Array.prototype.slice produces), keyed by model name.
func (a *analyzer) natObj(key string, mk func() *absObj) *absObj {
	o := a.natObjs[key]
	if o == nil {
		o = mk()
		a.natObjs[key] = o
		a.changed = true
	}
	return o
}

// ---- Per-function abstract interpretation ----

// findBlocks splits the function's code into basic blocks. Leaders are
// pc 0, every branch target, and the instruction after every branch
// (each conditional or unconditional jump, and OpTryPush, whose catch
// target is a branch too).
func (fi *fnInfo) findBlocks() {
	code := fi.proto.Code
	n := len(code)
	fi.blockAt = make([]int32, n)
	for i := range fi.blockAt {
		fi.blockAt[i] = -1
	}
	// Leaders are marked 0 first and numbered in code order below.
	leader := func(pc int) {
		if pc >= 0 && pc < n {
			fi.blockAt[pc] = 0
		}
	}
	leader(0)
	for pc := 0; pc < n; {
		op := bytecode.Op(code[pc])
		next := pc + 1 + op.OperandCount()
		switch op {
		case bytecode.OpJump, bytecode.OpJumpIfFalse, bytecode.OpJumpIfTrue, bytecode.OpTryPush:
			if pc+1 < n {
				leader(int(code[pc+1]))
			}
			leader(next)
		}
		pc = next
	}
	for pc, b := range fi.blockAt {
		if b == 0 {
			fi.blockAt[pc] = int32(len(fi.blockPC))
			fi.blockPC = append(fi.blockPC, pc)
		}
	}
	fi.entries = make([]frameState, len(fi.blockPC))
	fi.entered = make([]bool, len(fi.blockPC))
	fi.queued = make([]bool, len(fi.blockPC))
}

// frameState is the flow-sensitive abstract machine state at one pc:
// operand stack plus locals. Locals get strong updates (StoreLocal
// overwrites); everything heap-shaped is weak.
//
// Locals live in fixed-size chunks that copies share: copying a state
// copies chunk pointers, and a merge skips every chunk both sides share.
// A function with thousands of locals (a library's module wrapper) then
// pays per block only for the chunks its blocks actually write.
type frameState struct {
	stack   []absVal
	chunks  []*localChunk
	nlocals int
}

// chunkSlots is the number of locals per chunk.
const chunkSlots = 16

// localChunk holds chunkSlots consecutive locals. A chunk shared by two
// states is frozen, and a state clones a frozen chunk before writing it.
type localChunk struct {
	vals   [chunkSlots]absVal
	frozen bool
}

// topChunk is a frozen chunk of ⊤ locals, shared by every catch entry.
var topChunk = func() *localChunk {
	c := &localChunk{frozen: true}
	for i := range c.vals {
		c.vals[i] = topVal
	}
	return c
}()

// slots returns the number of locals chunk k of st holds.
func (st *frameState) slots(k int) int { return min(chunkSlots, st.nlocals-k*chunkSlots) }

func (st *frameState) local(i int) absVal { return st.chunks[i/chunkSlots].vals[i%chunkSlots] }

// writable returns chunk k of st, cloning it first if it is shared.
func (st *frameState) writable(k int) *localChunk {
	c := st.chunks[k]
	if c.frozen {
		c = &localChunk{vals: c.vals}
		st.chunks[k] = c
	}
	return c
}

func (st *frameState) setLocal(i int, v absVal) {
	st.writable(i / chunkSlots).vals[i%chunkSlots] = v
}

// reset makes st a state with an empty stack and n locals, all ⊥.
func (st *frameState) reset(n int) {
	st.stack = st.stack[:0]
	st.chunks = st.chunks[:0]
	for k := 0; k*chunkSlots < n; k++ {
		st.chunks = append(st.chunks, &localChunk{})
	}
	st.nlocals = n
}

// copyFrom makes st a copy of src, sharing (and so freezing) its chunks.
func (st *frameState) copyFrom(src *frameState) {
	st.stack = append(st.stack[:0], src.stack...)
	st.chunks = append(st.chunks[:0], src.chunks...)
	for _, c := range src.chunks {
		if !c.frozen { // topChunk is shared between analyzers: read only
			c.frozen = true
		}
	}
	st.nlocals = src.nlocals
}

func (st *frameState) push(v absVal) { st.stack = append(st.stack, v) }

func (st *frameState) pop() absVal {
	if len(st.stack) == 0 {
		return topVal
	}
	v := st.stack[len(st.stack)-1]
	st.stack = st.stack[:len(st.stack)-1]
	return v
}

func (st *frameState) peek() absVal {
	if len(st.stack) == 0 {
		return topVal
	}
	return st.stack[len(st.stack)-1]
}

// succ is one control-flow successor of an instruction. A catch edge
// (OpTryPush's handler) enters its target with the current stack and ⊤
// locals.
type succ struct {
	pc    int
	catch bool
}

// succs holds an instruction's successors; no instruction has more than
// two.
type succs struct {
	n int
	s [2]succ
}

func succ1(pc int) succs { return succs{n: 1, s: [2]succ{{pc: pc}}} }

func succ2(a, b succ) succs { return succs{n: 2, s: [2]succ{a, b}} }

// mergeEntry joins src into block b's entry state in place, reporting
// growth. A catch edge joins ⊤ into every local. Inconsistent stack
// depths cannot come out of our compiler; if they ever do, the analysis
// degrades to the global ⊤ rather than guessing.
func (a *analyzer) mergeEntry(fi *fnInfo, b int32, src *frameState, catch bool) bool {
	dst := &fi.entries[b]
	if !fi.entered[b] {
		fi.entered[b] = true
		a.work.Clones++
		if catch {
			dst.stack = append(dst.stack[:0], src.stack...)
			dst.chunks = dst.chunks[:0]
			for range src.chunks {
				dst.chunks = append(dst.chunks, topChunk)
			}
			dst.nlocals = src.nlocals
		} else {
			dst.copyFrom(src)
		}
		return true
	}
	a.work.Merges++
	if len(dst.stack) != len(src.stack) || dst.nlocals != src.nlocals {
		a.globalTop = true
		return false
	}
	grew := false
	for i := range dst.stack {
		if dst.stack[i].joinIn(src.stack[i]) {
			grew = true
		}
	}
	for k, sc := range src.chunks {
		if catch {
			sc = topChunk
		}
		if dst.chunks[k] == sc {
			continue
		}
		for j := 0; j < dst.slots(k); j++ {
			v := sc.vals[j]
			if v.leq(dst.chunks[k].vals[j]) {
				continue
			}
			dst.writable(k).vals[j].joinIn(v)
			grew = true
		}
	}
	return grew
}

// runFn interprets one function to its local fixpoint, given the current
// interprocedural summaries. The global fixpoint reruns it whenever
// anything it depends on grows.
//
// The worklist holds basic blocks. Each block's straight-line code runs
// on one working state; only block entry states are kept, and a
// successor block is requeued when its entry state grows.
func (a *analyzer) runFn(fi *fnInfo) {
	proto := fi.proto
	n := len(proto.Code)
	if n == 0 {
		return
	}
	a.work.FnRuns++
	clear(fi.entered)
	entry := &fi.entries[0]
	entry.reset(proto.NumLocals)
	for i := 0; i < proto.NumLocals; i++ {
		// Params get a strong set, not a join: missing-argument undefined
		// is already accounted in the param cell by every call transfer,
		// so seeding pUndef here would taint params that are always
		// passed.
		v := primVal(pUndef)
		if i < proto.NumParams {
			v = fi.params[i].get()
		}
		entry.setLocal(i, v)
	}
	fi.entered[0] = true
	fi.queued[0] = true
	work := append(a.worklist[:0], 0)
	st := &a.st
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		fi.queued[b] = false
		a.work.Blocks++
		a.work.Clones++
		st.copyFrom(&fi.entries[b])
		pc := fi.blockPC[b]
		for {
			a.work.Steps++
			out := a.step(fi, pc, st)
			if out.n == 1 && !out.s[0].catch {
				if next := out.s[0].pc; next >= 0 && next < n && fi.blockAt[next] < 0 {
					pc = next // straight-line: stay in the block
					continue
				}
			}
			for _, s := range out.s[:out.n] {
				if s.pc < 0 || s.pc >= n {
					continue
				}
				nb := fi.blockAt[s.pc]
				if nb < 0 {
					// A branch into the middle of a block: the leader
					// scan cannot have missed it for compiler output.
					a.globalTop = true
					continue
				}
				if a.mergeEntry(fi, nb, st, s.catch) && !fi.queued[nb] {
					fi.queued[nb] = true
					work = append(work, int(nb))
				}
			}
			break
		}
	}
	a.worklist = work
}
