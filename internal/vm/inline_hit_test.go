package vm

import (
	"strings"
	"testing"

	"ricjs/internal/bytecode"
	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/trace"
)

// runScript compiles and executes src on v, failing the test on error.
func runScript(t *testing.T, v *VM, src string) {
	t.Helper()
	if _, err := v.RunProgram(compileFor(t, "test.js", src)); err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
}

// protoOf resolves the FuncProto of a global function by name.
func protoOf(t *testing.T, v *VM, name string) *bytecode.FuncProto {
	t.Helper()
	fn, ok := v.Global().GetNamed(name)
	if !ok {
		t.Fatalf("global %q not found", name)
	}
	return fn.Obj().Func().Code.(*bytecode.FuncProto)
}

// onlySlot returns the single feedback slot of a one-site function.
func onlySlot(t *testing.T, v *VM, p *bytecode.FuncProto) *ic.Slot {
	t.Helper()
	vec := v.feedback[p]
	if vec == nil || len(vec.Slots) != 1 {
		t.Fatalf("%s: want exactly one feedback slot, got %v", p.FunctionName(), vec)
	}
	return &vec.Slots[0]
}

// TestOpStatsCollection checks the dispatch-loop histogram: opcode counts
// accumulate, adjacent pairs are counted only on fall-through, and a VM
// without collection reports nil.
func TestOpStatsCollection(t *testing.T) {
	v := New(Options{AddressSeed: 1, CollectOpStats: true})
	runScript(t, v, `
		function g(o) { var t = o.a; return t; }
		var r = g({a: 1}) + g({a: 2});
		print(r);
	`)
	if got := v.Output(); got != "3\n" {
		t.Fatalf("output %q, want %q", got, "3\n")
	}
	s := v.OpStats()
	if s == nil {
		t.Fatal("CollectOpStats VM returned nil OpStats")
	}
	if s.Ops[bytecode.OpLoadLocal] == 0 || s.Ops[bytecode.OpLoadNamed] == 0 {
		t.Fatalf("opcode counts missing: LoadLocal=%d LoadNamed=%d",
			s.Ops[bytecode.OpLoadLocal], s.Ops[bytecode.OpLoadNamed])
	}
	// g's body dispatches `o.a` right after loading the local, twice.
	if got := s.Pair(bytecode.OpLoadLocal, bytecode.OpLoadNamed); got < 2 {
		t.Fatalf("Pair(LoadLocal, LoadNamed) = %d, want >= 2", got)
	}
	if plain := New(Options{AddressSeed: 1}); plain.OpStats() != nil {
		t.Fatal("plain VM reported a non-nil OpStats")
	}
}

// TestBadOpcodeThrows pins the dispatch loop's default case: an opcode
// outside the instruction set raises a catchable VM error, it does not
// crash the interpreter.
func TestBadOpcodeThrows(t *testing.T) {
	proto := &bytecode.FuncProto{
		Name:   "<main>",
		Script: "bad.js",
		Code:   []uint32{9999},
	}
	_, err := New(Options{AddressSeed: 1}).RunProgram(&bytecode.Program{Script: "bad.js", Toplevel: proto})
	if err == nil || !strings.Contains(err.Error(), "bad opcode") {
		t.Fatalf("bad opcode produced %v, want a bad-opcode error", err)
	}
}

// TestInlineHitInvalidation drives each inline IC hit path (named load,
// named store, global load, keyed element load) through a monomorphic
// hit, then an execution that invalidates the cached entry (polymorphic
// promotion, dictionary demotion, a global-object transition, a
// non-array receiver). The invalidating execution must leave the inline
// path and still produce the right value; where the slot keeps its
// entry, a later monomorphic receiver hits inline again.
func TestInlineHitInvalidation(t *testing.T) {
	cases := []struct {
		name string
		fn   string
		// setup defines fn and executes it through the miss (first call)
		// and the inline hit (second call).
		setup, setupOut string
		// invalidate executes fn on a receiver the cached entry does not
		// cover; after is the slot state it must leave behind.
		invalidate, invalidateOut string
		after                     ic.State
		// rehit drives the site back through an inline hit; empty skips
		// the leg.
		rehit, rehitOut string
	}{
		{
			name:          "load-named poly promotion",
			fn:            "getA",
			setup:         `function getA(o) { return o.a; } var pa = {a: 1}; print(getA(pa)); print(getA(pa));`,
			setupOut:      "1\n1\n",
			invalidate:    `print(getA({b: 2, a: 3}));`,
			invalidateOut: "3\n",
			after:         ic.Polymorphic,
		},
		{
			name:          "load-named dictionary demotion",
			fn:            "getB",
			setup:         `function getB(o) { return o.a; } var pb = {a: 1}; print(getB(pb)); print(getB(pb));`,
			setupOut:      "1\n1\n",
			invalidate:    `delete pb.a; print(getB(pb));`,
			invalidateOut: "undefined\n",
			// A dictionary receiver bypasses the IC, so the slot keeps its
			// entry and a fresh object on the original transition chain
			// hits it again.
			after:    ic.Monomorphic,
			rehit:    `var pb2 = {a: 5}; print(getB(pb2)); print(getB(pb2));`,
			rehitOut: "5\n5\n",
		},
		{
			name:          "store-named poly promotion",
			fn:            "setA",
			setup:         `function setA(o, v) { o.a = v; } var sa = {a: 1}; setA(sa, 2); setA(sa, 3); print(sa.a);`,
			setupOut:      "3\n",
			invalidate:    `var sz = {z: 1, a: 0}; setA(sz, 4); print(sz.a + sa.a);`,
			invalidateOut: "7\n",
			after:         ic.Polymorphic,
		},
		{
			name:     "load-global object transition",
			fn:       "lg",
			setup:    `var gq = 7; function lg() { return gq; } print(lg()); print(lg());`,
			setupOut: "7\n7\n",
			// Declaring a fresh global transitions the global object's
			// hidden class; the slot then caches both classes.
			invalidate:    `fresh_global_q = 1; print(lg());`,
			invalidateOut: "7\n",
			after:         ic.Polymorphic,
		},
		{
			name:          "keyed element non-array receiver",
			fn:            "ke",
			setup:         `function ke(a, i) { return a[i]; } var ka = [1, 2, 3]; print(ke(ka, 0)); print(ke(ka, 1));`,
			setupOut:      "1\n2\n",
			invalidate:    `print(ke({nope: 1}, 0));`,
			invalidateOut: "undefined\n",
			after:         ic.Polymorphic,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			v := New(Options{AddressSeed: 1})
			runScript(t, v, tc.setup)
			if got := v.Output(); got != tc.setupOut {
				t.Fatalf("setup output %q, want %q", got, tc.setupOut)
			}
			slot := onlySlot(t, v, protoOf(t, v, tc.fn))
			if slot.State != ic.Monomorphic {
				t.Fatalf("after setup, slot state %v, want monomorphic", slot.State)
			}
			hits := v.Prof.Snapshot().ICHits
			if hits == 0 {
				t.Fatal("setup's second call did not hit")
			}

			out := len(v.Output())
			runScript(t, v, tc.invalidate)
			if got := v.Output()[out:]; got != tc.invalidateOut {
				t.Fatalf("invalidating execution printed %q, want %q", got, tc.invalidateOut)
			}
			if slot.State != tc.after {
				t.Fatalf("after invalidation, slot state %v, want %v", slot.State, tc.after)
			}

			if tc.rehit == "" {
				return
			}
			before := v.Prof.Snapshot().ICHits
			out = len(v.Output())
			runScript(t, v, tc.rehit)
			if got := v.Output()[out:]; got != tc.rehitOut {
				t.Fatalf("re-hit output %q, want %q", got, tc.rehitOut)
			}
			if v.Prof.Snapshot().ICHits <= before {
				t.Fatal("monomorphic receiver did not hit again")
			}
		})
	}
}

// TestRegressedMonoSlotUsesEntryOffset pins a subtle IC state: a slot that
// goes polymorphic and then regresses to monomorphic (entry eviction) can
// present a DIFFERENT hidden class at entry 0. The inline hit must read
// the offset of the entry it matched, not one remembered from the
// evicted entry.
func TestRegressedMonoSlotUsesEntryOffset(t *testing.T) {
	v := New(Options{AddressSeed: 1})
	// Shape A stores `a` at offset 0; shape B ({x, a}) stores it at 1.
	runScript(t, v, `
		function gsf(o) { return o.a; }
		var oa = {a: 10};
		var ob = {x: 1}; ob.a = 20;
		gsf(oa); gsf(oa);
	`)
	slot := onlySlot(t, v, protoOf(t, v, "gsf"))
	if slot.State != ic.Monomorphic {
		t.Fatalf("expected a monomorphic slot, got %v", slot.State)
	}

	// Promote to polymorphic with B's entry, then evict A — the machine
	// state after a prototype-invalidation eviction. Entry 0 is now
	// (HC_B, offset 1).
	obVal, _ := v.Global().GetNamed("ob")
	hcB := obVal.Obj().HC()
	hcA := slot.Entries[0].HC
	slot.Add(hcB, ic.LoadField{Offset: 1})
	slot.Remove(hcA)
	if slot.State != ic.Monomorphic || slot.Entries[0].HC != hcB {
		t.Fatal("slot manipulation did not produce the regressed-mono state")
	}

	// Offset 0 of B holds x=1; the hit must read offset 1.
	runScript(t, v, `print(gsf(ob));`)
	if got := v.Output(); got != "20\n" {
		t.Fatalf("regressed-mono execution produced %q, want %q", got, "20\n")
	}
}

// TestSharedProtoCodeImmutable runs one compiled program on two VMs: the
// canonical code that the code cache and snapshots share across sessions
// is never written by execution, and both VMs agree.
func TestSharedProtoCodeImmutable(t *testing.T) {
	src := `function shared(o) { return o.f; } var so = {f: 9}; shared(so); shared(so); print(shared(so));`
	bc := compileFor(t, "test.js", src)
	var canon [][]uint32
	bc.Toplevel.WalkProtos(func(p *bytecode.FuncProto) {
		canon = append(canon, append([]uint32(nil), p.Code...))
	})

	v1 := New(Options{AddressSeed: 1})
	v2 := New(Options{AddressSeed: 2})
	for _, v := range []*VM{v1, v2} {
		if _, err := v.RunProgram(bc); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	bc.Toplevel.WalkProtos(func(p *bytecode.FuncProto) {
		for pc, w := range p.Code {
			if w != canon[i][pc] {
				t.Fatalf("%s: canonical code mutated at word %d", p.FunctionName(), pc)
			}
		}
		i++
	})
	if v1.Output() != "9\n" || v1.Output() != v2.Output() {
		t.Fatalf("outputs %q and %q, want %q from both", v1.Output(), v2.Output(), "9\n")
	}
}

// TestInlineHitsTracedUnderStepBudget drives every inline hit path (named
// load, named store, global load, keyed element load) into steady state
// with tracing on and a step budget armed, so the hits take the traced
// branch of each inline path, and reconciles the trace against the
// profiler.
func TestInlineHitsTracedUnderStepBudget(t *testing.T) {
	tr := trace.NewBuffer(0)
	v := New(Options{AddressSeed: 1, MaxSteps: 1 << 30, Trace: tr})
	runScript(t, v, `
		function ld(o) { return o.a; }
		function st(o, x) { o.a = x; }
		function ke(a, i) { return a[i]; }
		var gv = 5;
		function lg() { return gv; }
		var o = {a: 1};
		var arr = [7, 8, 9];
		ld(o); ld(o); ld(o); ld(o);
		st(o, 2); st(o, 3); st(o, 4);
		lg(); lg(); lg();
		ke(arr, 0); ke(arr, 1); ke(arr, 2);
		print(ld(o) + lg() + ke(arr, 2));
	`)
	if got := v.Output(); got != "18\n" {
		t.Fatalf("output %q, want %q", got, "18\n")
	}
	// ld, st, lg and ke each hit at least twice after their first miss.
	if n := tr.Count(trace.EvICHit); n < 8 {
		t.Fatalf("trace recorded %d EvICHit events, want >= 8", n)
	}
	reconcileVM(t, v, tr)
}

// TestQuickenedTypedFastLifecycle walks a typed-slot load site through
// its lifecycle: a slot-type claim routes the monomorphic hit through the
// FastLoadFieldTyped inline path, steady-state executions take that typed
// read, and a receiver of another shape then reads its own field through
// the untyped path without counting a typed hit.
func TestQuickenedTypedFastLifecycle(t *testing.T) {
	v := New(Options{AddressSeed: 1})
	runScript(t, v, `
		function Point(x, y) { this.x = x; this.y = y; }
		var p = new Point(3, 4);
		function gx(o) { return o.x; }
	`)
	pv, ok := v.Global().GetNamed("p")
	if !ok || pv.Obj() == nil {
		t.Fatal("no p object")
	}
	pv.Obj().HC().SetSlotType(0, objects.SlotTypeSmallInt)

	runScript(t, v, `gx(p); gx(p); gx(p); print(gx(p));`)
	if got := v.Output(); got != "3\n" {
		t.Fatalf("output %q, want %q", got, "3\n")
	}
	slot := onlySlot(t, v, protoOf(t, v, "gx"))
	if slot.State != ic.Monomorphic || slot.Entries[0].Fast != ic.FastLoadFieldTyped {
		t.Fatalf("claimed site not cached as a typed monomorphic load: state %v", slot.State)
	}
	typed := v.Prof.Snapshot().TypedFastHits
	if typed == 0 {
		t.Fatal("no typed fast hits recorded")
	}

	runScript(t, v, `print(gx({q: 1, x: 7})); print(gx({q: 1, x: 8}));`)
	if !strings.HasSuffix(v.Output(), "7\n8\n") {
		t.Fatalf("post-shape-change output %q, want suffix %q", v.Output(), "7\n8\n")
	}
	if slot.State != ic.Polymorphic {
		t.Fatalf("shape change left slot state %v, want polymorphic", slot.State)
	}
	if got := v.Prof.Snapshot().TypedFastHits; got != typed {
		t.Fatalf("untyped receiver counted typed hits: %d -> %d", typed, got)
	}

	runScript(t, v, `print(gx(p));`)
	if got := v.Prof.Snapshot().TypedFastHits; got != typed+1 {
		t.Fatalf("typed entry of the polymorphic slot: typed hits %d -> %d, want +1", typed, got)
	}
}

// TestFusedTypedLoadInFusedPair routes the LoadLocal+LoadNamed pair (a
// named load on a local receiver) through a typed-slot entry: the load
// after LoadLocal takes the FastLoadFieldTyped inline path.
func TestFusedTypedLoadInFusedPair(t *testing.T) {
	v := New(Options{AddressSeed: 1})
	runScript(t, v, `
		function Point(x, y) { this.x = x; this.y = y; }
		var p = new Point(3, 4);
		function gx(o) { var t = o.x; return t; }
	`)
	pv, ok := v.Global().GetNamed("p")
	if !ok || pv.Obj() == nil {
		t.Fatal("no p object")
	}
	pv.Obj().HC().SetSlotType(0, objects.SlotTypeSmallInt)
	runScript(t, v, `gx(p); print(gx(p));`)
	if got := v.Output(); got != "3\n" {
		t.Fatalf("output %q, want %q", got, "3\n")
	}
	slot := onlySlot(t, v, protoOf(t, v, "gx"))
	if slot.State != ic.Monomorphic || slot.Entries[0].Fast != ic.FastLoadFieldTyped {
		t.Fatalf("local-receiver site not cached as a typed monomorphic load: state %v", slot.State)
	}
	if v.Prof.Snapshot().TypedFastHits == 0 {
		t.Fatal("typed entry not taken through a local receiver")
	}
}

// TestStringCompareLoop drives a Lt+JumpIfFalse loop condition through its
// string leg: JS relational comparison on two strings is lexicographic.
func TestStringCompareLoop(t *testing.T) {
	v := New(Options{AddressSeed: 1})
	runScript(t, v, `
		function grow(limit) {
			var n = 0;
			for (var s = ""; s < limit; s = s + "x") { n = n + 1; }
			return n;
		}
		print(grow("xxx"));
	`)
	if got := v.Output(); got != "3\n" {
		t.Fatalf("string-compare loop output %q, want %q", got, "3\n")
	}
}

// TestLoadNamedNullReceiverThrows covers the load's error leg: a named
// load on a null receiver, at a site whose inline entry is warm, raises a
// catchable TypeError.
func TestLoadNamedNullReceiverThrows(t *testing.T) {
	v := New(Options{AddressSeed: 1})
	runScript(t, v, `
		function f(o) { var t = o.x; return t; }
		f({x: 1}); f({x: 2});
		try { f(null); } catch (e) { print("caught"); }
	`)
	if got := v.Output(); got != "caught\n" {
		t.Fatalf("output %q, want %q", got, "caught\n")
	}
}

// TestSelfStoreMissThenHit runs `o.a = o` three times through one store
// site, from a hand-built proto whose Dup feeds StoreNamed directly (the
// compiler always puts a value expression between them): an
// add-property transition miss, an in-place store miss that installs
// the field entry, then an inline hit.
func TestSelfStoreMissThenHit(t *testing.T) {
	store := []uint32{
		uint32(bytecode.OpLoadLocal), 0,
		uint32(bytecode.OpDup),
		uint32(bytecode.OpStoreNamed), 0, 0,
		uint32(bytecode.OpPop),
	}
	code := []uint32{
		uint32(bytecode.OpNewObject),
		uint32(bytecode.OpStoreLocal), 0,
		uint32(bytecode.OpPop),
	}
	for i := 0; i < 3; i++ {
		code = append(code, store...)
	}
	proto := &bytecode.FuncProto{
		Name:      "<main>",
		Script:    "self.js",
		NumLocals: 1,
		Code:      code,
		Names:     []string{"a"},
		Sites:     []bytecode.SiteInfo{{Kind: ic.AccessStore, Name: "a"}},
	}
	v := New(Options{AddressSeed: 1})
	if _, err := v.RunProgram(&bytecode.Program{Script: "self.js", Toplevel: proto}); err != nil {
		t.Fatalf("self-store program failed: %v", err)
	}
	s := v.Prof.Snapshot()
	if s.ICMisses != 2 || s.ICHits != 1 {
		t.Fatalf("misses=%d hits=%d, want two misses then one hit", s.ICMisses, s.ICHits)
	}
}

// TestStepBudgetSweep sweeps the step budget across a loop: every budget
// below the run's step count aborts with a LimitError and a prefix of the
// output, and every budget at or above it completes with the output and
// profiler snapshot of an unlimited run.
func TestStepBudgetSweep(t *testing.T) {
	const src = `
		function sum(o, n) {
			var t = 0;
			for (var i = 0; i < n; i++) { t = t + o.val; }
			return t;
		}
		print(sum({val: 3}, 50));
	`
	bc := compileFor(t, "test.js", src)
	unlimited := New(Options{AddressSeed: 1})
	if _, err := unlimited.RunProgram(bc); err != nil {
		t.Fatal(err)
	}
	completed := false
	for budget := uint64(1); budget <= 2000; budget++ {
		v := New(Options{AddressSeed: 1, MaxSteps: budget})
		_, err := v.RunProgram(bc)
		if err != nil {
			if _, ok := err.(*LimitError); !ok {
				t.Fatalf("budget %d: error %v is not a LimitError", budget, err)
			}
			if completed {
				t.Fatalf("budget %d aborted after a smaller budget completed", budget)
			}
			if !strings.HasPrefix(unlimited.Output(), v.Output()) {
				t.Fatalf("budget %d: aborted run printed %q, not a prefix of %q", budget, v.Output(), unlimited.Output())
			}
			continue
		}
		completed = true
		if v.Output() != unlimited.Output() {
			t.Fatalf("budget %d: output %q, want %q", budget, v.Output(), unlimited.Output())
		}
		if vs, us := v.Prof.Snapshot(), unlimited.Prof.Snapshot(); vs != us {
			t.Fatalf("budget %d: snapshot diverged\nbudgeted:  %+v\nunlimited: %+v", budget, vs, us)
		}
	}
	if !completed {
		t.Fatal("no budget up to 2000 steps completed the run")
	}
}
