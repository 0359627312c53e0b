package ricjs_test

import (
	"fmt"
	"strings"
	"testing"

	"ricjs"
	"ricjs/internal/bytecode"
	"ricjs/internal/codecache"
	"ricjs/internal/objects"
	"ricjs/internal/ric"
	"ricjs/internal/vm"
	"ricjs/internal/workloads"
)

// zeroAllocCall asserts that steady-state invocations of a warmed-up
// compiled function allocate nothing: the frame pool supplies the
// activation record, every IC site hits its denormalized fast path, and
// no Value boxing occurs. One warm-up call populates the ICs and the
// pool before measuring.
func zeroAllocCall(t *testing.T, label string, v *vm.VM, fn objects.Value) {
	t.Helper()
	this := objects.Obj(v.Global())
	if _, err := v.CallFunction(fn, this, nil); err != nil {
		t.Fatalf("%s warm-up: %v", label, err)
	}
	var callErr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := v.CallFunction(fn, this, nil); err != nil {
			callErr = err
		}
	})
	if callErr != nil {
		t.Fatalf("%s: %v", label, callErr)
	}
	if allocs != 0 {
		t.Errorf("%s: %v allocs/op, want 0", label, allocs)
	}
}

// TestMonomorphicHitPathZeroAlloc pins the tentpole contract: the
// monomorphic IC hit path — load and store — is allocation-free,
// including the call frame around it. A regression here means either the
// frame pool stopped recycling or something on the hit path started
// boxing (string conversion, handler interface churn, trace emission).
func TestMonomorphicHitPathZeroAlloc(t *testing.T) {
	loadVM, loadFn := benchClosure(t, `
		var obj = {a: 1, b: 2, c: 3};
		function bench() {
			var t = 0;
			for (var i = 0; i < 64; i++) { t = t + obj.c; }
			return t;
		}
		bench();`, "bench")
	zeroAllocCall(t, "monomorphic load", loadVM, loadFn)

	storeVM, storeFn := benchClosure(t, `
		var obj = {a: 1, b: 2, c: 3};
		function bench() {
			for (var i = 0; i < 64; i++) { obj.b = i; }
			return obj.b;
		}
		bench();`, "bench")
	zeroAllocCall(t, "monomorphic store", storeVM, storeFn)
}

// TestQuickenedHitPathZeroAlloc pins the same contract for hit sites
// reached through a local receiver: the load or store site follows a
// LoadLocal and the loop increment is a plain Add, so the hottest
// adjacent pairs (LoadLocal+LoadNamed, Lt+JumpIfFalse) run
// allocation-free once warm.
func TestQuickenedHitPathZeroAlloc(t *testing.T) {
	loadVM, loadFn := benchClosure(t, `
		var obj = {a: 1, b: 2, c: 3};
		function bench() {
			var o = obj, t = 0;
			for (var i = 0; i < 64; i = i + 1) { t = t + o.c; }
			return t;
		}
		bench();`, "bench")
	zeroAllocCall(t, "monomorphic load via local", loadVM, loadFn)

	storeVM, storeFn := benchClosure(t, `
		var obj = {a: 1, b: 2, c: 3};
		function bench() {
			var o = obj;
			for (var i = 0; i < 64; i = i + 1) { o.b = i; }
			return o.b;
		}
		bench();`, "bench")
	zeroAllocCall(t, "monomorphic store via local", storeVM, storeFn)
}

// TestPolymorphicHitPathZeroAlloc extends the pin to polymorphic and
// megamorphic hits: entry-list scans and the generic stub also run
// allocation-free once warm.
func TestPolymorphicHitPathZeroAlloc(t *testing.T) {
	polyVM, polyFn := benchClosure(t, `
		var shapes = [{x: 1}, {a: 1, x: 2}, {a: 1, b: 2, x: 3}, {a: 1, b: 2, c: 3, x: 4}];
		function bench() {
			var t = 0;
			for (var i = 0; i < 64; i++) { t = t + shapes[i % 4].x; }
			return t;
		}
		bench();`, "bench")
	zeroAllocCall(t, "polymorphic load", polyVM, polyFn)
}

// TestNestedCallZeroAlloc pins the frame pool across call depth: nested
// user-function calls reuse pooled frames rather than allocating
// activation records.
func TestNestedCallZeroAlloc(t *testing.T) {
	v, fn := benchClosure(t, `
		var obj = {a: 7};
		function inner(n) { return n + obj.a; }
		function bench() {
			var t = 0;
			for (var i = 0; i < 32; i++) { t = inner(t); }
			return t;
		}
		bench();`, "bench")
	zeroAllocCall(t, "nested calls", v, fn)
}

// registerAllocs reports the allocations of registering an already-cached
// program in a fresh VM. The VMs are built beforehand, so only the
// registration is measured.
func registerAllocs(t *testing.T, prog *bytecode.Program) float64 {
	t.Helper()
	const runs = 10
	prog.Layout() // cached: the shared index already exists
	vms := make([]*vm.VM, runs+1)
	for i := range vms {
		vms[i] = vm.New(vm.Options{})
	}
	next := 0
	return testing.AllocsPerRun(runs, func() {
		vms[next].RegisterProgram(prog)
		next++
	})
}

// cachedProgram compiles src through a code cache, as a session would
// receive it.
func cachedProgram(t *testing.T, name, src string) *bytecode.Program {
	t.Helper()
	prog, err := codecache.New().Load(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRegisterProgramAllocsFlat pins the shared site index: registering a
// cached program allocates one slot slab and one vector array however
// many sites the program has, and never a per-site index. Two programs
// with the same functions but 1 and 400 sites must cost the same, and
// React, the largest profile, no more than one allocation per function
// plus a small constant.
func TestRegisterProgramAllocsFlat(t *testing.T) {
	var wide strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&wide, " + o.p%d", i)
	}
	narrow := cachedProgram(t, "narrow.js", "function f(o) { return o.p0; }")
	broad := cachedProgram(t, "broad.js", "function f(o) { return 0"+wide.String()+"; }")
	if n, b := narrow.CountSites(), broad.CountSites(); b < n+399 {
		t.Fatalf("site counts %d and %d: the broad program must have 399 more", n, b)
	}
	if a, b := registerAllocs(t, narrow), registerAllocs(t, broad); a != b {
		t.Errorf("registration allocs grow with sites: %v for %d sites, %v for %d",
			a, narrow.CountSites(), b, broad.CountSites())
	}

	p, _ := workloads.ByName("React")
	react := cachedProgram(t, p.Script, p.Source())
	const slack = 8
	protos := len(react.Layout().Protos)
	if got := registerAllocs(t, react); got > float64(protos+slack) {
		t.Errorf("registering React (%d functions, %d sites): %v allocs/op, want <= %d",
			protos, react.CountSites(), got, protos+slack)
	}
}

// TestRecordValidateAllocFree pins the other reader of the shared index:
// validating React's record against its cached program builds no map
// and allocates nothing.
func TestRecordValidateAllocFree(t *testing.T) {
	p, _ := workloads.ByName("React")
	prog := cachedProgram(t, p.Script, p.Source())
	v := vm.New(vm.Options{})
	if _, err := v.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	rec := ric.Extract(v, p.Name, ric.Config{})
	if len(rec.Deps) == 0 || len(rec.SiteTOAST) == 0 {
		t.Fatal("React record is empty: the test would validate nothing")
	}
	var verr error
	allocs := testing.AllocsPerRun(20, func() { verr = rec.Validate(prog) })
	if verr != nil {
		t.Fatal(verr)
	}
	if allocs != 0 {
		t.Errorf("Record.Validate: %v allocs/op, want 0", allocs)
	}
}

// TestExtractRecordRunsNoAnalysis pins extraction to the IC walk: a
// session's ExtractRecord allocates within a small constant of ric.Extract
// on the same engine (the static analysis alone allocates thousands of
// objects per library), and the records it produces, including the one a
// cold SessionPool session saves, carry no typed-slot claims.
func TestExtractRecordRunsNoAnalysis(t *testing.T) {
	const slack = 4
	for _, name := range []string{"jQuery", "React"} {
		p, _ := workloads.ByName(name)
		eng := ricjs.NewEngine(ricjs.Options{})
		if err := eng.Run(p.Script, p.Source()); err != nil {
			t.Fatal(err)
		}
		walk := testing.AllocsPerRun(5, func() { ric.Extract(eng.VM(), p.Name, ric.Config{}) })
		var rec *ricjs.Record
		extract := testing.AllocsPerRun(5, func() { rec = eng.ExtractRecord(p.Name) })
		if extract > walk+slack {
			t.Errorf("%s: ExtractRecord %v allocs/op, ric.Extract %v: extraction does more than the IC walk",
				name, extract, walk)
		}
		if n := rec.Stats().TypedSlotClaims; n != 0 {
			t.Errorf("%s: ExtractRecord attached %d typed-slot claims, want 0", name, n)
		}
	}

	store, err := ricjs.OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workloads.ByName("React")
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{Store: store})
	res, err := pool.Serve(ricjs.SessionRequest{
		Key:     p.Name,
		Scripts: []ricjs.SessionScript{{Name: p.Script, Src: p.Source()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ricjs.SessionInitial {
		t.Fatalf("cold session mode = %v, want initial", res.Mode)
	}
	saved, err := store.Load(p.Name)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Stats().DependentSlots == 0 {
		t.Fatal("saved record is empty: the claims check would be vacuous")
	}
	if n := saved.Stats().TypedSlotClaims; n != 0 {
		t.Errorf("record saved by a cold session decodes with %d typed-slot claims, want 0", n)
	}
}
