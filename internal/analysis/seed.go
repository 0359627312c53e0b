package analysis

import (
	"sync"

	"ricjs/internal/objects"
	"ricjs/internal/vm"
)

// The builtin seed is built once per process and copied into every
// analyzer: startup is deterministic, so every Analyze call would mirror
// the same graph and objects anyway.
var (
	seedOnce sync.Once
	seedBase *analyzer
)

// seedTemplate returns the shared seed: an analyzer holding only the
// mirrored startup environment. It is never written after construction.
func seedTemplate() *analyzer {
	seedOnce.Do(func() {
		s := &seeder{
			a:       &analyzer{graph: newGraph(), builtinIDs: map[string]int32{}},
			v:       vm.New(vm.Options{AddressSeed: 1}),
			shapeOf: map[*objects.HiddenClass]*Shape{},
			objFor:  map[*objects.Object]*absObj{},
		}
		s.seed()
		seedBase = s.a
	})
	return seedBase
}

// loadSeed makes a's heap a private copy of the seed's. Shape and object
// fields that are never written in place (layouts, id sets) stay shared.
func (a *analyzer) loadSeed(t *analyzer) {
	a.graph = t.graph.clone()
	a.builtinIDs = t.builtinIDs
	a.objs = make([]*absObj, len(t.objs))
	for i, o := range t.objs {
		a.objs[i] = o.clone()
	}
	a.global = a.objs[t.global.id]
	a.globalTop = t.globalTop
}

// clone copies o with fresh cells, so updates to the copy leave o alone.
func (o *absObj) clone() *absObj {
	c := *o
	if o.fields != nil {
		c.fields = make(map[string]*cell, len(o.fields))
		for n, f := range o.fields {
			c.fields[n] = &cell{v: f.v}
		}
	}
	if o.unknown != nil {
		c.unknown = &cell{v: o.unknown.v}
	}
	if o.elems != nil {
		c.elems = &cell{v: o.elems.v}
	}
	return &c
}

// seeder mirrors the engine's deterministic startup environment into the
// abstract heap of a: every startup hidden class becomes a Shape
// (preserving the transition graph and creator identities), every
// registered builtin object becomes an absObj with precise fields, and
// the builtin-name → shape table is filled for riclint's HC-table
// cross-checks.
//
// A throwaway VM instance provides the ground truth. Startup is
// deterministic (it is what makes .ric records reusable across contexts
// in the first place), so the mirrored graph is identical to what any
// future engine instance will build before running script code.
type seeder struct {
	a       *analyzer
	v       *vm.VM
	shapeOf map[*objects.HiddenClass]*Shape
	objFor  map[*objects.Object]*absObj
}

func (s *seeder) seed() {
	a, v := s.a, s.v
	for _, root := range v.Roots() {
		root.WalkTransitions(func(hc *objects.HiddenClass) {
			s.mirrorHC(hc)
		})
	}
	for _, b := range v.Builtins() {
		a.graph.builtins[b.Name] = s.mirrorHC(b.HC)
	}
	for _, name := range v.BuiltinObjectNames() {
		// Register every alias: doubly-registered objects ("Object.prototype"
		// vs "Object.prototype-link") memoize to one absObj either way, and
		// the transfer functions look objects up by qualified name.
		if o := s.obj(v.BuiltinObjectByName(name)); o != nil {
			a.builtinIDs[name] = int32(o.id)
		}
	}
	if a.global == nil {
		// The global object is always registered; guard anyway so the
		// analyzer degrades to ⊤ instead of crashing if startup changes.
		a.global = a.newObj("(global)")
		a.global.shapes.widen()
		a.globalTop = true
	}
}

// mirrorHC maps a runtime hidden class to its static shape, mirroring
// ancestors first so transition edges land on the right parents.
func (s *seeder) mirrorHC(hc *objects.HiddenClass) *Shape {
	if sh, ok := s.shapeOf[hc]; ok {
		return sh
	}
	var sh *Shape
	if hc.Parent() == nil {
		sh = s.a.graph.Root(hc.Creator().String())
	} else {
		parent := s.mirrorHC(hc.Parent())
		name := hc.FieldAt(hc.NumFields() - 1)
		sh, _ = s.a.graph.Transition(parent, name, hc.Creator().String())
	}
	s.shapeOf[hc] = sh
	return sh
}

// obj mirrors a startup object (and, transitively, everything it
// references) into an absObj. Memoized on object identity, so reference
// cycles (global.window === global) terminate.
func (s *seeder) obj(o *objects.Object) *absObj {
	if o == nil {
		return nil
	}
	if ao, ok := s.objFor[o]; ok {
		return ao
	}
	a := s.a
	name := s.v.BuiltinObjectName(o)
	label := name
	if label == "" {
		label = "builtin-anon"
	}
	ao := a.newObj(label)
	s.objFor[o] = ao
	ao.native = name
	ao.isArray = o.IsArray()
	ao.isFunc = o.Func() != nil
	if name == "(global)" {
		// The global's transition lineage depends on the load order of
		// scripts, so its shape is unknowable statically — but its fields
		// are tracked precisely: toplevel var bindings live here and the
		// analysis needs them to resolve cross-function dataflow. Its root
		// IS statically known, so record it: the widened global then
		// poisons only its own lineage for typed-shape claims, not every
		// lineage in the program.
		ao.shapes.widen()
		a.recordRoot(ao, s.mirrorHC(o.HC()).root)
		a.global = ao
	} else {
		a.shapeAdd(ao, s.mirrorHC(o.HC()))
	}
	for _, key := range o.OwnNamedKeys() {
		val, ok, _ := o.GetOwn(key)
		if !ok {
			continue
		}
		ao.field(key).update(s.val(val))
	}
	if p := o.Proto(); p != nil {
		ao.addProto(s.obj(p))
	}
	if o.IsArray() {
		for _, e := range o.Elems() {
			ao.elemCell().update(s.val(e))
		}
	}
	return ao
}

func (s *seeder) val(val objects.Value) absVal {
	switch val.Kind() {
	case objects.KindUndefined:
		return primVal(pUndef)
	case objects.KindNull:
		return primVal(pNull)
	case objects.KindBool:
		return primVal(pBool)
	case objects.KindNumber:
		return primVal(numKind(val.Num()))
	case objects.KindString:
		return primVal(pStr)
	case objects.KindObject:
		return objVal(s.obj(val.Obj()))
	}
	return topVal
}
