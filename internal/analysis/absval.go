package analysis

import (
	"sort"

	"ricjs/internal/bytecode"
	"ricjs/internal/objects"
)

// Primitive bit-set components of an abstract value. Numbers split into
// two components forming the value-type lattice's only non-trivial chain:
// pInt (SmallInt — integral, int32 range) ⊑ pInt|pFlo (any number).
const (
	pUndef uint8 = 1 << iota
	pNull
	pBool
	// pInt is an integral number in int32 range (an unboxable SmallInt).
	// Only operations that guarantee the range produce it: int32-range
	// integer constants and the ToInt32 bit operations. General arithmetic
	// widens to pNum — no bounded integer class is inductive under
	// addition, so claiming otherwise would be unsound.
	pInt
	// pFlo is a number that may fall outside the SmallInt class.
	pFlo
	pStr

	// pNum is the full number component, SmallInt ⊔ Float.
	pNum = pInt | pFlo
)

// idSet is a set of dense ids (abstract objects or shapes) in ascending
// order. Sets are immutable once built — every insertion or union that
// adds an element allocates a fresh slice — so one set can back any
// number of values, cells and analyzers at once, and iterating it visits
// members in creation order without sorting.
type idSet []int32

// with returns s ∪ {id}, and whether id was new.
func (s idSet) with(id int32) (idSet, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i < len(s) && s[i] == id {
		return s, false
	}
	out := make(idSet, len(s)+1)
	copy(out, s[:i])
	out[i] = id
	copy(out[i+1:], s[i:])
	return out, true
}

// subsetOf reports s ⊆ t.
func (s idSet) subsetOf(t idSet) bool {
	if len(s) > len(t) {
		return false
	}
	j := 0
	for _, id := range s {
		for j < len(t) && t[j] < id {
			j++
		}
		if j == len(t) || t[j] != id {
			return false
		}
		j++
	}
	return true
}

// union returns s ∪ t, and whether it is larger than s. Whenever one
// operand already holds the union, it is returned as is.
func (s idSet) union(t idSet) (idSet, bool) {
	if t.subsetOf(s) {
		return s, false
	}
	if s.subsetOf(t) {
		return t, true
	}
	out := make(idSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	return append(out, t[j:]...), true
}

// absVal is an abstract JS value: a may-set of primitive kinds plus a
// may-set of abstract objects (by id), or ⊤ (any value, including
// unknown objects). Values are immutable — the object set is shared, never
// written — so they can be copied freely between stack slots and cells.
type absVal struct {
	top   bool
	prims uint8
	objs  idSet
}

var topVal = absVal{top: true}

func primVal(p uint8) absVal { return absVal{prims: p} }

func objVal(o *absObj) absVal { return absVal{objs: o.self} }

func (v absVal) isBottom() bool { return !v.top && v.prims == 0 && len(v.objs) == 0 }

// maybeObj reports whether the value may be an object (⊤ included).
func (v absVal) maybeObj() bool { return v.top || len(v.objs) > 0 }

// maybeString reports whether the value may be a string.
func (v absVal) maybeString() bool { return v.top || v.prims&pStr != 0 }

// numericOnly reports whether the value is definitely a number (relevant
// for keyed access: numeric keys on arrays hit element storage, never
// named properties).
func (v absVal) numericOnly() bool {
	return !v.top && len(v.objs) == 0 && v.prims != 0 && v.prims&^pNum == 0
}

// join returns v ⊔ w.
func (v absVal) join(w absVal) absVal {
	v.joinIn(w)
	return v
}

// joinIn joins w into v in place, reporting whether v grew. No size cap:
// silently widening a join to ⊤ would drop tracked objects into ⊤ without
// escaping them, breaking the invariant that ⊤ only aliases escaped
// objects. Object counts are bounded by allocation sites, so joins stay
// finite regardless.
func (v *absVal) joinIn(w absVal) bool {
	if v.top {
		return false
	}
	if w.top {
		*v = topVal
		return true
	}
	grew := w.prims&^v.prims != 0
	v.prims |= w.prims
	objs, more := v.objs.union(w.objs)
	v.objs = objs
	return grew || more
}

// leq reports v ⊑ w.
func (v absVal) leq(w absVal) bool {
	if w.top {
		return true
	}
	if v.top {
		return false
	}
	return v.prims&^w.prims == 0 && v.objs.subsetOf(w.objs)
}

// numKind classifies a numeric constant into the lattice's number
// components: SmallInt when the runtime SmallInt predicate holds, Float
// otherwise.
func numKind(f float64) uint8 {
	if objects.IsSmallInt(f) {
		return pInt
	}
	return pFlo
}

// slotTypeOf collapses an abstract value into the slot-type lattice
// element used for typed-shape claims. ⊤ and empty (⊥) values, and any
// mix of objects with primitives, are unclaimable.
func slotTypeOf(v absVal) objects.SlotType {
	if v.top {
		return objects.SlotTypeNone
	}
	t := objects.SlotTypeBottom
	if len(v.objs) > 0 {
		t = objects.SlotTypeObject
	}
	if v.prims&pInt != 0 {
		t = t.Join(objects.SlotTypeSmallInt)
	}
	if v.prims&pFlo != 0 {
		t = t.Join(objects.SlotTypeFloat)
	}
	if v.prims&pStr != 0 {
		t = t.Join(objects.SlotTypeString)
	}
	if v.prims&pBool != 0 {
		t = t.Join(objects.SlotTypeBoolean)
	}
	if v.prims&(pUndef|pNull) != 0 {
		t = t.Join(objects.SlotTypeNullUndef)
	}
	return t
}

// cell is a monotone container for an abstract value (an object field, a
// context slot, a function parameter, ...). update returns whether the
// cell grew, which drives the fixpoint.
type cell struct {
	v absVal
}

func newCell() *cell { return &cell{} }

func (c *cell) update(v absVal) bool { return c.v.joinIn(v) }

func (c *cell) get() absVal { return c.v }

// shapeSet is a may-set of shapes (by Shape.ID) an abstract object can
// have, or ⊤ (unknown layout history — e.g. computed property names or
// escape). The id set is immutable, so a loop over ids stays valid while
// the loop body adds shapes.
type shapeSet struct {
	top bool
	ids idSet
}

func (ss *shapeSet) add(s *Shape) bool {
	if ss.top {
		return false
	}
	ids, added := ss.ids.with(int32(s.ID))
	ss.ids = ids
	return added
}

func (ss *shapeSet) widen() bool {
	if ss.top {
		return false
	}
	ss.top = true
	ss.ids = nil
	return true
}

// maxObjShapes bounds per-object shape-set growth. Sequential stores of n
// distinct properties can reach up to 2^n shapes (a transition from every
// held shape lacking the field), so this must comfortably exceed 2^p for
// the largest literal/constructor property count the workloads use.
const maxObjShapes = 128

// absObj is an abstract heap object: one allocation site (or builtin /
// per-native summary object), a may-set of shapes, and monotone field
// cells. A single absObj summarizes every runtime object its allocation
// produces, so field updates are always weak.
type absObj struct {
	id    int
	label string
	// self is the singleton set {id}, shared by every objVal(o).
	self idSet

	isArray bool
	isFunc  bool
	// native is the qualified builtin name when this object is a
	// registered builtin (function or object), e.g. "Array.prototype.push"
	// or "Math"; it keys the native call models.
	native string
	// fn is the compiled function a closure object wraps.
	fn *bytecode.FuncProto

	shapes shapeSet
	// fields maps known property names to value cells.
	fields map[string]*cell
	// unknown holds values stored under statically-unknown property names.
	unknown *cell
	// elems holds array element values.
	elems *cell
	// protos is the may-set of prototype objects (by id); protoTop means
	// the prototype chain is unknown.
	protos   idSet
	protoTop bool

	// roots accumulates the root shape of every lineage this object ever
	// held. Unlike the shape set it survives widening and escape, so the
	// typed-shape pass can still tell WHICH lineages an untrackable object
	// may reach (and poison exactly those) after the precise set is gone.
	// Holds root Shape.IDs.
	roots idSet

	// escaped marks objects reachable from ⊤ (unknown code may mutate
	// them arbitrarily); their shape set is ⊤ and their fields are ⊤.
	escaped bool
	// maybeDict marks objects that may have been demoted to dictionary
	// mode (delete); dictionary receivers bypass ICs entirely, so this
	// only feeds diagnostics.
	maybeDict bool
}

func (o *absObj) unknownCell() *cell {
	if o.unknown == nil {
		o.unknown = newCell()
	}
	return o.unknown
}

func (o *absObj) elemCell() *cell {
	if o.elems == nil {
		o.elems = newCell()
	}
	return o.elems
}

func (o *absObj) field(name string) *cell {
	c, ok := o.fields[name]
	if !ok {
		c = newCell()
		if o.fields == nil {
			o.fields = make(map[string]*cell, 4)
		}
		o.fields[name] = c
	}
	return c
}

// fieldNames returns the known field names sorted, for deterministic
// iteration.
func (o *absObj) fieldNames() []string {
	out := make([]string, 0, len(o.fields))
	for n := range o.fields {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (o *absObj) addProto(p *absObj) bool {
	protos, added := o.protos.with(int32(p.id))
	o.protos = protos
	return added
}
