package analysis

import (
	"slices"
	"testing"

	"ricjs/internal/objects"
)

// allSlotTypes enumerates every element of the slot-type lattice,
// including ⊤ and ⊥.
var allSlotTypes = []objects.SlotType{
	objects.SlotTypeNone,
	objects.SlotTypeSmallInt,
	objects.SlotTypeFloat,
	objects.SlotTypeString,
	objects.SlotTypeBoolean,
	objects.SlotTypeObject,
	objects.SlotTypeNullUndef,
	objects.SlotTypeBottom,
}

// TestSlotTypeLatticeLaws checks the order axioms and the lub/glb laws
// over the full element set. The typed-shape pipeline leans on all of
// them: Join at dataflow merge points, Meet for claim intersection, Leq
// as the soundness order riclint verifies records against.
func TestSlotTypeLatticeLaws(t *testing.T) {
	top, bot := objects.SlotTypeNone, objects.SlotTypeBottom
	for _, a := range allSlotTypes {
		if !a.Leq(a) {
			t.Errorf("Leq not reflexive at %s", a)
		}
		if !a.Leq(top) {
			t.Errorf("%s ⋢ ⊤", a)
		}
		if !bot.Leq(a) {
			t.Errorf("⊥ ⋢ %s", a)
		}
		if got := a.Join(top); got != top {
			t.Errorf("%s ⊔ ⊤ = %s, want ⊤", a, got)
		}
		if got := a.Join(bot); got != a {
			t.Errorf("%s ⊔ ⊥ = %s, want %s", a, got, a)
		}
		if got := a.Meet(top); got != a {
			t.Errorf("%s ⊓ ⊤ = %s, want %s", a, got, a)
		}
		if got := a.Meet(bot); got != bot {
			t.Errorf("%s ⊓ ⊥ = %s, want ⊥", a, got)
		}
		if got := a.Join(a); got != a {
			t.Errorf("join not idempotent at %s", a)
		}
		for _, b := range allSlotTypes {
			if a.Leq(b) && b.Leq(a) && a != b {
				t.Errorf("Leq not antisymmetric: %s and %s", a, b)
			}
			j, m := a.Join(b), a.Meet(b)
			if j != b.Join(a) {
				t.Errorf("join not commutative: %s ⊔ %s", a, b)
			}
			if m != b.Meet(a) {
				t.Errorf("meet not commutative: %s ⊓ %s", a, b)
			}
			if !a.Leq(j) || !b.Leq(j) {
				t.Errorf("%s ⊔ %s = %s is not an upper bound", a, b, j)
			}
			if !m.Leq(a) || !m.Leq(b) {
				t.Errorf("%s ⊓ %s = %s is not a lower bound", a, b, m)
			}
			// Least upper bound: every other upper bound is above the join.
			for _, u := range allSlotTypes {
				if a.Leq(u) && b.Leq(u) && !j.Leq(u) {
					t.Errorf("%s ⊔ %s = %s is not least (%s is a smaller upper bound)", a, b, j, u)
				}
				if u.Leq(a) && u.Leq(b) && !u.Leq(m) {
					t.Errorf("%s ⊓ %s = %s is not greatest (%s is a larger lower bound)", a, b, m, u)
				}
			}
			for _, c := range allSlotTypes {
				if a.Leq(b) && b.Leq(c) && !a.Leq(c) {
					t.Errorf("Leq not transitive: %s ⊑ %s ⊑ %s", a, b, c)
				}
				if a.Join(b).Join(c) != a.Join(b.Join(c)) {
					t.Errorf("join not associative at (%s, %s, %s)", a, b, c)
				}
				if a.Meet(b).Meet(c) != a.Meet(b.Meet(c)) {
					t.Errorf("meet not associative at (%s, %s, %s)", a, b, c)
				}
			}
		}
	}
	// The single non-trivial chain.
	if !objects.SlotTypeSmallInt.Leq(objects.SlotTypeFloat) {
		t.Error("SmallInt ⋢ Float")
	}
	if objects.SlotTypeFloat.Leq(objects.SlotTypeSmallInt) {
		t.Error("Float ⊑ SmallInt")
	}
	if got := objects.SlotTypeSmallInt.Join(objects.SlotTypeFloat); got != objects.SlotTypeFloat {
		t.Errorf("SmallInt ⊔ Float = %s, want float", got)
	}
	// Unrelated concrete types only meet at the bounds.
	if got := objects.SlotTypeString.Join(objects.SlotTypeBoolean); got != objects.SlotTypeNone {
		t.Errorf("string ⊔ boolean = %s, want ⊤", got)
	}
	if got := objects.SlotTypeString.Meet(objects.SlotTypeObject); got != objects.SlotTypeBottom {
		t.Errorf("string ⊓ object = %s, want ⊥", got)
	}
}

// absEq compares abstract values by mutual ⊑ — joins may or may not share
// an operand's object set, so structural equality is the wrong notion.
func absEq(a, b absVal) bool { return a.leq(b) && b.leq(a) }

// TestAbsValJoinLaws checks the abstract-value join over a structured
// sample: primitives, single objects, object sets, mixes, ⊤, and ⊥.
func TestAbsValJoinLaws(t *testing.T) {
	o1 := &absObj{id: 1, label: "site-a", self: idSet{1}}
	o2 := &absObj{id: 2, label: "site-b", self: idSet{2}}
	sample := []absVal{
		{},
		topVal,
		primVal(pInt),
		primVal(pFlo),
		primVal(pNum),
		primVal(pStr),
		primVal(pBool),
		primVal(pUndef | pNull),
		primVal(pInt | pStr),
		objVal(o1),
		objVal(o2),
		objVal(o1).join(objVal(o2)),
		objVal(o1).join(primVal(pInt)),
	}
	for _, a := range sample {
		if !absEq(a.join(a), a) {
			t.Errorf("join not idempotent at %v", a)
		}
		if !absEq(a.join(topVal), topVal) {
			t.Errorf("%v ⊔ ⊤ is not ⊤", a)
		}
		if !absEq(a.join(absVal{}), a) {
			t.Errorf("⊥ is not a join identity at %v", a)
		}
		if !a.leq(topVal) {
			t.Errorf("%v ⋢ ⊤", a)
		}
		if !(absVal{}).leq(a) {
			t.Errorf("⊥ ⋢ %v", a)
		}
		for _, b := range sample {
			j := a.join(b)
			if !absEq(j, b.join(a)) {
				t.Errorf("join not commutative: %v ⊔ %v", a, b)
			}
			if !a.leq(j) || !b.leq(j) {
				t.Errorf("%v ⊔ %v is not an upper bound", a, b)
			}
			for _, c := range sample {
				if !absEq(a.join(b).join(c), a.join(b.join(c))) {
					t.Errorf("join not associative at (%v, %v, %v)", a, b, c)
				}
			}
		}
	}
	// Joining distinct objects keeps both identities (no silent widening)…
	both := objVal(o1).join(objVal(o2))
	if both.top || len(both.objs) != 2 || !slices.Contains(both.objs, 1) || !slices.Contains(both.objs, 2) {
		t.Fatalf("object join lost identities: %v", both)
	}
	// …and still collapses to one Object claim for typed shapes.
	if got := slotTypeOf(both); got != objects.SlotTypeObject {
		t.Errorf("slotTypeOf(obj ⊔ obj) = %s, want object", got)
	}
}

// TestSlotTypeOfCollapse pins the absVal → SlotType collapse table: the
// bridge between the dataflow lattice and the claims that ship in
// records.
func TestSlotTypeOfCollapse(t *testing.T) {
	o1 := &absObj{id: 1, self: idSet{1}}
	cases := []struct {
		name string
		v    absVal
		want objects.SlotType
	}{
		{"top", topVal, objects.SlotTypeNone},
		{"bottom", absVal{}, objects.SlotTypeBottom},
		{"smallint", primVal(pInt), objects.SlotTypeSmallInt},
		{"float", primVal(pFlo), objects.SlotTypeFloat},
		{"any-number", primVal(pNum), objects.SlotTypeFloat},
		{"string", primVal(pStr), objects.SlotTypeString},
		{"boolean", primVal(pBool), objects.SlotTypeBoolean},
		{"undefined", primVal(pUndef), objects.SlotTypeNullUndef},
		{"null-or-undef", primVal(pNull | pUndef), objects.SlotTypeNullUndef},
		{"object", objVal(o1), objects.SlotTypeObject},
		{"number-or-string", primVal(pInt | pStr), objects.SlotTypeNone},
		{"object-or-number", objVal(o1).join(primVal(pFlo)), objects.SlotTypeNone},
		{"number-or-null", primVal(pFlo | pNull), objects.SlotTypeNone},
	}
	for _, c := range cases {
		if got := slotTypeOf(c.v); got != c.want {
			t.Errorf("%s: slotTypeOf = %s, want %s", c.name, got, c.want)
		}
	}
	// Monotonicity: collapsing after a join never claims more than
	// collapsing before it.
	for _, a := range cases {
		for _, b := range cases {
			joined := slotTypeOf(a.v.join(b.v))
			if !slotTypeOf(a.v).Leq(joined) || !slotTypeOf(b.v).Leq(joined) {
				t.Errorf("collapse not monotone over join: %s ⊔ %s → %s", a.name, b.name, joined)
			}
		}
	}
}
