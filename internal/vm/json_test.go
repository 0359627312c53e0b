package vm

import (
	"fmt"
	"strings"
	"testing"

	"ricjs/internal/objects"
)

func TestJSONParsePrimitives(t *testing.T) {
	expectOut(t, `
		print(JSON.parse('1'), JSON.parse('-2.5'), JSON.parse('1e3'));
		print(JSON.parse('"hi"'), JSON.parse('true'), JSON.parse('false'), JSON.parse('null'));
		print(JSON.parse(' [1, 2, 3] ').length, JSON.parse('[]').length);
	`, "1 -2.5 1000\nhi true false null\n3 0\n")
}

func TestJSONParseObjectsUseTransitionPath(t *testing.T) {
	// Two records with the same schema must land on the SAME hidden class
	// (the whole point of routing parse through the transition tables), so
	// a reader function over a record stream stays monomorphic.
	v, _ := run(t, `
		var a = JSON.parse('{"id": 1, "name": "a"}');
		var b = JSON.parse('{"id": 2, "name": "b"}');
		var c = JSON.parse('{"id": 3}');
		print(a.id + b.id + c.id, a.name, b.name);
	`)
	if !strings.Contains(v.Output(), "6 a b") {
		t.Fatalf("output = %q", v.Output())
	}
	get := func(name string) *objects.Object {
		val, ok := v.Global().GetNamed(name)
		if !ok || val.Obj() == nil {
			t.Fatalf("global %q missing", name)
		}
		return val.Obj()
	}
	a, b, c := get("a"), get("b"), get("c")
	if a.HC() != b.HC() {
		t.Error("same-schema records got different hidden classes")
	}
	if a.HC() == c.HC() {
		t.Error("different-schema records share a hidden class")
	}
	if a.HC().Parent() != c.HC() {
		t.Error("schemas must share the transition prefix: {id,name} should descend from {id}")
	}
	if a.IsDictionary() || c.IsDictionary() {
		t.Error("parsed records must be fast-mode objects, not dictionaries")
	}
	// The creator identity is the builtin-qualified layout path, which the
	// TOAST can key context-independently.
	if got := a.HC().Creator().Builtin; got != "JSON.parse:id+name" {
		t.Errorf("creator = %q, want JSON.parse:id+name", got)
	}
	if v.Prof.Snapshot().HCCreated < 2 {
		t.Errorf("HCCreated = %d; parse transitions were not announced", v.Prof.Snapshot().HCCreated)
	}
}

func TestJSONParseNestedAndEscapes(t *testing.T) {
	expectOut(t, `
		var r = JSON.parse('{"a": {"b": [1, {"c": 2}]}, "s": "x\\ny\\u0041"}');
		print(r.a.b[0], r.a.b[1].c, r.s.length);
	`, "1 2 4\n")
}

func TestJSONParseErrors(t *testing.T) {
	for _, src := range []string{
		`JSON.parse('{')`,
		`JSON.parse('[1,]')`,
		`JSON.parse('{"a" 1}')`,
		`JSON.parse('{"a": 1} x')`,
		`JSON.parse('"unterminated')`,
		`JSON.parse('nul')`,
		`JSON.parse('01x')`,
		`JSON.parse('')`,
	} {
		if _, _, err := tryRun("print(" + src + ");"); err == nil {
			t.Errorf("%s: expected a parse error", src)
		}
	}
}

func TestJSONStringifyRoundTrip(t *testing.T) {
	expectOut(t, `
		print(JSON.stringify({id: 1, name: "a", ok: true, nil: null}));
		print(JSON.stringify([1, "two", false, null]));
		print(JSON.stringify("q\"e"), JSON.stringify(2.5), JSON.stringify(undefined));
		var back = JSON.parse(JSON.stringify({x: 1, y: [2, 3]}));
		print(back.x + back.y[1]);
	`, "{\"id\":1,\"name\":\"a\",\"ok\":true,\"nil\":null}\n[1,\"two\",false,null]\n\"q\\\"e\" 2.5 undefined\n4\n")
}

func TestJSONParseDeterministicAcrossRuns(t *testing.T) {
	// Same program, two simulated heaps: identical output and identical
	// instruction accounting — parse must never branch on addresses.
	src := `
		var total = 0;
		for (var i = 0; i < 6; i++) {
			var r = JSON.parse('{"v": ' + i + ', "w": 2}');
			total += r.v * r.w;
		}
		print(total, JSON.stringify({t: total}));
	`
	v1, out1 := run(t, src)
	v2, out2 := run(t, src)
	if out1 != out2 {
		t.Fatalf("output differs: %q vs %q", out1, out2)
	}
	if a, b := v1.Prof.Snapshot(), v2.Prof.Snapshot(); a != b {
		t.Fatalf("accounting differs:\n%+v\n%+v", a, b)
	}
}

// TestJSONParseNestingBound feeds JSON.parse documents nested far past
// maxJSONDepth. Unbounded recursion would overflow the goroutine stack
// and kill the process; instead parse throws an ordinary error that the
// script catches. A document exactly at the bound still parses.
func TestJSONParseNestingBound(t *testing.T) {
	const deep = 100_000
	for _, tc := range []struct {
		name, open, close string
		width             int // bytes per nesting level
	}{
		{"array", "[", "]", 1},
		{"object", `{"a":`, "}", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := `try { JSON.parse('` + strings.Repeat(tc.open, deep) + `1'); print("parsed"); }
				catch (e) { print(e); }`
			want := fmt.Sprintf("JSON.parse: nesting exceeds %d levels at offset %d\n", maxJSONDepth, maxJSONDepth*tc.width)
			expectOut(t, src, want)

			atBound := strings.Repeat(tc.open, maxJSONDepth) + "1" + strings.Repeat(tc.close, maxJSONDepth)
			expectOut(t, `JSON.parse('`+atBound+`'); print("parsed");`, "parsed\n")
		})
	}
}
