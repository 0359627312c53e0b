package parser

import (
	"strings"
	"testing"
)

// deepNesting is far past maxNesting: each input below would need
// hundreds of thousands of recursive parser or compiler frames without
// the bound.
const deepNesting = 100_000

// deepNestingInputs returns one pathologically nested script per
// recursive production of the grammar, plus the left-nested chains a
// loop builds, each deepNesting levels deep.
func deepNestingInputs() map[string]string {
	n := deepNesting
	fns := strings.Repeat("function f() { return ", n) + "1" + strings.Repeat("; }", n)
	return map[string]string{
		"parens":    "var x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";",
		"arrays":    "var x = " + strings.Repeat("[", n) + "1" + strings.Repeat("]", n) + ";",
		"objects":   "var x = " + strings.Repeat("{a: ", n) + "1" + strings.Repeat("}", n) + ";",
		"blocks":    strings.Repeat("{", n) + "x;" + strings.Repeat("}", n),
		"not":       "var x = " + strings.Repeat("!", n) + "1;",
		"negate":    "var x = " + strings.Repeat("- ", n) + "1;",
		"assign":    strings.Repeat("x = ", n) + "1;",
		"ternary":   strings.Repeat("x ? 1 : ", n) + "1;",
		"ifs":       strings.Repeat("if (x) ", n) + "x;",
		"functions": "var g = " + fns + ";",
		"sum chain": "var x = 1" + strings.Repeat(" + 1", n) + ";",
		"members":   "var x = a" + strings.Repeat(".b", n) + ";",
		"calls":     "var x = f" + strings.Repeat("()", n) + ";",
		"indexes":   "var x = a" + strings.Repeat("[0]", n) + ";",
	}
}

// TestDeepNestingIsSyntaxError feeds every deep input to the parser: each
// must come back as an ordinary positioned syntax error naming the limit,
// not a crash.
func TestDeepNestingIsSyntaxError(t *testing.T) {
	for name, src := range deepNestingInputs() {
		_, err := Parse(name+".js", src)
		perr, ok := err.(*Error)
		if !ok {
			t.Errorf("%s: got %v, want a *parser.Error", name, err)
			continue
		}
		if !strings.Contains(perr.Msg, "nesting exceeds") {
			t.Errorf("%s: error %q does not name the nesting limit", name, perr.Msg)
		}
	}
}

// TestNestingAtLimitParses checks the bound is a depth limit, not a
// size limit: inputs just inside it parse, and long flat inputs of any
// length are unaffected.
func TestNestingAtLimitParses(t *testing.T) {
	// Each paren costs one level, on top of the statement and the
	// initializer.
	inside := maxNesting - 2
	src := "var x = " + strings.Repeat("(", inside) + "1" + strings.Repeat(")", inside) + ";"
	if _, err := Parse("inside.js", src); err != nil {
		t.Fatalf("%d parens: %v", inside, err)
	}
	over := maxNesting - 1
	src = "var x = " + strings.Repeat("(", over) + "1" + strings.Repeat(")", over) + ";"
	if _, err := Parse("over.js", src); err == nil {
		t.Fatalf("%d parens parsed past the limit", over)
	}
	flat := "var x = 0;" + strings.Repeat("x = x + 1;", deepNesting)
	if _, err := Parse("flat.js", flat); err != nil {
		t.Fatalf("flat script: %v", err)
	}
	// A chain costs one level per link on top of the statement, the
	// initializer and its first operand.
	links := maxNesting - 4
	chain := "var x = 1" + strings.Repeat(" + 1", links) + ";"
	if _, err := Parse("chain.js", chain); err != nil {
		t.Fatalf("%d-link chain: %v", links, err)
	}
}
