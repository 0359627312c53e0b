package codecache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ricjs/internal/bytecode"
	"ricjs/internal/progen"
)

// FuzzCompile feeds arbitrary source through the front end — parse plus
// compile, via the cache — which must return a program or an error and
// never panic or exhaust the stack. A returned program must decode
// cleanly instruction by instruction, and loading the same source again
// must hit the cache.
func FuzzCompile(f *testing.F) {
	// Nesting seeds sit well past the parser's depth limit, one per
	// recursive production and per loop-built chain.
	const n = 5000
	for _, src := range []string{
		"var x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";",
		"var x = " + strings.Repeat("[", n) + "1" + strings.Repeat("]", n) + ";",
		"var x = " + strings.Repeat("{a: ", n) + "1" + strings.Repeat("}", n) + ";",
		strings.Repeat("{", n) + "x;" + strings.Repeat("}", n),
		"var x = " + strings.Repeat("!", n) + "1;",
		"var x = " + strings.Repeat("- ", n) + "1;",
		strings.Repeat("if (x) ", n) + "x;",
		"var g = " + strings.Repeat("function f() { return ", n) + "1" + strings.Repeat("; }", n) + ";",
		"var x = 1" + strings.Repeat(" + 1", n) + ";",
		"var x = f" + strings.Repeat("()", n) + ";",
		progen.New(1).Program(),
	} {
		f.Add(src)
	}
	scripts, _ := filepath.Glob("../../testdata/*.js")
	for _, path := range scripts {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		c := New()
		prog, err := c.Load("fuzz.js", src)
		if err != nil {
			return
		}
		prog.Toplevel.WalkProtos(func(p *bytecode.FuncProto) {
			pc := 0
			for pc < len(p.Code) {
				op := bytecode.Op(p.Code[pc])
				if int(op) >= bytecode.NumOps {
					t.Fatalf("%s: bad opcode %d at %d", p.FunctionName(), op, pc)
				}
				pc += 1 + op.OperandCount()
			}
			if pc != len(p.Code) {
				t.Fatalf("%s: last instruction overruns the code", p.FunctionName())
			}
		})
		again, err := c.Load("fuzz.js", src)
		if err != nil || again != prog {
			t.Fatalf("second load: %p, %v; want the cached %p", again, err, prog)
		}
	})
}
