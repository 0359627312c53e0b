package vm

import (
	"testing"

	"ricjs/internal/bytecode"
	"ricjs/internal/source"
)

// TestSlotForResolvesPerProgram registers two scripts in one VM whose
// functions and access sites sit at the same line:column positions. Each
// site must resolve to the slot its own program's code uses, and each
// declaration to its own program's proto, in the order the scripts were
// registered or the reverse.
func TestSlotForResolvesPerProgram(t *testing.T) {
	src := `function P(x) { this.x = x; }
function get(o) { return o.x; }
var p = new P(1); print(get(p));`
	for _, order := range [][]string{{"a.js", "b.js"}, {"b.js", "a.js"}} {
		v := New(Options{AddressSeed: 1})
		progs := make([]*bytecode.Program, len(order))
		for i, script := range order {
			progs[i] = compileFor(t, script, src)
			if _, err := v.RunProgram(progs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, prog := range progs {
			v.RegisterProgram(prog) // a second registration is a no-op
			sites, decls := 0, 0
			for _, p := range prog.Layout().Protos {
				vec := v.feedback[p]
				for j := range p.Sites {
					site := p.Sites[j].Site
					if site.Script != prog.Script {
						t.Fatalf("%s: site %s names another script", prog.Script, site)
					}
					if got := v.SlotFor(site); got != &vec.Slots[j] {
						t.Errorf("%v: SlotFor(%s) is not %s's slot %d", order, site, p.FunctionName(), j)
					}
					sites++
				}
				if !p.DeclPos.IsZero() {
					if got := v.FuncProtoAt(source.Site{Script: p.Script, Pos: p.DeclPos}); got != p {
						t.Errorf("%v: FuncProtoAt(%s@%s) resolved to another proto", order, p.FunctionName(), p.DeclPos)
					}
					decls++
				}
			}
			if sites == 0 || decls != 2 {
				t.Fatalf("%s: %d sites, %d declarations; want sites and 2 declarations", prog.Script, sites, decls)
			}
		}
		if got, want := len(v.Vectors()), 2*len(progs[0].Layout().Protos); got != want {
			t.Errorf("%v: %d vectors, want %d", order, got, want)
		}
		if v.Output() != "1\n1\n" {
			t.Errorf("%v: output %q", order, v.Output())
		}
		if v.SlotFor(source.Site{Script: "c.js", Pos: source.Pos{Line: 2, Col: 26}}) != nil {
			t.Error("SlotFor resolved a site of an unregistered script")
		}
	}
}
