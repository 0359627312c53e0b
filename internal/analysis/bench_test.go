package analysis_test

import (
	"testing"

	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/workloads"
)

// BenchmarkAnalyze times whole-program analysis of the two largest
// library profiles and of a fixed progen sweep (one op analyzes all 50
// programs). Run with -benchmem; compilation stays outside the timer.
//
//	go test ./internal/analysis -run '^$' -bench Analyze -benchmem
func BenchmarkAnalyze(b *testing.B) {
	for _, name := range []string{"React", "jQuery"} {
		p, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("no profile %q", name)
		}
		prog := compile(b, p.Script, p.Source())
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analysis.Analyze(prog)
			}
		})
	}
	var sweep []*bytecode.Program
	for seed := 0; seed < 50; seed++ {
		name, src := progenScript(seed)
		sweep = append(sweep, compile(b, name, src))
	}
	b.Run("progen50", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, prog := range sweep {
				analysis.Analyze(prog)
			}
		}
	})
}
