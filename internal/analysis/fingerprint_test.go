package analysis_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"ricjs"
	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/progen"
	"ricjs/internal/ric"
	"ricjs/internal/workloads"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.golden")

// fingerprintProgenSeeds is the progen seed range the golden covers.
const fingerprintProgenSeeds = 200

// dumpResult renders everything an analysis Result publishes in a
// canonical text form: the global ⊤ bit, every site's verdict with its
// shape ids, and every shape's parent, fields, creators and slot types.
// Two Results with equal dumps are interchangeable for every consumer.
func dumpResult(res *analysis.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "globalTop %v\n", res.GlobalTop())
	for _, p := range res.Sites() {
		fmt.Fprintf(&b, "site %s %s %q", p.Site, p.Kind, p.Name)
		switch {
		case p.Dead:
			b.WriteString(" dead")
		case p.Top:
			b.WriteString(" top")
		default:
			b.WriteString(" shapes")
			for _, s := range p.Shapes {
				fmt.Fprintf(&b, " %d", s.ID)
			}
		}
		fmt.Fprintf(&b, " mr=%v md=%v\n", p.MegamorphicRisk, p.MaybeDictionary)
	}
	for _, s := range res.Graph().Shapes() {
		parent := -1
		if s.Parent != nil {
			parent = s.Parent.ID
		}
		fmt.Fprintf(&b, "shape %d parent=%d fields=%q creators=%q slots=%v\n",
			s.ID, parent, s.Fields, s.CreatorList(), res.SlotTypes(s))
	}
	return b.String()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func progenScript(seed int) (name, src string) {
	return fmt.Sprintf("progen-%d.js", seed), progen.New(uint64(seed)).Program()
}

// fingerprints computes the golden's entries: a Result digest for every
// workload profile and progen seed, and an encoded-record digest for
// every profile (the record carries the analysis' typed-slot claims).
func fingerprints(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, p := range workloads.Profiles {
		src := p.Source()
		res := analysis.Analyze(compile(t, p.Script, src))
		out[p.Name] = digest(dumpResult(res))
		eng := ricjs.NewEngine(ricjs.Options{})
		if err := eng.Run(p.Script, src); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		// Engine.ExtractRecord attaches no claims; attach them here so the
		// digest pins the analysis' typed-slot claims too.
		rec := ric.Extract(eng.VM(), p.Name, ric.Config{})
		rec.AttachTypedShapes(res)
		sum := sha256.Sum256(rec.Encode())
		out[p.Name+".record"] = hex.EncodeToString(sum[:])
	}
	for seed := 0; seed < fingerprintProgenSeeds; seed++ {
		name, src := progenScript(seed)
		out[strings.TrimSuffix(name, ".js")] = digest(dumpResult(analysis.Analyze(compile(t, name, src))))
	}
	return out
}

// TestAnalysisFingerprints is the gate that a change to the analyzer's
// internals leaves its output alone: every input's canonical Result dump,
// and every profile's encoded record, must hash to the committed digest.
// Regenerate only for a deliberate change in analysis output:
//
//	go test ./internal/analysis -run TestAnalysisFingerprints -update
func TestAnalysisFingerprints(t *testing.T) {
	got := fingerprints(t)
	golden := filepath.Join("testdata", "fingerprints.golden")
	if *updateFingerprints {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var buf bytes.Buffer
		for _, n := range names {
			fmt.Fprintf(&buf, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", golden, sc.Text())
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, the inputs give %d", len(want), len(got))
	}
	for n, d := range got {
		if want[n] != d {
			t.Errorf("%s: digest %s, golden %s", n, d, want[n])
		}
	}
}

// TestAnalyzeDeterministic analyzes the same programs repeatedly, each
// time in a fresh analyzer, and requires identical dumps. Map iteration
// order differs between runs, so any result that depends on it shows up
// here as a mismatch. The repeats run concurrently, so under -race the
// test also checks that analyzers share the builtin seed safely.
func TestAnalyzeDeterministic(t *testing.T) {
	const runs = 4
	var progs []*bytecode.Program
	for seed := 0; seed < 60; seed++ {
		name, src := progenScript(seed)
		progs = append(progs, compile(t, name, src))
	}
	dumps := make([][]string, runs)
	var wg sync.WaitGroup
	for r := range dumps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, p := range progs {
				dumps[r] = append(dumps[r], dumpResult(analysis.Analyze(p)))
			}
		}(r)
	}
	wg.Wait()
	for r := 1; r < runs; r++ {
		for i, p := range progs {
			if dumps[r][i] != dumps[0][i] {
				t.Fatalf("%s: run %d dump differs from run 0", p.Script, r)
			}
		}
	}
}
