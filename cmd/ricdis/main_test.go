package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden listings")

// listingGolden runs ricdis over the point fixture and compares the
// listing against testdata/<golden>, rewriting it under -update.
func listingGolden(t *testing.T, analyze bool, golden string) []byte {
	t.Helper()
	var out, errw bytes.Buffer
	if rc := run(&out, &errw, false, analyze, []string{"../../testdata/point.js"}); rc != 0 {
		t.Fatalf("ricdis failed (rc %d): %s", rc, errw.String())
	}
	if errw.Len() != 0 {
		t.Fatalf("unexpected warnings: %s", errw.String())
	}
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("listing drifted from %s (rerun with -update if deliberate):\n--- got ---\n%s\n--- want ---\n%s", golden, out.Bytes(), want)
	}
	return out.Bytes()
}

// TestAnalyzeGolden pins the -analyze listing for the point fixture: site
// order, shape-id order, and the typed-slot annotations are all
// deterministic, so the listing is byte-stable. Regenerate deliberately:
//
//	go test ./cmd/ricdis -run TestAnalyzeGolden -update
func TestAnalyzeGolden(t *testing.T) {
	out := listingGolden(t, true, "point-analyze.golden")
	// The listing must actually exercise the typed annotations — an empty
	// match would pass vacuously if inference silently stopped producing
	// claims.
	if !bytes.Contains(out, []byte(":float")) && !bytes.Contains(out, []byte(":smallint")) {
		t.Fatal("golden listing contains no typed-slot annotations")
	}
}

// TestDisassembleGolden pins the default listing for the same fixture:
// bytecode with operand annotations, then each function's site table.
// Regenerate deliberately:
//
//	go test ./cmd/ricdis -run TestDisassembleGolden -update
func TestDisassembleGolden(t *testing.T) {
	out := listingGolden(t, false, "point-disasm.golden")
	for _, marker := range []string{"function <main>", "sites of <main>:", "LoadNamed"} {
		if !bytes.Contains(out, []byte(marker)) {
			t.Fatalf("listing contains no %q:\n%s", marker, out)
		}
	}
}
