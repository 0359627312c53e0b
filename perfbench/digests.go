package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"strings"

	"ricjs"
	"ricjs/internal/workloads"
)

// digests.txt holds, for each workload profile, the SHA-256 of the print
// output of a plain Conventional run: "<profile> <hex digest>" per line.
// Profile sessions are checked against it, a reference the benchmark run
// does not compute itself.
//
//go:embed digests.txt
var digestFile string

func loadDigests() (map[string][sha256.Size]byte, error) {
	out := map[string][sha256.Size]byte{}
	sc := bufio.NewScanner(strings.NewReader(digestFile))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("digests.txt: malformed line %q", sc.Text())
		}
		b, err := hex.DecodeString(f[1])
		if err != nil || len(b) != sha256.Size {
			return nil, fmt.Errorf("digests.txt: bad digest for %s", f[0])
		}
		var d [sha256.Size]byte
		copy(d[:], b)
		out[f[0]] = d
	}
	return out, sc.Err()
}

// writeDigestFile regenerates digests.txt from Conventional runs of the
// profiles. Run it only when a profile's expected output changes on
// purpose:
//
//	cd perfbench && go run . --write-digests digests.txt
func writeDigestFile(path string) error {
	var b strings.Builder
	for _, p := range workloads.Profiles {
		eng := ricjs.NewEngine(ricjs.Options{})
		if err := eng.Run(p.Script, p.Source()); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		d := sha256.Sum256([]byte(eng.Output()))
		fmt.Fprintf(&b, "%s %s\n", p.Name, hex.EncodeToString(d[:]))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
