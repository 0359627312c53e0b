package ricjs_test

import (
	"strings"
	"sync"
	"testing"

	"ricjs"
)

// TestSessionPoolDeepNestingFailsAlone serves pathologically nested
// scripts, 100,000 levels deep, concurrently with ordinary sessions. The
// deep sessions must each fail with a syntax error; every other session
// must complete with byte-identical output, and the pool must keep
// serving afterwards.
func TestSessionPoolDeepNestingFailsAlone(t *testing.T) {
	const (
		nkeys    = 3
		sessions = 18
		n        = 100_000
	)
	want := sequentialOutputs(t, nkeys)
	deep := []string{
		"var x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";",
		"var x = 1" + strings.Repeat(" + 1", n) + ";",
		strings.Repeat("if (x) ", n) + "x;",
	}

	pool := ricjs.NewSessionPool(ricjs.PoolOptions{WaitForRecord: true})
	type outcome struct {
		key string
		res *ricjs.SessionResult
		err error
	}
	results := make([]outcome, sessions+2*len(deep))
	var wg sync.WaitGroup
	serve := func(i int, key string, script ricjs.SessionScript) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pool.Serve(ricjs.SessionRequest{Key: key, Scripts: []ricjs.SessionScript{script}})
			results[i] = outcome{key, res, err}
		}()
	}
	for s := 0; s < sessions; s++ {
		key, script, src := poolLib(s % nkeys)
		serve(s, key, ricjs.SessionScript{Name: script, Src: src})
	}
	// Two sessions per deep script share a key, so one of them meets the
	// failure as the extraction owner and the other as a contender.
	for i, src := range deep {
		key := "deep" + strings.Repeat("x", i)
		serve(sessions+2*i, key, ricjs.SessionScript{Name: "deep.js", Src: src})
		serve(sessions+2*i+1, key, ricjs.SessionScript{Name: "deep.js", Src: src})
	}
	wg.Wait()

	for i, o := range results {
		if i >= sessions {
			if o.err == nil || !strings.Contains(o.err.Error(), "nesting exceeds") {
				t.Errorf("deep session %d (%s): got %v, want a nesting syntax error", i, o.key, o.err)
			}
			continue
		}
		if o.err != nil {
			t.Fatalf("session %d (%s): %v", i, o.key, o.err)
		}
		if o.res.Output != want[o.key] {
			t.Fatalf("session %d (%s): output %q, want %q", i, o.key, o.res.Output, want[o.key])
		}
	}
	if stats := pool.Stats(); stats.Extractions != nkeys {
		t.Fatalf("Extractions = %d, want %d", stats.Extractions, nkeys)
	}

	key, script, src := poolLib(0)
	res, err := pool.Serve(ricjs.SessionRequest{Key: key, Scripts: []ricjs.SessionScript{{Name: script, Src: src}}})
	if err != nil {
		t.Fatalf("pool after deep sessions: %v", err)
	}
	if res.Output != want[key] {
		t.Fatalf("pool after deep sessions: output %q, want %q", res.Output, want[key])
	}
}

// TestSessionPoolDeepJSONFailsAlone serves a script that hands JSON.parse
// a document nested 8,388,608 levels deep, next to 8 concurrent ordinary
// sessions. The deep session must fail with the parser's nesting error
// (thrown, not a stack overflow), a variant that catches the error must
// complete, and every ordinary session must keep byte-identical output.
func TestSessionPoolDeepJSONFailsAlone(t *testing.T) {
	const (
		nkeys    = 4
		sessions = 8
	)
	want := sequentialOutputs(t, nkeys)
	deep := `var s = "["; for (var i = 0; i < 23; i++) s = s + s; `
	uncaught := deep + `JSON.parse(s);`
	caught := deep + `try { JSON.parse(s); } catch (e) { print("caught " + s.length); }`

	pool := ricjs.NewSessionPool(ricjs.PoolOptions{WaitForRecord: true})
	type outcome struct {
		res *ricjs.SessionResult
		err error
	}
	results := make([]outcome, sessions+2)
	var wg sync.WaitGroup
	serve := func(i int, key string, script ricjs.SessionScript) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pool.Serve(ricjs.SessionRequest{Key: key, Scripts: []ricjs.SessionScript{script}})
			results[i] = outcome{res, err}
		}()
	}
	for s := 0; s < sessions; s++ {
		key, script, src := poolLib(s % nkeys)
		serve(s, key, ricjs.SessionScript{Name: script, Src: src})
	}
	serve(sessions, "deepjson", ricjs.SessionScript{Name: "deep.js", Src: uncaught})
	serve(sessions+1, "deepjson-caught", ricjs.SessionScript{Name: "caught.js", Src: caught})
	wg.Wait()

	for s := 0; s < sessions; s++ {
		key, _, _ := poolLib(s % nkeys)
		o := results[s]
		if o.err != nil {
			t.Fatalf("session %d (%s): %v", s, key, o.err)
		}
		if o.res.Output != want[key] {
			t.Fatalf("session %d (%s): output %q, want %q", s, key, o.res.Output, want[key])
		}
	}
	if o := results[sessions]; o.err == nil || !strings.Contains(o.err.Error(), "JSON.parse: nesting exceeds") {
		t.Errorf("deep JSON session: got %v, want a JSON.parse nesting error", o.err)
	}
	if o := results[sessions+1]; o.err != nil || o.res.Output != "caught 8388608\n" {
		t.Errorf("deep JSON session with catch: got %v, %+v; want output %q", o.err, o.res, "caught 8388608\n")
	}
}
