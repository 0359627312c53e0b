package ricjs

import (
	"testing"

	"ricjs/internal/workloads"
)

// TestTracingNeutralOnAllWorkloads gates tracing as pure observation: with
// a trace buffer attached, every workload must produce byte-identical
// output and identical profiler statistics to the untraced run. Both
// conventional and record-reuse runs are checked; the reuse leg also
// covers the traced preload and validation paths.
func TestTracingNeutralOnAllWorkloads(t *testing.T) {
	var totalEvents uint64
	for _, p := range workloads.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			src := p.Source()
			cache := NewCodeCache()

			runOne := func(traced bool, rec *Record) *Engine {
				t.Helper()
				opts := Options{Cache: cache, Record: rec, AddressSeed: 7}
				if traced {
					opts.Trace = NewTrace(0)
				}
				e := NewEngine(opts)
				if err := e.Run(p.Script, src); err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				return e
			}

			initial := runOne(false, nil)
			rec := initial.ExtractRecord(p.Script)

			for _, leg := range []struct {
				name string
				rec  *Record
			}{
				{"conventional", nil},
				{"reuse", rec},
			} {
				off := runOne(false, leg.rec)
				on := runOne(true, leg.rec)
				if off.Output() != on.Output() {
					t.Errorf("%s: output diverged with tracing on", leg.name)
				}
				if so, st := off.Stats(), on.Stats(); so != st {
					t.Errorf("%s: accounting diverged\noff: %+v\non:  %+v", leg.name, so, st)
				}
				totalEvents += on.Trace().Len()
			}
		})
	}
	if totalEvents == 0 {
		t.Error("no workload traced an event; the gate is vacuous")
	}
}
