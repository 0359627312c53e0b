package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"ricjs"
	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/codecache"
	"ricjs/internal/ric"
)

// maxInputsPerClass bounds how many distinct inputs of one class the
// layer pass re-runs; cold_start serves thousands of progen programs, and a
// sample of them times the layers as well as all would.
const maxInputsPerClass = 16

// layerInput is one distinct session input of the traced pass, with the
// share of the pass's sessions it stands for.
type layerInput struct {
	job    *job
	weight float64
}

// layerInputs groups the traced pass's sessions by class and picks up to
// maxInputsPerClass distinct inputs of each, in session order; each
// picked input is weighted by its class's session count over the inputs
// picked.
func layerInputs(samples []sample) []layerInput {
	byIdx := append([]sample(nil), samples...)
	sortByIdx(byIdx)
	count := map[string]int{}
	picked := map[string][]*job{}
	seen := map[*job]bool{}
	var classes []string
	for i := range byIdx {
		j := byIdx[i].job
		if count[j.class] == 0 {
			classes = append(classes, j.class)
		}
		count[j.class]++
		if !seen[j] && len(picked[j.class]) < maxInputsPerClass {
			seen[j] = true
			picked[j.class] = append(picked[j.class], j)
		}
	}
	var out []layerInput
	for _, c := range classes {
		w := float64(count[c]) / float64(len(picked[c]))
		for _, j := range picked[c] {
			out = append(out, layerInput{job: j, weight: w})
		}
	}
	return out
}

// layerTimes is one input's measurements from the layer pass.
type layerTimes struct {
	compile, newEngine, runInitial, extract, analyze, encode,
	save, load, decode, validate, runReuse time.Duration
	srcBytes, sites, dependentSlots, recordBytes int
}

// layerPass serves each input once more, outside the pool, calling every
// layer's public function in the order a cold session and then a reuse
// session of the pool would, and times each call as a re-run span. The
// pool runs these calls inside SessionPool.Serve, where the benchmark
// cannot time them.
func layerPass(inputs []layerInput, store *ricjs.RecordStore, tr *tracer, firstSession int64) ([]layerTimes, error) {
	out := make([]layerTimes, len(inputs))
	for i, in := range inputs {
		t, err := layerRun(in.job, store, tr, firstSession+int64(i))
		if err != nil {
			return nil, fmt.Errorf("layer pass %s: %w", in.job.key, err)
		}
		out[i] = t
	}
	return out, nil
}

func layerRun(j *job, store *ricjs.RecordStore, tr *tracer, session int64) (layerTimes, error) {
	var lt layerTimes
	timed := func(name, layer string, d *time.Duration, f func() error) error {
		start := time.Now()
		err := f()
		end := time.Now()
		*d += end.Sub(start)
		tr.add(span{session: session, name: name, layer: layer, start: start, end: end, rerun: true})
		return err
	}
	key := "layer-pass/" + j.key

	// Compilation runs inside Engine.Run; a fresh cache times it alone.
	cc := codecache.New()
	progs := make([]*bytecode.Program, 0, len(j.scripts))
	for _, s := range j.scripts {
		lt.srcBytes += len(s.Src)
		err := timed("codecache.Load", "compile", &lt.compile, func() error {
			p, err := cc.Load(s.Name, s.Src)
			progs = append(progs, p)
			return err
		})
		if err != nil {
			return lt, err
		}
	}

	cache := ricjs.NewCodeCache()
	var eng *ricjs.Engine
	timed("NewEngine", "vm", &lt.newEngine, func() error {
		eng = ricjs.NewEngine(ricjs.Options{Cache: cache})
		return nil
	})
	for _, s := range j.scripts {
		if err := timed("Engine.Run initial", "vm", &lt.runInitial, func() error { return eng.Run(s.Name, s.Src) }); err != nil {
			return lt, err
		}
	}
	if sha256.Sum256([]byte(eng.Output())) != j.want {
		return lt, fmt.Errorf("initial run output differs from the reference")
	}

	var rec *ric.Record
	timed("ric.Extract", "ric.extract", &lt.extract, func() error {
		rec = ric.Extract(eng.VM(), key, ric.Config{})
		return nil
	})
	var res *analysis.Result
	timed("analysis.Analyze", "analysis", &lt.analyze, func() error {
		res = analysis.Analyze(progs...)
		return nil
	})
	rec.AttachTypedShapes(res)
	lt.sites = len(res.Sites())
	lt.dependentSlots = rec.Stats.DependentSlots

	var data []byte
	timed("Record.Encode", "ric.codec", &lt.encode, func() error {
		data = rec.Encode()
		return nil
	})
	lt.recordBytes = len(data)
	// RecordStore.Save is Encode followed by SaveBytes; timing SaveBytes
	// keeps the encode out of the store's time.
	if err := timed("RecordStore.SaveBytes", "store", &lt.save, func() error { return store.SaveBytes(key, data) }); err != nil {
		return lt, err
	}
	var loaded *ricjs.Record
	err := timed("RecordStore.Load", "store", &lt.load, func() error {
		var err error
		loaded, err = store.Load(key)
		if err == nil && loaded == nil {
			err = fmt.Errorf("saved record not found")
		}
		return err
	})
	if err != nil {
		return lt, err
	}
	if err := timed("DecodeRecord", "ric.codec", &lt.decode, func() error {
		_, err := ricjs.DecodeRecord(data)
		return err
	}); err != nil {
		return lt, err
	}
	if err := timed("Record.Validate", "ric.reuse", &lt.validate, func() error { return rec.Validate(progs...) }); err != nil {
		return lt, err
	}

	var reuse *ricjs.Engine
	timed("NewEngine", "vm", &lt.newEngine, func() error {
		reuse = ricjs.NewEngine(ricjs.Options{Cache: cache, Record: loaded})
		return nil
	})
	for _, s := range j.scripts {
		if err := timed("Engine.Run reuse", "vm", &lt.runReuse, func() error { return reuse.Run(s.Name, s.Src) }); err != nil {
			return lt, err
		}
	}
	if sha256.Sum256([]byte(reuse.Output())) != j.want {
		return lt, fmt.Errorf("reuse run output differs from the reference")
	}
	if degraded, cause := reuse.Degraded(); degraded {
		return lt, fmt.Errorf("reuse run degraded: %v", cause)
	}
	// Two engines per input: the per-call time is half the sum.
	lt.newEngine /= 2
	return lt, nil
}
