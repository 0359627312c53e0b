// Command perfbench is the repository's benchmark. It serves one seeded
// session workload through the public ricjs.SessionPool, checks every
// session's output, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1) as the last line of its
// standard output. See README.md in this directory for the workloads,
// the metrics and how each layer maps to them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ricjs"
)

// sloLimit is the session latency limit slo_met_ratio counts against.
const sloLimit = 50 * time.Millisecond

// setupReps is how many times each run sets its workload up; setup_s is
// the median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "hot_reuse, cold_start or zipf_open")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "how long one pass measures")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for record stores and trace exports")
	writeDigests := flag.String("write-digests", "", "write the profiles' reference output digests to this file and exit")
	flag.Parse()

	if *writeDigests != "" {
		if err := writeDigestFile(*writeDigests); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
	}
	digests, err := loadDigests()
	if err != nil {
		fatal(err)
	}
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		clients: clients,
		dir:     filepath.Join(*out, fmt.Sprintf("stores-%d", os.Getpid())),
		digests: digests,
	}
	defer os.RemoveAll(e.dir)

	var w workload
	switch *name {
	case "hot_reuse":
		w = &hotReuse{e: e}
	case "cold_start":
		w = &coldStart{e: e}
	case "zipf_open":
		w = &zipfOpen{e: e}
	default:
		fatal(fmt.Errorf("unknown workload %q (want hot_reuse, cold_start or zipf_open)", *name))
	}

	res, err := run(w, *name, e, *traced == 1, *out)
	if err != nil {
		os.RemoveAll(e.dir)
		fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.RemoveAll(e.dir)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// pass is one measured pass over a fresh pool.
type pass struct {
	lr         loopResult
	use        usage
	peakRSS    uint64
	cpu        []cpuReading
	pool       ricjs.PoolStats
	violations []string
	wall       time.Duration
	failed     int
}

func measurePass(w workload, tr *tracer) pass {
	settle()
	pool := w.pool()
	s0 := pool.Stats()
	u0 := readUsage()
	mon := startMonitor()
	lr, bad := w.run(poolServer(pool, tr))
	peak, cpu := mon.finish()
	u1 := readUsage()
	p := pass{lr: lr, use: u1.sub(u0), peakRSS: peak, cpu: cpu, pool: poolDelta(pool.Stats(), s0), violations: bad}
	last := lr.origin
	for i := range lr.samples {
		s := &lr.samples[i]
		if s.end.After(last) {
			last = s.end
		}
		if s.failure != "" {
			p.failed++
			if p.failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: session %d (%s): %s\n", s.idx, s.job.key, s.failure)
			}
		}
	}
	p.wall = last.Sub(lr.origin)
	if n := len(lr.samples) - p.failed; n < minSessions {
		p.violations = append(p.violations, fmt.Sprintf("only %d sessions completed, want at least %d", n, minSessions))
	}
	return p
}

// poolDelta is the change in the pool counters the report uses.
func poolDelta(a, b ricjs.PoolStats) ricjs.PoolStats {
	return ricjs.PoolStats{
		Sessions:          a.Sessions - b.Sessions,
		ReuseHits:         a.ReuseHits - b.ReuseHits,
		Extractions:       a.Extractions - b.Extractions,
		WaitedSessions:    a.WaitedSessions - b.WaitedSessions,
		ConventionalRuns:  a.ConventionalRuns - b.ConventionalRuns,
		DegradedSessions:  a.DegradedSessions - b.DegradedSessions,
		ShardLockAcquires: a.ShardLockAcquires - b.ShardLockAcquires,
	}
}

func (p *pass) completed() int { return len(p.lr.samples) - p.failed }

func sortByIdx(s []sample) { sort.Slice(s, func(a, b int) bool { return s[a].idx < s[b].idx }) }

// first returns the sessions with index below minSessions: the same
// sessions for a seed whatever the timing, which makes the count metrics
// deterministic.
func (p *pass) first() []sample {
	var out []sample
	for i := range p.lr.samples {
		if p.lr.samples[i].idx < minSessions {
			out = append(out, p.lr.samples[i])
		}
	}
	sortByIdx(out)
	return out
}

func run(w workload, name string, e *env, traced bool, out string) (*result, error) {
	// The traced run does not report setup_s, so it sets up once.
	reps := setupReps
	if traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		settle()
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setupS := median(setups)

	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	p := measurePass(w, tr)
	res := &result{Attempted: len(p.lr.samples), Failed: p.failed}
	violations := p.violations
	report := &strings.Builder{}
	fmt.Fprintf(report, "perfbench %s seed %d: %d sessions in %.2f s on %d clients, failed_ratio %.4f, set-up %.3f s (median of %d)\n",
		name, e.seed, len(p.lr.samples), p.wall.Seconds(), e.clients,
		float64(p.failed)/float64(len(p.lr.samples)), setupS, reps)

	if !traced {
		recBytes, err := recordBytesPerKey(w.recordStore(), p.first())
		if err != nil {
			violations = append(violations, err.Error())
		}
		res.Metrics = endToEnd(&p, setupS, recBytes)
		writeMetrics(report, res.Metrics)
		fmt.Fprintf(report, "  %-36s %14.4f %s\n", "(session_p99_ms)", p.p99(), "ms")
		fmt.Fprintf(report, "  %-36s %14.4f %s\n", "(slo_miss_ratio)", 1-res.Metrics["slo_met_ratio"].Value, "ratio")
	} else {
		tr.addWaits(p.lr.samples)
		inputs := layerInputs(p.lr.samples)
		times, err := layerPass(inputs, w.recordStore(), tr, int64(len(p.lr.samples))+1)
		if err != nil {
			violations = append(violations, err.Error())
		} else {
			res.Metrics = perLayer(&p, tr, inputs, times)
			writeMetrics(report, res.Metrics)
			if err := writeTraceFiles(out, name, e.seed, tr, p.lr.origin, len(p.lr.samples), report); err != nil {
				return nil, err
			}
		}
	}
	for _, v := range violations {
		fmt.Fprintln(report, "self-check failed:", v)
	}
	fmt.Fprint(os.Stderr, report.String())
	res.Correct = res.Failed == 0 && len(violations) == 0 && res.Metrics != nil
	return res, nil
}

// recordBytesPerKey is the mean encoded size of the records of the keys
// the given sessions used, read back from the pool's store.
func recordBytesPerKey(store *ricjs.RecordStore, samples []sample) (float64, error) {
	seen := map[string]bool{}
	total := 0
	for i := range samples {
		k := samples[i].job.key
		if seen[k] {
			continue
		}
		seen[k] = true
		rec, err := store.Load(k)
		if err != nil {
			return 0, err
		}
		if rec == nil {
			return 0, fmt.Errorf("no stored record for key %s", k)
		}
		total += len(rec.Encode())
	}
	if len(seen) == 0 {
		return 0, fmt.Errorf("no sessions")
	}
	return float64(total) / float64(len(seen)), nil
}

// latencies returns the latencies of the completed sessions, sorted.
func (p *pass) latencies() []float64 {
	var lat []float64
	for i := range p.lr.samples {
		if s := &p.lr.samples[i]; s.failure == "" {
			lat = append(lat, ms(s.latency()))
		}
	}
	sort.Float64s(lat)
	return lat
}

// p99 is the 99th percentile of session latency. It is reported, not
// gated: see README.md for its measured spread.
func (p *pass) p99() float64 { return percentile(p.latencies(), 99) }

func endToEnd(p *pass, setupS, recBytes float64) map[string]metric {
	lat := p.latencies()
	met := 0
	for _, l := range lat {
		if l <= ms(sloLimit) {
			met++
		}
	}
	n := float64(p.completed())
	var instr float64
	first := p.first()
	for i := range first {
		instr += float64(first[i].stats.TotalInstr())
	}
	rate, p50, cpu := n/p.wall.Seconds(), percentile(lat, 50), ms(p.use.cpu)/n
	if p.lr.stationary {
		rate, p50, cpu = p.windowed()
	}
	return map[string]metric{
		"sessions_per_s":       {rate, "1/s"},
		"session_p50_ms":       {p50, "ms"},
		"slo_met_ratio":        {float64(met) / float64(len(p.lr.samples)), "ratio"},
		"cpu_ms_per_session":   {cpu, "ms"},
		"alloc_kb_per_session": {float64(p.use.allocBytes) / 1024 / n, "KB"},
		"instr_per_session":    {instr / float64(len(first)), "count"},
		"record_bytes_per_key": {recBytes, "bytes"},
		"setup_s":              {setupS, "s"},
	}
}

// windowed splits a stationary pass into the one-second windows between
// the monitor's CPU readings and returns the medians over windows of the
// session rate, the median latency and the CPU time per session. Medians
// over windows keep a few seconds of interference from other processes
// on the host out of the figures.
func (p *pass) windowed() (rate, p50, cpuPerSession float64) {
	var rates, p50s, cpus []float64
	for k := 0; k+1 < len(p.cpu); k++ {
		from, to := p.cpu[k], p.cpu[k+1]
		var lat []float64
		for i := range p.lr.samples {
			s := &p.lr.samples[i]
			if s.failure == "" && !s.end.Before(from.at) && s.end.Before(to.at) {
				lat = append(lat, ms(s.latency()))
			}
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		rates = append(rates, float64(len(lat))/to.at.Sub(from.at).Seconds())
		p50s = append(p50s, percentile(lat, 50))
		cpus = append(cpus, ms(to.cpu-from.cpu)/float64(len(lat)))
	}
	return median(rates), median(p50s), median(cpus)
}

func perLayer(tp *pass, tr *tracer, inputs []layerInput, times []layerTimes) map[string]metric {
	var wsum float64
	wmean := func(f func(t *layerTimes) float64) float64 {
		v := 0.0
		for i := range times {
			v += inputs[i].weight * f(&times[i])
		}
		return v / wsum
	}
	for _, in := range inputs {
		wsum += in.weight
	}

	var hits, misses, rest, icmiss, validations, valFail, preloads, saved float64
	for i := range tp.lr.samples {
		st := &tp.lr.samples[i].stats
		hits += float64(st.ICHits)
		misses += float64(st.ICMisses)
		rest += float64(st.InstrRest)
		icmiss += float64(st.InstrICMiss)
		validations += float64(st.Validations)
		valFail += float64(st.ValFailures)
		preloads += float64(st.Preloads)
		saved += float64(st.MissesSaved)
	}
	n := float64(len(tp.lr.samples))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var srcKB, compileMS float64
	for i := range times {
		srcKB += inputs[i].weight * float64(times[i].srcBytes) / 1024
		compileMS += inputs[i].weight * ms(times[i].compile)
	}
	ps := tp.pool
	cnt := func(v uint64) metric { return metric{float64(v), "count"} }
	return map[string]metric{
		"analysis.analyze_ms":           {wmean(func(t *layerTimes) float64 { return ms(t.analyze) }), "ms"},
		"analysis.sites":                {wmean(func(t *layerTimes) float64 { return float64(t.sites) }), "count"},
		"ric.extract_ms":                {wmean(func(t *layerTimes) float64 { return ms(t.extract) }), "ms"},
		"ric.dependent_slots":           {wmean(func(t *layerTimes) float64 { return float64(t.dependentSlots) }), "count"},
		"compile.ms":                    {wmean(func(t *layerTimes) float64 { return ms(t.compile) }), "ms"},
		"compile.src_kb_per_ms":         {ratio(srcKB, compileMS), "KB/ms"},
		"vm.new_engine_ms":              {wmean(func(t *layerTimes) float64 { return ms(t.newEngine) }), "ms"},
		"vm.run_reuse_ms":               {wmean(func(t *layerTimes) float64 { return ms(t.runReuse) }), "ms"},
		"vm.run_initial_ms":             {wmean(func(t *layerTimes) float64 { return ms(t.runInitial) }), "ms"},
		"vm.instr_rest":                 {rest / n, "count"},
		"vm.instr_icmiss":               {icmiss / n, "count"},
		"ic.hits":                       {hits / n, "count"},
		"ic.misses":                     {misses / n, "count"},
		"ic.miss_rate":                  {ratio(misses, hits+misses), "ratio"},
		"ric.validate_ms":               {wmean(func(t *layerTimes) float64 { return ms(t.validate) }), "ms"},
		"ric.validations":               {validations / n, "count"},
		"ric.val_failures":              {valFail / n, "count"},
		"ric.preloads":                  {preloads / n, "count"},
		"ric.preload_useful_ratio":      {ratio(saved, preloads), "ratio"},
		"ric.encode_ms":                 {wmean(func(t *layerTimes) float64 { return ms(t.encode) }), "ms"},
		"store.save_ms":                 {wmean(func(t *layerTimes) float64 { return ms(t.save) }), "ms"},
		"ric.record_bytes":              {wmean(func(t *layerTimes) float64 { return float64(t.recordBytes) }), "bytes"},
		"ric.decode_ms":                 {wmean(func(t *layerTimes) float64 { return ms(t.decode) }), "ms"},
		"store.load_ms":                 {wmean(func(t *layerTimes) float64 { return ms(t.load) }), "ms"},
		"pool.reuse_ratio":              {ratio(float64(ps.ReuseHits), float64(ps.Sessions)), "ratio"},
		"pool.extractions":              cnt(ps.Extractions),
		"pool.waited_sessions":          cnt(ps.WaitedSessions),
		"pool.conventional_runs":        cnt(ps.ConventionalRuns),
		"pool.degraded_sessions":        cnt(ps.DegradedSessions),
		"pool.shard_lock_acquires":      cnt(ps.ShardLockAcquires),
		"loadgen.late_ms_max":           {ms(tp.lr.lateMax), "ms"},
		"loadgen.backlog_max":           {float64(tp.lr.backlogMax), "count"},
		"gc.cpu_ms_per_session":         {tp.use.gcCPU * 1000 / n, "ms"},
		"gc.cycles":                     cnt(tp.use.gcCycles),
		"gc.peak_rss_mb":                {float64(tp.peakRSS) / (1 << 20), "MB"},
		"session_p99_ms":                {tp.p99(), "ms"},
		"trace.overhead_ms_per_session": {ms(time.Duration(tr.recording.Load())) / n, "ms"},
		"trace.cpu_ms_per_session":      {ms(tp.use.cpu) / n, "ms"},
	}
}

func writeMetrics(w *strings.Builder, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// writeTraceFiles writes the traced run's spans as Chrome trace_event
// JSON and its per-layer self-time table as text, and appends the table
// to the report.
func writeTraceFiles(out, name string, seed uint64, tr *tracer, origin time.Time, sessions int, report *strings.Builder) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d", name, seed))
	if err := writeChrome(stem+".trace.json", tr.spans, origin); err != nil {
		return err
	}
	var t strings.Builder
	fmt.Fprintf(&t, "per-layer time, %s seed %d, %d traced sessions (re-run layers: once per sampled input)\n", name, seed, sessions)
	fmt.Fprintf(&t, "  %-12s %8s %12s %12s %12s  %s\n", "layer", "spans", "busy_ms", "self_ms", "self_ms/span", "source")
	for _, l := range layerTable(tr.spans) {
		src := "traced pass"
		if l.rerun {
			src = "layer pass (re-run)"
		}
		fmt.Fprintf(&t, "  %-12s %8d %12.3f %12.3f %12.4f  %s\n", l.layer, l.spans, ms(l.busy), ms(l.self),
			ms(l.self)/float64(l.spans), src)
	}
	report.WriteString(t.String())
	return os.WriteFile(stem+".layers.txt", []byte(t.String()), 0o644)
}
