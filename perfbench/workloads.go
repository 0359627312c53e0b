package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ricjs"
	"ricjs/internal/progen"
	"ricjs/internal/workloads"
)

const (
	// minSessions is the least number of sessions every pass completes, so
	// the 99th percentile has at least ten samples beyond it.
	minSessions = 1000
	// zipfS is the key skew of hot_reuse and zipf_open, the skew of the
	// ricbench -load universe.
	zipfS = 1.1
	// openRate is zipf_open's Poisson arrival rate in sessions per second.
	openRate = 200
	// openColdKeys is how many progen programs zipf_open appends to the 11
	// profiles, as the ricbench -load universe does.
	openColdKeys = 8
	// openSpan is how many times --seconds zipf_open's arrivals span. The
	// cold extractions at the start stall both workers and the backlog
	// drains only about 14 s in on a 2-core host; a span of 40 s keeps
	// most sessions after that, so the median is a steady-state latency.
	openSpan = 4
)

// env is what every workload is built from: the seed, the run length,
// the client count, and a directory for record stores.
type env struct {
	seed    uint64
	seconds time.Duration
	clients int
	dir     string
	digests map[string][sha256.Size]byte
	nDirs   int
}

// freshDir removes the directory old (when set) and returns a new empty
// directory under the run's scratch directory.
func (e *env) freshDir(old, name string) (string, error) {
	if old != "" {
		if err := os.RemoveAll(old); err != nil {
			return "", err
		}
	}
	e.nDirs++
	d := filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, e.nDirs))
	return d, os.MkdirAll(d, 0o755)
}

// profileJobs returns one job per profile, under the profile's own name
// as key, checked against the committed output digests.
func (e *env) profileJobs() ([]*job, error) {
	jobs := make([]*job, 0, len(workloads.Profiles))
	for _, p := range workloads.Profiles {
		want, ok := e.digests[p.Name]
		if !ok {
			return nil, fmt.Errorf("no committed output digest for profile %s", p.Name)
		}
		jobs = append(jobs, &job{
			key:     p.Name,
			class:   p.Name,
			scripts: []ricjs.SessionScript{{Name: p.Script, Src: p.Source()}},
			want:    want,
		})
	}
	return jobs, nil
}

// progenJobs generates n progen programs and computes each one's
// expected output with a record-free Conventional run, spread over the
// clients. This reference is differential: it checks that pooled RIC
// sessions agree with a Conventional run of the same engine, not that
// the engine is right. An empty class makes each job a class of its own.
func (e *env) progenJobs(n int, seedOf func(i int) uint64, keyOf func(i int) string, class string) ([]*job, error) {
	jobs := make([]*job, n)
	for i := range jobs {
		key := keyOf(i)
		c := class
		if c == "" {
			c = key
		}
		jobs[i] = &job{
			key:     key,
			class:   c,
			scripts: []ricjs.SessionScript{{Name: key + ".js", Src: progen.New(seedOf(i)).Program()}},
		}
	}
	cache := ricjs.NewCodeCache()
	errs := make([]error, e.clients)
	var wg sync.WaitGroup
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += e.clients {
				eng := ricjs.NewEngine(ricjs.Options{Cache: cache})
				for _, s := range jobs[i].scripts {
					if err := eng.Run(s.Name, s.Src); err != nil {
						errs[c] = fmt.Errorf("reference run of %s: %w", jobs[i].key, err)
						return
					}
				}
				jobs[i].want = sha256.Sum256([]byte(eng.Output()))
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// mix64 is the splitmix64 finalizer: a fixed, platform-independent hash
// that turns (seed, index) into the index's own random stream.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit returns a uniform sample in (0, 1) for stream (seed, i, lane).
func unit(seed uint64, i int, lane uint64) float64 {
	v := mix64(seed ^ mix64(uint64(i)<<8|lane))
	return (float64(v>>11) + 0.5) / float64(uint64(1)<<53)
}

// weylStep is the golden-ratio conjugate, the step of the Weyl sequence
// with the most even coverage of (0, 1).
const weylStep = 0.6180339887498949

// zipf picks ranks with weight 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return zipf{cdf: cdf}
}

func (z zipf) pick(u float64) int {
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// workload is one of the benchmark's session mixes.
type workload interface {
	// setup builds the workload's inputs and a fresh pool; it is what
	// setup_s times.
	setup() error
	// run serves one pass on the current pool and returns what its
	// self-checks found wrong.
	run(serve serveFunc) (loopResult, []string)
	// pool is the current pool.
	pool() *ricjs.SessionPool
	// recordStore is where the current pool saves or finds its records.
	recordStore() *ricjs.RecordStore
}

// listed hands out the jobs in order, then nothing.
func listed(jobs []*job) func(i int) *job {
	return func(i int) *job {
		if i < len(jobs) {
			return jobs[i]
		}
		return nil
	}
}

// serveAll serves each job once on the pool with the env's clients,
// largest source first, and fails unless every session ran in mode want
// with the expected output.
func serveAll(pool *ricjs.SessionPool, jobs []*job, clients int, want ricjs.SessionMode) error {
	size := func(j *job) int {
		n := 0
		for _, s := range j.scripts {
			n += len(s.Src)
		}
		return n
	}
	order := append([]*job(nil), jobs...)
	sort.SliceStable(order, func(a, b int) bool { return size(order[a]) > size(order[b]) })
	lr := closedLoop(clients, 0, 0, listed(order), poolServer(pool, nil))
	for i := range lr.samples {
		s := &lr.samples[i]
		switch {
		case s.failure != "":
			return fmt.Errorf("set-up session %s: %s", s.job.key, s.failure)
		case s.mode != want:
			return fmt.Errorf("set-up session %s ran as %s, want %s", s.job.key, s.mode, want)
		}
	}
	return nil
}

// hotReuse is the paper's Reuse scenario: records come from a previous
// process's store, and a warm pool serves Zipf-skewed profile sessions
// from them in a closed loop.
type hotReuse struct {
	e     *env
	jobs  []*job
	z     zipf
	dir   string
	store *ricjs.RecordStore
	p     *ricjs.SessionPool
}

func (h *hotReuse) setup() error {
	jobs, err := h.e.profileJobs()
	if err != nil {
		return err
	}
	h.jobs, h.z = jobs, newZipf(len(jobs), zipfS)
	if h.dir, err = h.e.freshDir(h.dir, "hot-store"); err != nil {
		return err
	}
	store, err := ricjs.OpenRecordStore(h.dir)
	if err != nil {
		return err
	}
	// The throwaway pool stands for the previous process: it extracts
	// every profile once and saves the records.
	if err := serveAll(ricjs.NewSessionPool(ricjs.PoolOptions{Store: store}), jobs, h.e.clients, ricjs.SessionInitial); err != nil {
		return err
	}
	// The measured pool opens the store with a new code cache and serves
	// each key once, so the store load, decode and compile of every key
	// happen before the measured pass.
	if h.store, err = ricjs.OpenRecordStore(h.dir); err != nil {
		return err
	}
	h.p = ricjs.NewSessionPool(ricjs.PoolOptions{Cache: ricjs.NewCodeCache(), Store: h.store})
	return serveAll(h.p, h.jobs, h.e.clients, ricjs.SessionReuse)
}

func (h *hotReuse) run(serve serveFunc) (loopResult, []string) {
	base := h.p.Stats()
	// Keys follow a Weyl sequence from a seeded start instead of
	// independent draws: every stretch of sessions then holds each key in
	// its Zipf share almost exactly, so the per-session means do not carry
	// the sampling noise of how often the heavy React key came up.
	u0 := unit(h.e.seed, 0, 1)
	next := func(i int) *job {
		_, u := math.Modf(u0 + float64(i)*weylStep)
		return h.jobs[h.z.pick(u)]
	}
	lr := closedLoop(h.e.clients, minSessions, h.e.seconds, next, serve)
	var bad []string
	for i := range lr.samples {
		if m := lr.samples[i].mode; m != ricjs.SessionReuse && lr.samples[i].failure == "" {
			bad = append(bad, fmt.Sprintf("hot_reuse session %d ran as %s, want reuse", lr.samples[i].idx, m))
			break
		}
	}
	st := h.p.Stats()
	if d := st.Extractions - base.Extractions; d != 0 {
		bad = append(bad, fmt.Sprintf("hot_reuse made %d extractions after set-up", d))
	}
	if d := st.ShardLockAcquires - base.ShardLockAcquires; d != 0 {
		bad = append(bad, fmt.Sprintf("hot_reuse took %d shard locks after set-up", d))
	}
	return lr, bad
}

func (h *hotReuse) pool() *ricjs.SessionPool        { return h.p }
func (h *hotReuse) recordStore() *ricjs.RecordStore { return h.store }

// coldStart gives every session a key the pool has never seen: the 11
// profiles once each, then seeded progen programs, on a fresh pool,
// store and code cache, in a closed loop.
type coldStart struct {
	e        *env
	profiles []*job
	progs    []*job
	dir      string
	store    *ricjs.RecordStore
	p        *ricjs.SessionPool
}

// coldPrograms is how many progen programs cold_start serves after the
// profiles: a fixed amount of work per run, so the per-session metrics
// average the same sessions on every run. The profiles' extractions slow
// the sessions served beside them for the first 8-10 s; 150 programs per
// second of --seconds keep most sessions after that, so the median and
// the 99th percentile fall among ordinary cold sessions.
func (c *coldStart) coldPrograms() int {
	n := int(150 * c.e.seconds.Seconds())
	if min := minSessions - len(workloads.Profiles); n < min {
		n = min
	}
	return n
}

func (c *coldStart) setup() error {
	jobs, err := c.e.profileJobs()
	if err != nil {
		return err
	}
	c.profiles = jobs
	c.progs, err = c.e.progenJobs(c.coldPrograms(),
		func(i int) uint64 { return mix64(c.e.seed ^ 0xC0D5<<32 ^ uint64(i)) },
		func(i int) string { return fmt.Sprintf("progen-%d", i) }, "progen")
	if err != nil {
		return err
	}
	if c.dir, err = c.e.freshDir(c.dir, "cold-store"); err != nil {
		return err
	}
	if c.store, err = ricjs.OpenRecordStore(c.dir); err != nil {
		return err
	}
	c.p = ricjs.NewSessionPool(ricjs.PoolOptions{Cache: ricjs.NewCodeCache(), Store: c.store})
	return nil
}

func (c *coldStart) run(serve serveFunc) (loopResult, []string) {
	lr := closedLoop(c.e.clients, 0, 0, listed(append(append([]*job(nil), c.profiles...), c.progs...)), serve)
	var bad []string
	for i := range lr.samples {
		if m := lr.samples[i].mode; m != ricjs.SessionInitial && lr.samples[i].failure == "" {
			bad = append(bad, fmt.Sprintf("cold_start session %d ran as %s, want initial", lr.samples[i].idx, m))
			break
		}
	}
	return lr, bad
}

func (c *coldStart) pool() *ricjs.SessionPool        { return c.p }
func (c *coldStart) recordStore() *ricjs.RecordStore { return c.store }

// zipfOpen is an open loop: Poisson arrivals at a fixed rate, Zipf-skewed
// over the profiles plus a cold tail of progen keys, drained by a fixed
// set of workers from a fresh pool that makes sessions wait for an
// in-flight extraction of their key.
type zipfOpen struct {
	e        *env
	arrivals []arrival
	dir      string
	store    *ricjs.RecordStore
	p        *ricjs.SessionPool
}

func (z *zipfOpen) setup() error {
	universe, err := z.e.profileJobs()
	if err != nil {
		return err
	}
	cold, err := z.e.progenJobs(openColdKeys,
		func(i int) uint64 { return z.e.seed ^ uint64(0xC01D<<16) ^ uint64(i) },
		func(i int) string { return fmt.Sprintf("progen-%d", i) }, "")
	if err != nil {
		return err
	}
	universe = append(universe, cold...)
	zf := newZipf(len(universe), zipfS)
	z.arrivals = z.arrivals[:0]
	var t float64
	for i := 0; ; i++ {
		t += -math.Log(unit(z.e.seed, i, 2)) / openRate
		if t >= openSpan*z.e.seconds.Seconds() && i >= minSessions {
			break
		}
		z.arrivals = append(z.arrivals, arrival{
			at:  time.Duration(t * float64(time.Second)),
			job: universe[zf.pick(unit(z.e.seed, i, 3))],
		})
	}
	if z.dir, err = z.e.freshDir(z.dir, "open-store"); err != nil {
		return err
	}
	if z.store, err = ricjs.OpenRecordStore(z.dir); err != nil {
		return err
	}
	z.p = ricjs.NewSessionPool(ricjs.PoolOptions{Cache: ricjs.NewCodeCache(), Store: z.store, WaitForRecord: true})
	return nil
}

func (z *zipfOpen) run(serve serveFunc) (loopResult, []string) {
	return openLoop(z.e.clients, z.arrivals, serve), nil
}

func (z *zipfOpen) pool() *ricjs.SessionPool        { return z.p }
func (z *zipfOpen) recordStore() *ricjs.RecordStore { return z.store }
