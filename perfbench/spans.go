package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ricjs"
)

// span is one timed call into a layer. Spans of one session share the
// session id; parent is 0 for a root.
type span struct {
	id, parent, session int64
	name, layer         string
	start, end          time.Time
	// rerun marks a span that times a layer's own public function on the
	// same input again, outside the call it really ran in; it is never
	// subtracted from a parent's self time. derived marks a span whose
	// interval is computed from other spans instead of timed around a call.
	rerun, derived bool
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so the untraced pass runs the same code.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID int64
	// recording is the time the session path spent recording spans: the
	// tracing overhead each traced session pays.
	recording atomic.Int64
}

func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s.id = t.nextID
	t.spans = append(t.spans, s)
	return s.id
}

// session records a served session: the load generator's span from due
// to end, the queue wait when the session was due before it started, and
// the SessionPool.Serve call.
func (t *tracer) session(s *sample) {
	if t == nil {
		return
	}
	start := time.Now()
	defer func() { t.recording.Add(int64(time.Since(start))) }()
	sid := int64(s.idx) + 1
	root := t.add(span{session: sid, name: "session", layer: "loadgen", start: s.due, end: s.end})
	if s.start.After(s.due) {
		t.add(span{parent: root, session: sid, name: "queue", layer: "loadgen", start: s.due, end: s.start})
	}
	t.add(span{parent: root, session: sid, name: "SessionPool.Serve", layer: "pool", start: s.start, end: s.end})
}

// addWaits adds a derived single-flight wait span inside each reuse
// session that started while its key's extraction was still in flight:
// the pool blocks such a session until the extracting session publishes.
func (t *tracer) addWaits(samples []sample) {
	if t == nil {
		return
	}
	initialEnd := map[string]time.Time{}
	for i := range samples {
		if samples[i].mode == ricjs.SessionInitial {
			initialEnd[samples[i].job.key] = samples[i].end
		}
	}
	t.mu.Lock()
	serve := map[int64]int64{}
	for _, s := range t.spans {
		if s.name == "SessionPool.Serve" {
			serve[s.session] = s.id
		}
	}
	t.mu.Unlock()
	for i := range samples {
		s := &samples[i]
		ie, ok := initialEnd[s.job.key]
		if s.mode != ricjs.SessionReuse || !ok || !s.start.Before(ie) {
			continue
		}
		end := ie
		if s.end.Before(end) {
			end = s.end
		}
		sid := int64(s.idx) + 1
		t.add(span{parent: serve[sid], session: sid, name: "single-flight wait", layer: "pool",
			start: s.start, end: end, derived: true})
	}
}

// layerStat is one layer's share of the spans: how many, their total
// duration, and their self time.
type layerStat struct {
	layer      string
	spans      int
	busy, self time.Duration
	rerun      bool
}

// layerTable computes per-layer span counts, busy and self time. A
// span's self time is its duration minus its direct children's that ran
// inside it; re-run spans are never subtracted, because the work they
// time did not happen inside the parent's interval.
func layerTable(spans []span) []layerStat {
	childTime := map[int64]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 && !s.rerun {
			childTime[s.parent] += s.dur()
		}
	}
	byLayer := map[string]*layerStat{}
	var order []string
	for i := range spans {
		s := &spans[i]
		st, ok := byLayer[s.layer]
		if !ok {
			st = &layerStat{layer: s.layer}
			byLayer[s.layer] = st
			order = append(order, s.layer)
		}
		st.spans++
		st.busy += s.dur()
		self := s.dur() - childTime[s.id]
		if self < 0 {
			self = 0
		}
		st.self += self
		st.rerun = st.rerun || s.rerun
	}
	sort.Strings(order)
	out := make([]layerStat, 0, len(order))
	for _, l := range order {
		out = append(out, *byLayer[l])
	}
	return out
}

// writeChrome writes spans as Chrome trace_event JSON: one complete
// ("ph":"X") event per span, timestamps in microseconds from origin, one
// thread row per session.
func writeChrome(path string, spans []span, origin time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := encodeChrome(w, spans, origin); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encodeChrome(w io.Writer, spans []span, origin time.Time) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i := range spans {
		s := &spans[i]
		e := event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.session,
			Args: map[string]any{"span": s.id, "parent": s.parent, "rerun": s.rerun, "derived": s.derived},
		}
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(spans)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
