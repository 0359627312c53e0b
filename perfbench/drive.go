package main

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"

	"ricjs"
)

// job is one session the load generator hands to the pool.
type job struct {
	key     string
	scripts []ricjs.SessionScript
	// class groups jobs whose inputs the layer pass treats as one
	// population: a profile name, or a progen family.
	class string
	// want is the SHA-256 of the session's expected print output.
	want [sha256.Size]byte
}

// sample is one served session as the load generator saw it.
type sample struct {
	idx int
	job *job
	// due is when the session was due: its scheduled arrival in the open
	// loop, its dispatch in a closed loop. Latency runs from due to end.
	due, start, end time.Time
	mode            ricjs.SessionMode
	stats           ricjs.Stats
	// failure is empty for a session that was served with the expected
	// output, and says what went wrong otherwise.
	failure string
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.due) }

// loopResult is what a load loop returns: the samples in completion
// order per client, and the generator's own delays.
type loopResult struct {
	samples    []sample
	origin     time.Time
	lateMax    time.Duration
	backlogMax int
	// stationary marks a pass whose session mix is the same throughout,
	// so its rates can be taken as medians over time windows.
	stationary bool
}

// serveFunc serves one job and fills the sample's outcome fields.
type serveFunc func(j *job, s *sample)

// poolServer serves jobs through a SessionPool and checks each output
// against the job's expected digest. With a tracer it records the
// session's spans.
func poolServer(pool *ricjs.SessionPool, tr *tracer) serveFunc {
	return func(j *job, s *sample) {
		s.start = time.Now()
		res, err := pool.Serve(ricjs.SessionRequest{Key: j.key, Scripts: j.scripts})
		s.end = time.Now()
		switch {
		case err != nil:
			s.failure = err.Error()
		case sha256.Sum256([]byte(res.Output)) != j.want:
			s.failure = "output differs from the reference"
		}
		if res != nil {
			s.mode = res.Mode
			s.stats = res.Stats
		}
		tr.session(s)
	}
}

// closedLoop runs clients goroutines, each sending its next session only
// after the previous one completed. Session indices are handed out in
// order, so the first minSessions sessions are the same for a given seed
// whatever the timing. It stops handing out sessions once d has passed
// and minSessions were handed out, or when next has no more; d = 0 serves
// everything next has. A loop bounded by d serves a stationary mix.
func closedLoop(clients, minSessions int, d time.Duration, next func(i int) *job, serve serveFunc) loopResult {
	var counter atomic.Int64
	origin := time.Now()
	deadline := origin.Add(d)
	per := make([][]sample, clients)
	gaps := make([]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prevEnd := time.Time{}
			for {
				i := int(counter.Add(1) - 1)
				if d > 0 && i >= minSessions && !time.Now().Before(deadline) {
					return
				}
				j := next(i)
				if j == nil {
					return
				}
				s := sample{idx: i, job: j, due: time.Now()}
				if !prevEnd.IsZero() {
					if g := s.due.Sub(prevEnd); g > gaps[c] {
						gaps[c] = g
					}
				}
				serve(j, &s)
				prevEnd = s.end
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{origin: origin, backlogMax: clients, stationary: d > 0}
	for c := range per {
		res.samples = append(res.samples, per[c]...)
		if gaps[c] > res.lateMax {
			res.lateMax = gaps[c]
		}
	}
	return res
}

// arrival is one scheduled session of the open loop.
type arrival struct {
	at  time.Duration
	job *job
}

// openLoop sends sessions on a fixed schedule, whatever the pool's
// progress, to a fixed set of workers through a queue. Latency runs from
// each session's scheduled arrival, so a stall is charged to every
// session queued behind it; lateMax is how far behind the schedule the
// generator itself ran.
func openLoop(workers int, arrivals []arrival, serve serveFunc) loopResult {
	// One slot per arrival: the generator never blocks on a full queue, so
	// its lateness measures only its own scheduling.
	queue := make(chan int, len(arrivals))
	origin := time.Now()
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				s := sample{idx: i, job: arrivals[i].job, due: origin.Add(arrivals[i].at)}
				serve(s.job, &s)
				per[w] = append(per[w], s)
			}
		}(w)
	}
	res := loopResult{origin: origin}
	for i, a := range arrivals {
		due := origin.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(due); late > res.lateMax {
			res.lateMax = late
		}
		queue <- i
		if n := len(queue); n > res.backlogMax {
			res.backlogMax = n
		}
	}
	close(queue)
	wg.Wait()
	for w := range per {
		res.samples = append(res.samples, per[w]...)
	}
	return res
}
