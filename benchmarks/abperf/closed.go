package main

import (
	"fmt"
	"runtime"
	"time"
)

// drainLimit is how long a submitted message may take to be adelivered at
// every process once submission has stopped; after that it counts as failed.
const drainLimit = 10 * time.Second

// rampUp separates the end of warm-up from the start of the measured window.
const rampUp = 500 * time.Millisecond

// windowParts is the number of segments a measured window is cut into.
const windowParts = 5

var allProcs = []int{1, 2, 3}

// closedWork is the shape of a closed-loop workload: clients requests are
// kept outstanding; a client submits its next request when the process it
// submitted the previous one at has adelivered it.
type closedWork struct {
	tcp     bool
	durable bool
	size    int // payload bytes
	clients int
	warm    int // warm-up messages; set-up ends when they have completed
	rate    int // messages/s this workload will not exceed, for sizing the logs
}

// session is one group under closed-loop load.
type session struct {
	g        group
	rec      *recorder
	in       *inputs
	clients  int
	warm     int
	warmedAt chan int64 // receives the instant the warm-th request completed
	stop     chan struct{}
	finished chan struct{}
}

// start assembles a group and begins loading it. Inputs depend only on seed.
func (w closedWork) start(seed int64, traced bool, d time.Duration) (*session, error) {
	in := newInputs(seed, allProcs, w.size)
	capHint := w.warm + int((d+2*time.Second).Seconds()*float64(w.rate))
	rec := newRecorder(in, n, capHint, w.clients) // set-up is timed from here: rec.base
	g, err := groupSpec{tcp: w.tcp, durable: w.durable, traced: traced, seed: in.runtimeSeed()}.open(rec)
	if err != nil {
		return nil, err
	}
	s := &session{
		g: g, rec: rec, in: in, clients: w.clients, warm: scaledCount(w.warm),
		warmedAt: make(chan int64, 1),
		stop:     make(chan struct{}),
		finished: make(chan struct{}),
	}
	go s.generate()
	return s, nil
}

func (s *session) submit() {
	idx := len(s.rec.submitAt)
	payload := s.in.payload(idx)
	s.rec.submitAt = append(s.rec.submitAt, s.rec.now())
	s.g.submit(s.in.sender(idx), payload)
}

// generate is the load generator: one goroutine standing for all clients.
func (s *session) generate() {
	defer close(s.finished)
	outstanding := 0
	for ; outstanding < s.clients; outstanding++ {
		s.submit()
	}
	completed := 0
	stop := s.stop
	var drain <-chan time.Time
	for outstanding > 0 {
		select {
		case <-s.rec.done:
			if completed++; completed == s.warm {
				s.warmedAt <- s.rec.now()
			}
			if stop == nil {
				outstanding--
			} else {
				s.submit()
			}
		case <-stop:
			stop = nil
			t := time.NewTimer(drainLimit)
			defer t.Stop()
			drain = t.C
		case <-drain:
			return
		}
	}
}

// finish stops submitting, waits for the outstanding requests to reach every
// process (or drainLimit), and returns the oracle's verdict after closing
// the group.
func (s *session) finish() verdict {
	s.quiesce()
	s.g.close()
	return s.rec.check(nil)
}

// quiesce stops the generator and waits for the group to drain.
func (s *session) quiesce() {
	close(s.stop)
	<-s.finished
	s.rec.waitAll(allProcs, len(s.rec.submitAt), drainLimit)
}

// awaitWarm waits for the session's warm-up to complete.
func (s *session) awaitWarm() (int64, error) {
	select {
	case at := <-s.warmedAt:
		return at, nil
	case <-time.After(drainLimit + time.Duration(s.warm)*time.Millisecond):
		s.finish()
		return 0, fmt.Errorf("warm-up of %d messages did not complete", s.warm)
	}
}

// measured is what the end-to-end pass of a workload yields.
type measured struct {
	setups []float64 // seconds, one per set-up; setup_s is their median
	segs   []segment
	verdict
}

// setupsPerRun is how many times a closed-loop run sets its workload up.
const setupsPerRun = 3

// measure sets the workload up setupsPerRun times — assembling the group and
// running the warm-up — keeps the last group, and measures it for d.
func (w closedWork) measure(seed int64, d time.Duration) (measured, error) {
	var res measured
	for i := 0; i < setupsPerRun; i++ {
		s, err := w.start(seed, false, d)
		if err != nil {
			return res, err
		}
		warmed, err := s.awaitWarm()
		if err != nil {
			return res, err
		}
		res.setups = append(res.setups, float64(warmed)/1e9)
		if i < setupsPerRun-1 {
			if v := s.finish(); v.violation != "" || v.failed > 0 {
				return res, fmt.Errorf("set-up %d: %d of %d requests failed %s", i, v.failed, v.attempted, v.violation)
			}
			runtime.GC() // the next set-up starts from a collected heap, like the first
			continue
		}
		marks := markEvery(s.rec, warmed+int64(scaled(rampUp)), d, windowParts)
		res.verdict = s.finish()
		res.segs = segments(s.rec, res.verdict, marks, allProcs)
	}
	return res, nil
}
