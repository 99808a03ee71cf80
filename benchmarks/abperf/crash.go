package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"abcast/internal/trace"
)

// The crash-restart workload: an open loop of openRate 64-byte requests per
// second, submitted in turn at p1 and p3 of a durable public Cluster and
// timed from the instants they were due, through episodes of fixed length.
// In each episode p2 — the round-1 coordinator of every consensus instance
// (coord(1,3)=2) — crashes after a steady stretch and is restarted downFor
// later. Every episode runs on a fresh cluster, because the failure detector
// counts a restart as a wrong suspicion and lengthens its timeout by 60 ms
// each time, so episodes on one cluster would not be comparable.
//
// downFor must stay well above the failure detector's worst detection time
// (120 ms timeout + 25 ms heartbeat interval) plus one consensus round: a
// restarted incarnation has forgotten its consensus votes, and if it returns
// while an instance it voted in is still open, the group can decide that
// instance differently from what the old incarnation already delivered (seen
// with a 3 ms downtime; see README, findings). After 500 ms the survivors
// have long decided every such instance, and no operation fails.
const (
	openRate    = 2000 // requests per second
	crashWarm   = 1000 // requests that end an episode's set-up
	crashSteady = 500 * time.Millisecond
	crashJitter = 25 * time.Millisecond // one heartbeat interval
	downFor     = 500 * time.Millisecond
	episodeLen  = 2800 * time.Millisecond // measured window of one episode
	victim      = 2
)

var survivors = []int{1, 3}

// episode is what one cluster's life yields. Latency samples come from the
// survivors only: p2 is not a correct process of the episode.
type episode struct {
	setup      float64 // seconds
	seg        segment
	failoverMS float64   // longest time without an adelivery at a survivor while p2 is down
	stallMS    float64   // the same from the restart to the end of the window
	catchupMS  float64   // Restart → p2 has all the survivors had at the restart instant
	detectMS   float64   // crash → p1's fd.suspicions rises (traced episodes only)
	lagUS      []float64 // how late the generator submitted each request
	verdict

	heapB  float64            // live heap the episode added, cluster still open (reference episodes only)
	layers map[string]float64 // stage and counter metrics (traced episodes only)
}

// episodeMode says what an episode records besides its end-to-end figures.
type episodeMode int

const (
	modePlain     episodeMode = iota // the end-to-end pass
	modeReference                    // untraced, with the heap probed: the per-layer pass's baseline
	modeTraced                       // lifecycle trace and metric registries on
)

// openLoop is the load generator of one episode.
type openLoop struct {
	g   *liveGroup
	rec *recorder
	in  *inputs
	lag []float64 // µs
}

// generate submits request i at start+i/openRate until stop closes, and
// stamps it with that due instant, not with the instant it got round to it.
func (l *openLoop) generate(start time.Time, stop <-chan struct{}, finished chan<- struct{}) {
	defer close(finished)
	// Go timers are up to a millisecond late while the process is otherwise
	// idle (the runtime parks in epoll_wait, whose timeout is in
	// milliseconds), which at this rate is two periods. nanosleep on a
	// thread of its own is late by tens of microseconds and burns no CPU.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	period := time.Second / openRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an early return only makes this request less late
		}
		select {
		case <-stop:
			return
		default:
		}
		payload := l.in.payload(i)
		l.lag = append(l.lag, float64(time.Since(due))/1e3)
		l.rec.submitAt = append(l.rec.submitAt, int64(due.Sub(l.rec.base)))
		l.g.submit(l.in.sender(i), payload)
	}
}

// episodesIn is how many episodes make up a window of d: d/episodeLen
// rounded, at least one.
func episodesIn(d time.Duration) int {
	return max(1, int((d+episodeLen/2)/episodeLen))
}

// measureCrash is the end-to-end pass: untraced episodes for about d.
func measureCrash(seed int64, d time.Duration) (measured, error) {
	var res measured
	eps, err := runEpisodes(seed, d, modePlain)
	for _, e := range eps {
		res.setups = append(res.setups, e.setup)
		res.segs = append(res.segs, e.seg)
		res.verdict = sumVerdicts(res.verdict, e.verdict)
	}
	return res, err
}

func sumVerdicts(a, b verdict) verdict {
	return verdict{attempted: a.attempted + b.attempted, failed: a.failed + b.failed, violation: a.violation + b.violation}
}

// runEpisodes runs episodes for about d, stopping at the first incorrect
// one. All episodes cut their inputs from one seeded stream.
func runEpisodes(seed int64, d time.Duration, mode episodeMode) ([]episode, error) {
	in := newInputs(seed, survivors, 64)
	var eps []episode
	for i := 0; i < episodesIn(d); i++ {
		e, err := runEpisode(in, mode)
		if err != nil {
			return eps, fmt.Errorf("episode %d: %w", i, err)
		}
		eps = append(eps, e)
		if e.violation != "" {
			break
		}
		runtime.GC() // every episode starts from a collected heap
	}
	return eps, nil
}

func runEpisode(in *inputs, mode episodeMode) (episode, error) {
	var e episode
	traced := mode == modeTraced
	heapBefore := 0.0
	if mode == modeReference {
		heapBefore = heapLive()
	}
	rec := newRecorder(in, n, 2*openRate*int(episodeLen.Seconds()+2), 0) // set-up is timed from here: rec.base
	g, err := openLive(groupSpec{durable: true, traced: traced, seed: in.runtimeSeed()}, rec)
	if err != nil {
		return e, err
	}
	jitter := in.crashJitter(crashJitter) // drawn before the generator takes over the input stream
	load := &openLoop{g: g, rec: rec, in: in}
	stop, finished := make(chan struct{}), make(chan struct{})
	go load.generate(time.Now(), stop, finished)
	halt := func() {
		close(stop)
		<-finished
		rec.waitAll(allProcs, len(rec.submitAt), drainLimit)
		g.close()
	}

	warm := scaledCount(crashWarm)
	if !rec.waitAll(allProcs, warm, drainLimit) {
		halt()
		return e, fmt.Errorf("warm-up of %d requests did not complete", warm)
	}
	first := takeMark(rec.now())
	e.setup = float64(first.at) / 1e9

	time.Sleep(scaled(crashSteady) + jitter)
	suspicions := g.counters(1)["fd.suspicions"]
	crashedAt := rec.now()
	g.c.Crash(victim)
	restartDue := time.Duration(crashedAt) + downFor // never scaled down: see downFor
	for traced && e.detectMS == 0 && time.Duration(rec.now()) < restartDue {
		time.Sleep(time.Millisecond)
		if g.counters(1)["fd.suspicions"] > suspicions {
			e.detectMS = float64(rec.now()-crashedAt) / 1e6
		}
	}
	time.Sleep(restartDue - time.Duration(rec.now()))
	target := int(max(rec.distinct[1].Load(), rec.distinct[3].Load()))
	restartedAt := rec.now()
	if err := g.c.Restart(victim); err != nil {
		halt()
		return e, err
	}
	caught := rec.waitAll([]int{victim}, target, drainLimit)
	e.catchupMS = float64(rec.now()-restartedAt) / 1e6
	time.Sleep(time.Duration(first.at) + scaled(episodeLen) - time.Duration(rec.now()))
	last := takeMark(rec.now())
	if mode == modeReference {
		e.heapB = heapLive() - heapBefore - rec.footprint
	}
	var events []trace.Event
	var counters map[string]int64
	if traced {
		events, counters = g.events(), sumCounters(g)
	}
	elapsed := float64(rec.now()) / 1e9
	halt()

	restarts := make([]int64, n+1)
	restarts[victim] = restartedAt
	e.verdict = rec.check(restarts)
	if !caught && e.violation == "" {
		e.violation = fmt.Sprintf("p%d did not catch up within %v of its restart", victim, drainLimit)
	}
	if e.violation != "" {
		return e, nil
	}
	e.seg = segments(rec, e.verdict, []mark{first, last}, survivors)[0]
	e.failoverMS = float64(longestGap(rec, crashedAt, restartedAt)) / 1e6
	e.stallMS = float64(longestGap(rec, restartedAt, last.at)) / 1e6
	e.lagUS = load.lag
	if traced {
		e.layers = make(map[string]float64)
		stageMetrics(e.layers, events, rec, e.verdict, first.at, last.at, survivors)
		counterMetrics(e.layers, counters, len(rec.submitAt), elapsed)
	}
	return e, nil
}

// longestGap is the longest interval without an adelivery at a survivor
// that begins at or after from and ends in (from, to]: the time without
// service.
func longestGap(rec *recorder, from, to int64) int64 {
	longest := int64(0)
	for _, p := range survivors {
		prev := from
		for _, d := range rec.logs[p] {
			if d.at <= from {
				continue
			}
			if d.at > to {
				break
			}
			if gap := d.at - prev; gap > longest {
				longest = gap
			}
			prev = d.at
		}
	}
	return longest
}

// crashTracedPass is the per-layer pass of the crash-restart workload:
// untraced episodes for the reference figures, then traced ones. Every
// figure is the median over its episodes.
func crashTracedPass(seed int64, d time.Duration) (map[string]float64, verdict, error) {
	m0 := takeMark(0)
	plain, err := runEpisodes(seed, d, modeReference)
	if err != nil {
		return nil, verdict{}, err
	}
	m1 := takeMark(0)
	tracedEps, err := runEpisodes(seed, d, modeTraced)
	if err != nil {
		return nil, verdict{}, err
	}
	var v verdict
	for _, e := range append(plain, tracedEps...) {
		v = sumVerdicts(v, e.verdict)
	}
	if v.violation != "" {
		return nil, v, nil
	}
	over := func(eps []episode, f func(e episode) float64) float64 {
		vals := make([]float64, len(eps))
		for i, e := range eps {
			vals[i] = f(e)
		}
		return median(vals)
	}
	rate := func(e episode) float64 { return float64(e.seg.msgs) / e.seg.seconds }
	vals := make(map[string]float64)
	for name := range tracedEps[0].layers {
		vals[name] = over(tracedEps, func(e episode) float64 { return e.layers[name] })
	}
	var lag []float64
	for _, e := range tracedEps {
		lag = append(lag, e.lagUS...)
	}
	sort.Float64s(lag)
	vals["loadgen.sched_lag_p99_us"] = percentile(lag, 0.99)
	vals["fault.failover_ms"] = over(tracedEps, func(e episode) float64 { return e.failoverMS })
	vals["fault.restart_stall_ms"] = over(tracedEps, func(e episode) float64 { return e.stallMS })
	vals["fault.catchup_ms"] = over(tracedEps, func(e episode) float64 { return e.catchupMS })
	vals["fd.detect_ms"] = over(tracedEps, func(e episode) float64 { return e.detectMS })
	vals["abcast.latency_p50_us"] = over(plain, func(e episode) float64 { return percentile(e.seg.latUS, 0.50) })
	vals["abcast.latency_p99_us"] = over(plain, func(e episode) float64 { return percentile(e.seg.latUS, 0.99) })
	// An open loop delivers what it is offered, so this is near zero unless
	// tracing makes the group fall behind.
	vals["trace.overhead_frac"] = 1 - over(tracedEps, rate)/over(plain, rate)
	vals["runtime.heap_retained_b_per_msg"] = over(plain, func(e episode) float64 { return e.heapB / float64(e.attempted) })
	vals["persist.working_set_mb"] = over(plain, func(e episode) float64 { return e.heapB / 1e6 })
	vals["runtime.cpu_us_per_msg"] = over(plain, func(e episode) float64 { return e.seg.cpu * 1e6 / float64(e.seg.msgs) })
	vals["runtime.gc_pause_p99_us"] = gcPauseP99US(m0, m1)
	vals["runtime.gc_cpu_frac"] = (m1.gcCPU - m0.gcCPU) / (m1.cpu - m0.cpu)
	return vals, v, nil
}
