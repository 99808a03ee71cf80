package main

import (
	"fmt"
	"runtime"
	"time"

	"abcast/internal/msg"
	"abcast/internal/stack"
	"abcast/internal/trace"
)

// perLayer runs the per-layer pass of one workload: a short untraced run
// (the reference for tracing overhead, and where heap and GC figures are
// taken), the same run with the lifecycle trace and the metric registries
// switched on through the public configuration, and the layer pass that
// times each layer's public functions from outside.
func perLayer(name string, seed int64, d time.Duration) (map[string]float64, verdict, error) {
	var (
		vals map[string]float64
		v    verdict
		err  error
	)
	if w, closed := closedWorkloads[name]; closed {
		vals, v, err = w.tracedPass(seed, d/5)
	} else if name == crashWorkload {
		vals, v, err = crashTracedPass(seed, d/5)
	} else {
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil || v.violation != "" {
		return vals, v, err
	}
	if err := layerPass(vals); err != nil {
		return nil, v, err
	}
	return vals, v, nil
}

// heapLive is the live heap after two collections (the second frees what
// the first one's finalizers and sweep released).
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// window waits out the session's warm-up and ramp, then brackets d of load
// with two marks.
func (s *session) window(d time.Duration) (from, to mark, err error) {
	warmed, err := s.awaitWarm()
	if err != nil {
		return from, to, err
	}
	time.Sleep(time.Duration(warmed) + scaled(rampUp) - time.Duration(s.rec.now()))
	from = takeMark(s.rec.now())
	time.Sleep(d)
	return from, takeMark(s.rec.now()), nil
}

// tracedPass is the per-layer pass of a closed-loop workload.
func (w closedWork) tracedPass(seed int64, d time.Duration) (map[string]float64, verdict, error) {
	vals := make(map[string]float64)

	// Untraced reference.
	before := heapLive()
	s, err := w.start(seed, false, d)
	if err != nil {
		return nil, verdict{}, err
	}
	m0, m1, err := s.window(d)
	if err != nil {
		return nil, verdict{}, err
	}
	s.quiesce()
	retained := heapLive() - before - s.rec.footprint
	s.g.close()
	v := s.rec.check(nil)
	if v.violation != "" {
		return nil, v, nil
	}
	untraced := segments(s.rec, v, []mark{m0, m1}, allProcs)[0]
	vals["abcast.latency_p50_us"] = percentile(untraced.latUS, 0.50)
	vals["abcast.latency_p99_us"] = percentile(untraced.latUS, 0.99)
	vals["runtime.heap_retained_b_per_msg"] = retained / float64(len(s.rec.submitAt))
	vals["persist.working_set_mb"] = retained / 1e6
	vals["runtime.cpu_us_per_msg"] = untraced.cpu * 1e6 / float64(untraced.msgs)
	vals["runtime.gc_pause_p99_us"] = gcPauseP99US(m0, m1)
	vals["runtime.gc_cpu_frac"] = (m1.gcCPU - m0.gcCPU) / (m1.cpu - m0.cpu)
	runtime.GC()

	// Traced run.
	if s, err = w.start(seed, true, d); err != nil {
		return nil, verdict{}, err
	}
	if m0, m1, err = s.window(d); err != nil {
		return nil, verdict{}, err
	}
	s.quiesce()
	elapsed := float64(s.rec.now()) / 1e9
	events, counters := s.g.events(), sumCounters(s.g)
	s.g.close()
	tv := s.rec.check(nil)
	tv.attempted += v.attempted
	tv.failed += v.failed
	if tv.violation != "" {
		return nil, tv, nil
	}
	traced := segments(s.rec, tv, []mark{m0, m1}, allProcs)[0]
	vals["trace.overhead_frac"] = 1 - float64(traced.msgs)/traced.seconds/(float64(untraced.msgs)/untraced.seconds)
	stageMetrics(vals, events, s.rec, tv, m0.at, m1.at, allProcs)
	counterMetrics(vals, counters, len(s.rec.submitAt), elapsed)
	for _, name := range faultMetrics {
		vals[name] = 0 // no fault is injected on a closed-loop workload
	}
	return vals, tv, nil
}

// faultMetrics exist only where a crash is injected or the loop is open.
var faultMetrics = []string{
	"fault.failover_ms", "fault.restart_stall_ms", "fault.catchup_ms",
	"fd.detect_ms", "loadgen.sched_lag_p99_us",
}

// sumCounters adds up the processes' metric catalogs.
func sumCounters(g group) map[string]int64 {
	sum := make(map[string]int64)
	for p := 1; p <= n; p++ {
		for name, x := range g.counters(p) {
			sum[name] += x
		}
	}
	return sum
}

// counterMetrics derives the per-layer work counts from the summed
// registries of a traced run of msgs messages lasting seconds.
func counterMetrics(vals map[string]float64, c map[string]int64, msgs int, seconds float64) {
	per := func(name string) float64 { return float64(c[name]) / float64(msgs) }
	vals["relink.sequenced_per_msg"] = per("relink.sequenced")
	vals["relink.acks_per_msg"] = per("relink.acks")
	vals["relink.probes_per_msg"] = per("relink.probes")
	vals["relink.retransmitted"] = float64(c["relink.retransmitted"])
	vals["persist.checkpoints"] = float64(c["persist.checkpoints"])
	vals["persist.prunes"] = float64(c["persist.prunes"])
	vals["fd.heartbeats_s"] = float64(c["fd.heartbeats_sent"]) / seconds
	vals["fd.suspicions"] = float64(c["fd.suspicions"])
	vals["core.fetches"] = float64(c["core.fetches"])
	vals["core.snapshots_installed"] = float64(c["core.snapshots_installed"])
	vals["consensus.relays_sent"] = float64(c["consensus.relays_sent"])
}

// stageMetrics splits the latency of the messages submitted in [from, to)
// into stages, from the lifecycle trace joined to the harness's own
// timestamps by message id. One sample per (message, process in procs):
//
//	abcast.submit_us       submit → abroadcast event, plus adeliver event →
//	                       the harness has the delivery (time outside the engine)
//	rbcast.diffusion_us    abroadcast → first receipt at the process
//	consensus.order_us     receipt → the id enters the ordered queue
//	core.queue_us          ordered → adeliver
//
// which telescope to trace.latency_mean_us, the traced run's end-to-end
// mean. consensus.decide_us is propose → decide per (instance, process).
func stageMetrics(vals map[string]float64, events []trace.Event, rec *recorder, v verdict, from, to int64, procs []int) {
	index := make(map[msg.ID]int, len(v.seqs))
	for idx, seq := range v.seqs {
		if seq != 0 {
			index[msg.ID{Sender: stack.ProcessID(rec.in.sender(idx)), Seq: seq}] = idx
		}
	}
	stamps := func() [][]int64 {
		out := make([][]int64, n+1)
		for p := 1; p <= n; p++ {
			out[p] = make([]int64, len(v.seqs))
		}
		return out
	}
	abroadcast := make([]int64, len(v.seqs))
	receive, ordered, adeliver := stamps(), stamps(), stamps()
	proposed := make(map[[2]uint64]int64) // (process, instance) → propose instant
	var decideUS, idsDecided float64
	var decides, decidesAtP1 int
	for _, ev := range events {
		at := int64(ev.At.Sub(rec.base))
		switch ev.Kind {
		case trace.KindPropose:
			proposed[[2]uint64{uint64(ev.P), ev.K}] = at
			continue
		case trace.KindDecide:
			if at < from || at >= to {
				continue
			}
			if p, ok := proposed[[2]uint64{uint64(ev.P), ev.K}]; ok {
				decideUS += float64(at-p) / 1e3
				decides++
			}
			if ev.P == 1 {
				decidesAtP1++
				idsDecided += float64(ev.N)
			}
			continue
		}
		idx, ok := index[ev.ID]
		if !ok {
			continue
		}
		var slot *int64
		switch ev.Kind {
		case trace.KindABroadcast:
			slot = &abroadcast[idx]
		case trace.KindReceive:
			slot = &receive[ev.P][idx]
		case trace.KindOrdered:
			slot = &ordered[ev.P][idx]
		case trace.KindADeliver:
			slot = &adeliver[ev.P][idx]
		default:
			continue
		}
		if *slot == 0 { // a restarted process records some of these twice
			*slot = at
		}
	}
	var submit, diffusion, order, queue, total float64
	samples := 0
	for idx, sub := range rec.submitAt {
		if sub < from || sub >= to || abroadcast[idx] == 0 {
			continue
		}
		for _, p := range procs {
			if v.at[p][idx] == 0 || receive[p][idx] == 0 || ordered[p][idx] == 0 || adeliver[p][idx] == 0 {
				continue
			}
			submit += float64(abroadcast[idx] - sub + v.at[p][idx] - adeliver[p][idx])
			diffusion += float64(receive[p][idx] - abroadcast[idx])
			order += float64(ordered[p][idx] - receive[p][idx])
			queue += float64(adeliver[p][idx] - ordered[p][idx])
			total += float64(v.at[p][idx] - sub)
			samples++
		}
	}
	avg := func(sum float64, count int) float64 {
		if count == 0 {
			return 0
		}
		return sum / float64(count)
	}
	vals["abcast.submit_us"] = avg(submit, samples) / 1e3
	vals["rbcast.diffusion_us"] = avg(diffusion, samples) / 1e3
	vals["consensus.order_us"] = avg(order, samples) / 1e3
	vals["core.queue_us"] = avg(queue, samples) / 1e3
	vals["trace.latency_mean_us"] = avg(total, samples) / 1e3
	vals["consensus.decide_us"] = avg(decideUS, decides)
	vals["core.ids_per_instance"] = avg(idsDecided, decidesAtP1)
	vals["core.instances_s"] = float64(decidesAtP1) / (float64(to-from) / 1e9)
}
