package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// mark is the process's cumulative resource use at one instant.
type mark struct {
	at       int64    // ns since the recorder's base
	cpu      float64  // user+sys CPU seconds of this OS process (getrusage)
	allocs   float64  // heap objects allocated
	bytes    float64  // heap bytes allocated
	gcCPU    float64  // CPU seconds spent by the garbage collector
	gcPauses []uint64 // stop-the-world pauses for GC, by bucket of pauseBuckets
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

// pauseBuckets are the bucket edges of mark.gcPauses, in seconds (the
// runtime's histogram layout, which does not change within a process).
var pauseBuckets []float64

// takeMark reads the process's resource use; at is the caller's clock.
func takeMark(at int64) mark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	metrics.Read(runtimeSamples)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	pauses := runtimeSamples[3].Value.Float64Histogram()
	pauseBuckets = pauses.Buckets
	return mark{
		at:     at,
		cpu:    tv(ru.Utime) + tv(ru.Stime),
		allocs: float64(runtimeSamples[0].Value.Uint64()),
		bytes:  float64(runtimeSamples[1].Value.Uint64()),
		gcCPU:  runtimeSamples[2].Value.Float64(),
		// A copy: the runtime reuses the histogram's arrays between reads.
		gcPauses: append([]uint64(nil), pauses.Counts...),
	}
}

// gcPauseP99US is the 99th percentile, in µs, of the GC's stop-the-world
// pauses between two marks, as the upper edge of its bucket; 0 when there
// was none.
func gcPauseP99US(a, b mark) float64 {
	total := uint64(0)
	for i := range b.gcPauses {
		total += b.gcPauses[i] - a.gcPauses[i]
	}
	if total == 0 {
		return 0
	}
	rank, seen := (total*99+99)/100, uint64(0)
	for i := range b.gcPauses {
		if seen += b.gcPauses[i] - a.gcPauses[i]; seen >= rank {
			return pauseBuckets[i+1] * 1e6
		}
	}
	return 0
}

// markEvery takes parts+1 marks, the first at start (ns since base) and then
// one every span/parts, and returns them once the last is taken.
func markEvery(rec *recorder, start int64, span time.Duration, parts int) []mark {
	marks := make([]mark, 0, parts+1)
	for i := 0; i <= parts; i++ {
		due := start + int64(span)*int64(i)/int64(parts)
		time.Sleep(time.Duration(due - rec.now()))
		marks = append(marks, takeMark(rec.now()))
	}
	return marks
}

// segment is one stretch of a measured window: what was delivered in it and
// what the process spent meanwhile. Every reported timing is the median over
// a run's segments, so one disturbed stretch (a noisy neighbour, an
// unlucky GC cycle) does not move the result.
type segment struct {
	seconds float64
	msgs    int       // messages whose last adelivery fell in the segment
	latUS   []float64 // one sample per (message, process) adelivered in it, ascending
	cpu     float64   // CPU seconds
	allocs  float64
	bytes   float64
}

// segments cuts the deliveries recorded in v at the given marks. procs lists
// the processes whose adeliveries yield latency samples; a message counts
// as delivered once all of them have it.
func segments(rec *recorder, v verdict, marks []mark, procs []int) []segment {
	segs := make([]segment, len(marks)-1)
	for i := range segs {
		a, b := marks[i], marks[i+1]
		segs[i] = segment{
			seconds: float64(b.at-a.at) / 1e9,
			cpu:     b.cpu - a.cpu,
			allocs:  b.allocs - a.allocs,
			bytes:   b.bytes - a.bytes,
		}
	}
	find := func(at int64) int { // segment holding instant at, or -1
		i := sort.Search(len(marks), func(i int) bool { return marks[i].at > at }) - 1
		if i < 0 || i >= len(segs) {
			return -1
		}
		return i
	}
	for idx, sub := range rec.submitAt {
		last := int64(0)
		for _, p := range procs {
			at := v.at[p][idx]
			if at == 0 {
				last = 0
				break
			}
			if at > last {
				last = at
			}
		}
		if last == 0 {
			continue // not delivered everywhere: counted as failed by the oracle
		}
		if s := find(last); s >= 0 {
			segs[s].msgs++
		}
		for _, p := range procs {
			if s := find(v.at[p][idx]); s >= 0 {
				segs[s].latUS = append(segs[s].latUS, float64(v.at[p][idx]-sub)/1e3)
			}
		}
	}
	for i := range segs {
		sort.Float64s(segs[i].latUS)
	}
	return segs
}

// endToEnd computes the end-to-end metrics (setup_s apart) as medians over
// the segments.
func endToEnd(segs []segment) map[string]float64 {
	over := func(f func(s segment) float64) float64 {
		vals := make([]float64, 0, len(segs))
		for _, s := range segs {
			if s.msgs > 0 {
				vals = append(vals, f(s))
			}
		}
		return median(vals)
	}
	perMsg := func(total func(s segment) float64) float64 {
		return over(func(s segment) float64 { return total(s) / float64(s.msgs) })
	}
	return map[string]float64{
		"throughput_msgs_s":   over(func(s segment) float64 { return float64(s.msgs) / s.seconds }),
		"latency_p95_us":      over(func(s segment) float64 { return percentile(s.latUS, 0.95) }),
		"latency_mean_us":     over(func(s segment) float64 { return mean(s.latUS) }),
		"allocs_per_msg":      perMsg(func(s segment) float64 { return s.allocs }),
		"alloc_bytes_per_msg": perMsg(func(s segment) float64 { return s.bytes }),
	}
}
