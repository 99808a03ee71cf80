package main

// decl declares one metric: the same name, unit and direction BENCHMARK.json
// carries (the smoke test holds the two together).
type decl struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is rejected (per-layer: none).
	bound float64
}

// endToEndMetrics are reported by the untraced pass of every workload.
var endToEndMetrics = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_msgs_s", "1/s", "higher", 0.25},
	{"latency_p95_us", "us", "lower", 0.25},
	{"latency_mean_us", "us", "lower", 0.25},
	{"allocs_per_msg", "count", "lower", 0.1},
	{"alloc_bytes_per_msg", "B", "lower", 0.25},
}

// perLayerMetrics are reported by the per-layer pass of every workload,
// named <module>.<metric>.
var perLayerMetrics = []decl{
	// From the traced run of the workload.
	{"abcast.submit_us", "us", "lower", 0},
	{"rbcast.diffusion_us", "us", "lower", 0},
	{"consensus.order_us", "us", "lower", 0},
	{"consensus.decide_us", "us", "lower", 0},
	{"core.queue_us", "us", "lower", 0},
	{"core.ids_per_instance", "count", "higher", 0},
	{"core.instances_s", "1/s", "higher", 0},
	{"abcast.latency_p50_us", "us", "lower", 0},
	{"abcast.latency_p99_us", "us", "lower", 0},
	{"trace.latency_mean_us", "us", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"relink.sequenced_per_msg", "count", "lower", 0},
	{"relink.acks_per_msg", "count", "lower", 0},
	{"relink.probes_per_msg", "count", "lower", 0},
	{"relink.retransmitted", "count", "lower", 0},
	{"persist.checkpoints", "count", "lower", 0},
	{"persist.prunes", "count", "higher", 0},
	{"persist.working_set_mb", "MB", "lower", 0},
	{"fd.heartbeats_s", "1/s", "lower", 0},
	{"fd.suspicions", "count", "lower", 0},
	{"fd.detect_ms", "ms", "lower", 0},
	{"core.fetches", "count", "lower", 0},
	{"core.snapshots_installed", "count", "lower", 0},
	{"consensus.relays_sent", "count", "lower", 0},
	{"runtime.cpu_us_per_msg", "us", "lower", 0},
	{"runtime.gc_pause_p99_us", "us", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.heap_retained_b_per_msg", "B", "lower", 0},
	{"loadgen.sched_lag_p99_us", "us", "lower", 0},
	{"fault.failover_ms", "ms", "lower", 0},
	{"fault.restart_stall_ms", "ms", "lower", 0},
	{"fault.catchup_ms", "ms", "lower", 0},
	// From the layer pass.
	{"wire.encode_ns_64", "ns", "lower", 0},
	{"wire.decode_ns_64", "ns", "lower", 0},
	{"wire.encode_ns_16k", "ns", "lower", 0},
	{"wire.decode_ns_16k", "ns", "lower", 0},
	{"wire.encode_ns_proposal", "ns", "lower", 0},
	{"wire.decode_ns_proposal", "ns", "lower", 0},
	{"wire.allocs_encode", "count", "lower", 0},
	{"wire.allocs_decode", "count", "lower", 0},
	{"wire.overhead_bytes", "B", "lower", 0},
	{"tcpnet.rtt_us_64", "us", "lower", 0},
	{"tcpnet.stream_frames_s_64", "1/s", "higher", 0},
	{"tcpnet.stream_mb_s_16k", "MB/s", "higher", 0},
	{"tcpnet.send_ns_64", "ns", "lower", 0},
	{"tcpnet.connect_ms", "ms", "lower", 0},
	{"tcpnet.write_syscalls_per_frame", "count", "lower", 0},
	{"live.rtt_us", "us", "lower", 0},
	{"live.stream_msgs_s", "1/s", "higher", 0},
	{"live.hop_floor_us", "us", "lower", 0},
	{"relink.send_ns", "ns", "lower", 0},
	{"relink.allocs_per_send", "count", "lower", 0},
	{"core.deliver_us", "us", "lower", 0},
	{"core.allocs_per_delivery", "count", "lower", 0},
	{"consensus.instance_us", "us", "lower", 0},
	{"consensus.allocs_per_instance", "count", "lower", 0},
	{"rbcast.msgs_per_abcast", "count", "lower", 0},
	{"consensus.msgs_per_abcast", "count", "lower", 0},
	{"rbcast.wire_bytes_per_abcast_64", "B", "lower", 0},
	{"rbcast.wire_bytes_per_abcast_16k", "B", "lower", 0},
	{"consensus.wire_bytes_per_abcast_64", "B", "lower", 0},
	{"consensus.wire_bytes_per_abcast_16k", "B", "lower", 0},
	{"fd.msgs_per_s", "1/s", "lower", 0},
	{"simnet.abcasts_s", "1/s", "higher", 0},
	{"sim.events_s", "1/s", "higher", 0},
	{"persist.wal_append_us_mem", "us", "lower", 0},
	{"persist.wal_append_us_file", "us", "lower", 0},
	{"persist.checkpoint_us_mem", "us", "lower", 0},
	{"persist.checkpoint_us_file", "us", "lower", 0},
	{"trace.record_ns", "ns", "lower", 0},
	{"metrics.inc_ns", "ns", "lower", 0},
	{"abcast.new_ms", "ms", "lower", 0},
	{"abcast.n1_msgs_s", "1/s", "higher", 0},
}

var units = func() map[string]string {
	m := make(map[string]string, len(endToEndMetrics)+len(perLayerMetrics))
	for _, d := range append(append([]decl(nil), endToEndMetrics...), perLayerMetrics...) {
		m[d.name] = d.unit
	}
	return m
}()

// unitOf is the declared unit of a metric ("" if it is not declared, which
// the smoke test rejects).
func unitOf(name string) string { return units[name] }
