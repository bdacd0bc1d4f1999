package main

import "saad/internal/analyzer"

// endToEnd names the metrics a --trace 0 run prints, in BENCHMARK.json's
// order; perLayer those a --trace 1 run prints.
var endToEnd = []string{
	"setup_s", "verdict_p50_ms", "alarm_p50_ms",
	"task_p50_ns", "task_p95_ns", "cpu_us_per_task", "alloc_bytes_per_task", "peak_heap_mb",
}

var perLayer = []string{
	"tracker.begin_ns.p50", "tracker.hit_ns.mean", "tracker.end_self_ns.p50", "tracker.end_self_ns.p99",
	"stream.emit_ns.p50", "stream.emit_ns.p99", "stream.batch_records.mean", "stream.bytes_per_task",
	"stream.dropped", "stream.server_conn_errors",
	"stream.emit_to_send_us.p50", "stream.emit_to_send_us.p99", "stream.wire_us.p50", "stream.wire_us.p99",
	"analyzer.feed_ns.p50", "analyzer.feed_ns.p99", "analyzer.feed_batch_records.mean",
	"analyzer.overflows", "analyzer.shard_busy_share", "analyzer.shard_skew",
	"analyzer.queue_wait_us.p50", "analyzer.queue_wait_us.p99", "analyzer.detect_us.p50", "analyzer.detect_us.p99",
	"analyzer.control_ns.p50", "analyzer.control_ns.max", "analyzer.checkpoint_bytes",
	"analyzer.shed", "analyzer.late", "analyzer.windows_closed", "analyzer.anomalies",
	"monitor.poll_ns.p50", "monitor.poll_ns.p99", "monitor.poll_ns_per_synopsis", "monitor.poll_busy_share",
	"monitor.backlog_max", "monitor.dropped",
	"federation.route_ns.p50", "federation.forwards", "federation.parked", "federation.handoffs",
	"federation.owner_skew", "federation.epoch_changes",
	"gen.offered_sps", "gen.lag_p99_ms", "throughput_sps",
	"verdict_p95_ms", "verdict_p99_ms", "task_p99_ns", "analyzer.capacity_sps",
	"trace.overhead",
	"span.tracker.self_ns.mean", "span.stream.self_ns.mean", "span.federation.self_ns.mean",
	"span.analyzer.self_ns.mean", "span.saad.self_ns.mean", "span.count",
	"lost_ratio", "late_ratio", "false_alarms", "detect_lag_windows",
}

// tracedOnly are the per-layer metrics taken from the traced pass.
var tracedOnly = map[string]bool{
	"stream.emit_to_send_us.p50": true, "stream.emit_to_send_us.p99": true,
	"stream.wire_us.p50": true, "stream.wire_us.p99": true,
	"analyzer.queue_wait_us.p50": true, "analyzer.queue_wait_us.p99": true,
	"analyzer.detect_us.p50": true, "analyzer.detect_us.p99": true,
	"span.tracker.self_ns.mean": true, "span.stream.self_ns.mean": true,
	"span.federation.self_ns.mean": true, "span.analyzer.self_ns.mean": true, "span.saad.self_ns.mean": true,
	"span.count": true,
}

// report computes every metric of a pass. Percentiles of layers the
// workload does not exercise read 0; a percentile of an exercised layer
// without enough samples beyond it is an error.
func (h *harness) report(r *passResult) *metricSet {
	m := newMetricSet()
	ended := float64(r.ended)
	m.set("throughput_sps", "1/s", r.throughput)

	verdicts := h.verdictMs
	if h.mon != nil {
		verdicts = r.embeddedVerdictMs
	}
	m.segPct("verdict_p50_ms", "ms", verdicts, 0.5, true)
	m.segPct("verdict_p95_ms", "ms", verdicts, 0.95, true)
	m.segPct("verdict_p99_ms", "ms", verdicts, 0.99, true)
	m.pct("alarm_p50_ms", "ms", h.alarmLatencies(), 0.5, true)

	taskNs, lag := newSegments(h.opts.seconds, 0), newSegments(h.opts.seconds, 0)
	var beginNs, endSelf, emitNs, routeNs []float64
	var hitNs, hits float64
	var firstEmit, lastEmit int64
	for _, g := range h.gens {
		taskNs.merge(g.taskNs)
		beginNs = append(beginNs, g.beginNs...)
		endSelf = append(endSelf, g.endSelfNs...)
		emitNs = append(emitNs, g.emitNs...)
		routeNs = append(routeNs, g.routeNs...)
		lag.merge(g.lagMs)
		hitNs += g.hitNs
		hits += g.hits
		if firstEmit == 0 || g.firstEmit < firstEmit {
			firstEmit = g.firstEmit
		}
		if g.lastEmit > lastEmit {
			lastEmit = g.lastEmit
		}
	}
	m.segPct("task_p50_ns", "ns", taskNs, 0.5, true)
	m.segPct("task_p95_ns", "ns", taskNs, 0.95, true)
	m.segPct("task_p99_ns", "ns", taskNs, 0.99, true)
	m.set("cpu_us_per_task", "us", r.cpuPerTask/1e3)
	m.set("alloc_bytes_per_task", "bytes", float64(r.allocBytes)/ended)
	// The median over whole seconds of each second's largest live heap:
	// whether a collection happens to mark during a checkpoint moves a
	// single second's figure, not the median.
	heap := r.peakHeap
	if len(r.heapSecs) >= 3 {
		heap = median(r.heapSecs)
	}
	m.set("peak_heap_mb", "MB", (heap-float64(r.sampleBytes))/(1<<20))
	// Bytes the sample buffers grew by in the timed region; 0 means the
	// benchmark's own recording added nothing to alloc_bytes_per_task.
	m.set("gen.sample_growth_bytes", "bytes", float64(r.sampleGrowth))

	m.pct("tracker.begin_ns.p50", "ns", beginNs, 0.5, true)
	if hits > 0 {
		m.set("tracker.hit_ns.mean", "ns", hitNs/hits)
	}
	m.pct("tracker.end_self_ns.p50", "ns", endSelf, 0.5, true)
	m.pct("tracker.end_self_ns.p99", "ns", endSelf, 0.99, true)
	m.pct("stream.emit_ns.p50", "ns", emitNs, 0.5, false)
	m.pct("stream.emit_ns.p99", "ns", emitNs, 0.99, false)
	m.set("stream.batch_records.mean", "records", r.batchRecords)
	m.set("stream.bytes_per_task", "bytes", float64(r.bytesSent)/ended)
	m.set("stream.dropped", "count", float64(r.clientDropped))
	m.set("stream.server_conn_errors", "count", float64(r.connErrors))
	m.pct("stream.emit_to_send_us.p50", "us", h.hops.emitToSend, 0.5, false)
	m.pct("stream.emit_to_send_us.p99", "us", h.hops.emitToSend, 0.99, false)
	m.pct("stream.wire_us.p50", "us", h.hops.wire, 0.5, false)
	m.pct("stream.wire_us.p99", "us", h.hops.wire, 0.99, false)

	m.pct("analyzer.feed_ns.p50", "ns", h.feedNs, 0.5, false)
	m.pct("analyzer.feed_ns.p99", "ns", h.feedNs, 0.99, false)
	if n := len(h.feedNs); n > 0 {
		m.set("analyzer.feed_batch_records.mean", "records", float64(h.feedRecs)/float64(n))
	} else {
		m.set("analyzer.feed_batch_records.mean", "records", 0)
	}
	m.set("analyzer.overflows", "count", float64(r.overflows))
	m.set("analyzer.shard_busy_share", "ratio", r.busyShare)
	m.set("analyzer.shard_skew", "ratio", r.shardSkew)
	m.pct("analyzer.queue_wait_us.p50", "us", h.hops.queueWait, 0.5, false)
	m.pct("analyzer.queue_wait_us.p99", "us", h.hops.queueWait, 0.99, false)
	m.pct("analyzer.detect_us.p50", "us", h.hops.detect, 0.5, false)
	m.pct("analyzer.detect_us.p99", "us", h.hops.detect, 0.99, false)
	if len(r.controlNs) > 0 {
		m.set("analyzer.control_ns.p50", "ns", median(r.controlNs))
	} else {
		m.set("analyzer.control_ns.p50", "ns", 0)
	}
	m.set("analyzer.control_ns.max", "ns", maxOf(r.controlNs))
	m.set("analyzer.checkpoint_bytes", "bytes", float64(r.checkpointBytes))
	m.set("analyzer.shed", "count", float64(r.shed))
	m.set("analyzer.late", "count", float64(r.late))
	m.set("analyzer.windows_closed", "count", float64(r.windowsClosed))
	m.set("analyzer.anomalies", "count", float64(len(h.anomalies)))

	var pollNs []float64
	var pollTotal float64
	for _, p := range h.polls {
		d := float64(p.end - p.start)
		pollNs = append(pollNs, d)
		pollTotal += d
	}
	m.pct("monitor.poll_ns.p50", "ns", pollNs, 0.5, false)
	m.pct("monitor.poll_ns.p99", "ns", pollNs, 0.99, false)
	perSyn, busy := 0.0, 0.0
	if h.mon != nil {
		perSyn = pollTotal / float64(r.classified)
		busy = pollTotal / float64(r.end-r.wall0)
	}
	m.set("monitor.poll_ns_per_synopsis", "ns", perSyn)
	// The analyzer tier's capacity: classified synopses per second it was
	// busy — shard busy time summed over every engine's shards, or the
	// time inside Monitor.Poll.
	busyNs := r.busyNs
	if h.mon != nil {
		busyNs = pollTotal
	}
	if busyNs > 0 {
		m.set("analyzer.capacity_sps", "1/s", float64(r.classified)/(busyNs/1e9))
	}
	m.set("monitor.poll_busy_share", "ratio", busy)
	m.set("monitor.backlog_max", "count", r.backlogMax)
	m.set("monitor.dropped", "count", float64(r.chanDropped))

	m.pct("federation.route_ns.p50", "ns", routeNs, 0.5, false)
	m.set("federation.forwards", "count", float64(r.forwards))
	m.set("federation.parked", "count", float64(r.parked))
	m.set("federation.handoffs", "count", float64(r.handoffs))
	m.set("federation.owner_skew", "ratio", r.ownerSkew)
	m.set("federation.epoch_changes", "count", float64(r.epochChanges))

	if lastEmit > firstEmit {
		m.set("gen.offered_sps", "1/s", ended/(float64(lastEmit-firstEmit)/1e9))
	}
	m.segPct("gen.lag_p99_ms", "ms", lag, 0.99, true)

	spans := h.allSpans()
	sums := selfTimes(spans)
	for _, l := range spanLayers {
		m.set("span."+l+".self_ns.mean", "ns", sums[l])
	}
	m.set("span.count", "count", float64(len(spans)))

	falseAlarms, lagWindows, _ := h.quality(h.anomalyList())
	m.set("lost_ratio", "ratio", (ended-float64(r.classified))/ended)
	m.set("late_ratio", "ratio", float64(r.late)/ended)
	m.set("false_alarms", "count", float64(falseAlarms))
	m.set("detect_lag_windows", "windows", float64(lagWindows))
	return m
}

func (h *harness) anomalyList() []analyzer.Anomaly {
	out := make([]analyzer.Anomaly, 0, len(h.anomalies))
	for _, ta := range h.anomalies {
		out = append(out, ta.a)
	}
	return out
}

// allSpans merges the generators' spans with the server-side ones.
func (h *harness) allSpans() []span {
	out := append([]span(nil), h.spans...)
	for _, g := range h.gens {
		out = append(out, g.spans...)
	}
	return out
}
