package main

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"saad/internal/analyzer"
)

// pollEvery is the embedded workload's Monitor.Poll period.
const pollEvery = time.Millisecond

// drainTimeout bounds the wait for the last verdict after the generators
// finish; a synopsis still unclassified by then is lost.
const drainTimeout = 60 * time.Second

// passResult is what one timed pass measured.
type passResult struct {
	wall0, end                                    int64
	ended, classified, clientDropped, chanDropped uint64
	shed, late, windowsClosed, bytesSent          uint64
	cpuNs                                         int64
	allocBytes                                    uint64
	peakHeap, backlogMax                          float64
	heapSecs                                      []float64 // largest live heap of each whole second
	sampleBytes, sampleGrowth                     int
	controlNs                                     []float64
	checkpointBytes                               int64
	batchRecords                                  float64
	connErrors, overflows                         uint64
	busyNs, busyShare, shardSkew                  float64
	forwards, parked, handoffs, epochChanges      uint64
	ownerSkew                                     float64
	embeddedVerdictMs                             segments
	// ticks are (wall, cpu, classified) readings at each second of the
	// timed region; throughput and CPU per task are medians over them.
	ticks                  []progress
	throughput, cpuPerTask float64
}

type progress struct {
	at, cpu    int64
	classified uint64
}

// perSecond sets the throughput and CPU-per-task medians over the whole
// seconds of the timed region, or whole-run figures when it was shorter
// than three seconds.
func (r *passResult) perSecond() {
	var rates, cpus []float64
	for k := 1; k < len(r.ticks); k++ {
		a, b := r.ticks[k-1], r.ticks[k]
		n := float64(b.classified - a.classified)
		if n == 0 {
			continue
		}
		rates = append(rates, n/(float64(b.at-a.at)/1e9))
		cpus = append(cpus, float64(b.cpu-a.cpu)/n)
	}
	if len(rates) >= 3 {
		r.throughput, r.cpuPerTask = median(rates), median(cpus)
		return
	}
	r.throughput = float64(r.classified) / (float64(r.end-r.wall0) / 1e9)
	r.cpuPerTask = float64(r.cpuNs) / float64(r.ended)
}

// run drives one timed pass: generators from wall0 until every task ended;
// the clock stops once every synopsis is classified (release-hook count or
// final Poll), never on what was merely enqueued.
func (h *harness) run() (*passResult, error) {
	r := &passResult{controlNs: make([]float64, 0, 2*h.opts.seconds+8)}
	stopCtl := make(chan struct{})
	var ctlWG sync.WaitGroup
	if h.w.control {
		ctlWG.Add(1)
		go func() {
			defer ctlWG.Done()
			h.controlLoop(stopCtl, r)
		}()
	}
	epochs0 := h.ringEpochs()

	r.ticks = make([]progress, 0, h.opts.seconds+2)
	r.heapSecs = make([]float64, 0, h.opts.seconds+2)
	var bytes0, batches0 uint64
	var batchSum0 float64
	if h.cliMetrics != nil {
		bytes0, batches0, batchSum0 = h.cliMetrics.BytesSent.Value(), h.cliMetrics.BatchRecords.Count(), h.cliMetrics.BatchRecords.Sum()
	}
	r.sampleBytes = h.sampleBytes()
	cpu0, alloc0 := cpuNanos(), memAlloc()
	r.wall0 = now() + int64(time.Millisecond)
	h.clock.wall0 = r.wall0
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go h.sampleLoop(stopSampler, samplerDone, r)
	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	if h.mon != nil {
		go h.pollLoop(pollStop, pollDone)
	}
	var wg sync.WaitGroup
	for _, g := range h.gens {
		wg.Add(1)
		go func(g *generator) {
			defer wg.Done()
			g.runOpen(r.wall0)
		}(g)
	}
	wg.Wait()
	for _, g := range h.gens {
		r.ended += g.ended
	}

	// Flush the transport, then wait for the last verdict.
	for _, c := range h.clients {
		if err := c.Close(); err != nil {
			return nil, fmt.Errorf("close client: %w", err)
		}
	}
	if h.ring != nil {
		if err := h.ring.Close(); err != nil {
			return nil, fmt.Errorf("close ring client: %w", err)
		}
		r.clientDropped += h.ring.Dropped()
	}
	if h.cliMetrics != nil {
		r.clientDropped += h.cliMetrics.FramesDropped.Value()
		r.bytesSent = h.cliMetrics.BytesSent.Value() - bytes0
		if n := h.cliMetrics.BatchRecords.Count() - batches0; n > 0 {
			r.batchRecords = (h.cliMetrics.BatchRecords.Sum() - batchSum0) / float64(n)
		}
	}
	for _, e := range h.engines {
		r.shed += e.Shed()
	}
	if h.mon != nil {
		close(pollStop)
		<-pollDone
		if h.pollErr != nil {
			return nil, fmt.Errorf("poll: %w", h.pollErr)
		}
		snap := h.mon.MetricsSnapshot()
		r.classified = snap.Counter("saad_analyzer_synopses_fed_total")
		r.chanDropped = h.mon.Dropped()
		r.end = h.polls[len(h.polls)-1].end
	} else {
		want := r.ended - r.clientDropped - r.shed
		deadline := now() + int64(drainTimeout)
		for h.released.Load() < want && now() < deadline {
			time.Sleep(200 * time.Microsecond)
		}
		r.end = now()
		r.classified = h.released.Load()
	}
	r.cpuNs = cpuNanos() - cpu0
	r.allocBytes = memAlloc() - alloc0
	r.sampleGrowth = h.sampleBytes() - r.sampleBytes
	close(stopCtl)
	ctlWG.Wait()
	close(stopSampler)
	<-samplerDone
	r.perSecond()

	h.collectLayers(r, epochs0)
	h.flushing.Store(true)
	for _, e := range h.engines {
		e.Flush()
	}
	if h.mon != nil {
		as, err := h.mon.Flush()
		if err != nil {
			return nil, fmt.Errorf("monitor flush: %w", err)
		}
		h.anomalySink(as)
		r.embeddedVerdictMs = h.embeddedVerdicts()
	}
	h.close()
	return r, nil
}

// collectLayers reads the counters the program exposes, timing a Drain
// barrier on each engine as the last control call.
func (h *harness) collectLayers(r *passResult, epochs0 []uint64) {
	if h.srvMetrics != nil {
		r.connErrors = h.srvMetrics.ConnErrors.Value()
	}
	wall := float64(r.end - r.wall0)
	var busy, shards float64
	var perShard, perEngine []float64
	for i, e := range h.engines {
		t0 := now()
		e.Drain()
		r.controlNs = append(r.controlNs, float64(now()-t0))
		r.late += e.LateSynopses()
		m := h.engMetrics[i]
		r.windowsClosed += m.WindowsClosed.Value()
		var fed float64
		for s := 0; s < e.Shards(); s++ {
			label := strconv.Itoa(s)
			r.overflows += m.ShardOverflows.With(label).Value()
			busy += float64(m.ShardBusyNanos.With(label).Value())
			n := float64(m.ShardSynopses.With(label).Value())
			perShard = append(perShard, n)
			fed += n
			shards++
		}
		perEngine = append(perEngine, fed)
	}
	r.busyNs = busy
	if shards > 0 && wall > 0 {
		r.busyShare = busy / (shards * wall)
	}
	r.shardSkew = skew(perShard)
	if h.mon != nil {
		snap := h.mon.MetricsSnapshot()
		r.late = snap.Counter("saad_analyzer_late_synopses_total")
		r.windowsClosed = snap.Counter("saad_analyzer_windows_closed_total")
	}
	if len(h.peers) > 0 {
		r.ownerSkew = skew(perEngine)
		for i, p := range h.peers {
			st := p.Status()
			r.forwards += st.Forwards
			r.parked += st.Parked
			r.handoffs += st.HandoffsOut + st.HandoffsIn
			r.epochChanges += st.RingEpoch - epochs0[i]
		}
	}
}

func (h *harness) ringEpochs() []uint64 {
	var out []uint64
	for _, p := range h.peers {
		out = append(out, p.Membership().Epoch())
	}
	return out
}

// skew is max / mean of per-worker loads (1 = even).
func skew(loads []float64) float64 {
	m := mean(loads)
	if m == 0 {
		return 0
	}
	return maxOf(loads) / m
}

// sampleLoop samples the live heap every 10 ms, the embedded channel backlog
// every 100 ms, and CPU time, classified count and the second's largest
// live heap at each whole second. A Monitor snapshot allocates, so it is
// taken only at the 100 ms samples.
func (h *harness) sampleLoop(stop <-chan struct{}, done chan<- struct{}, r *passResult) {
	defer close(done)
	buf := heapSamples()
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	var secMax float64
	for k := 0; ; k++ {
		if v := sampleHeap(buf); v > secMax {
			secMax = v
		}
		wall0 := h.clock.wall0
		at := now()
		second := wall0 != 0 && at >= wall0+int64(len(r.ticks))*int64(time.Second)
		if second {
			if len(r.ticks) > 0 {
				r.heapSecs = append(r.heapSecs, secMax)
			}
			if secMax > r.peakHeap {
				r.peakHeap = secMax
			}
			secMax = 0
		}
		if h.mon == nil {
			if second {
				r.ticks = append(r.ticks, progress{at: at, cpu: cpuNanos(), classified: h.released.Load()})
			}
		} else if second || k%10 == 0 {
			snap := h.mon.MetricsSnapshot()
			if d := snap.Gauge("saad_stream_channel_depth"); d > r.backlogMax {
				r.backlogMax = d
			}
			if second {
				r.ticks = append(r.ticks, progress{at: at, cpu: cpuNanos(), classified: snap.Counter("saad_analyzer_synopses_fed_total")})
			}
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// controlLoop is the daemon's heartbeat and checkpoint tick: ShardStats
// every second, and WriteCheckpoint every 3 s, half a second after a
// ShardStats. The checkpoint goes to io.Discard, so the run measures the
// engine's quiesce and encoding, not the disk. Its encoding buffer is live
// for tens of milliseconds; once every 3 s it lies in at most 4 of a 10 s
// run's seconds, so the per-second median behind peak_heap_mb leaves it
// out whether or not a collection happens to mark during it.
func (h *harness) controlLoop(stop <-chan struct{}, r *passResult) {
	eng := h.engines[0]
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		t0 := now()
		switch {
		case k%2 == 0:
			eng.ShardStats()
		case k%6 == 3:
			if n, err := eng.WriteCheckpoint(io.Discard); err == nil {
				r.checkpointBytes = n
			}
		default:
			continue
		}
		r.controlNs = append(r.controlNs, float64(now()-t0))
	}
}

// pollLoop calls Monitor.Poll every pollEvery until stopped, then once more
// so everything emitted before the stop is classified.
func (h *harness) pollLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	next := now()
	for {
		stopping := false
		select {
		case <-stop:
			stopping = true
		default:
		}
		t0 := now()
		as, err := h.mon.Poll()
		t1 := now()
		h.mu.Lock()
		h.polls = append(h.polls, pollRec{start: t0, end: t1})
		if h.traced && len(h.polls)%16 == 0 {
			h.spans = append(h.spans, span{Trace: uint64(len(h.polls)), ID: spanPoll, Name: "monitor.poll", Layer: "saad", Start: t0, End: t1})
		}
		for _, a := range as {
			h.anomalies = append(h.anomalies, timedAnomaly{a: a, at: t1})
		}
		if err != nil && h.pollErr == nil {
			h.pollErr = err
		}
		h.mu.Unlock()
		if stopping {
			return
		}
		next += int64(pollEvery)
		if d := next - now(); d > 0 {
			time.Sleep(time.Duration(d))
		} else {
			next = now()
		}
	}
}

// embeddedVerdicts attributes each verdict-sampled task to the first Poll
// that began after its tick finished emitting: Poll drains the channel
// and classifies everything inline, so that Poll's return is the verdict.
func (h *harness) embeddedVerdicts() segments {
	g := h.gens[0]
	out := newSegments(h.opts.seconds, 0)
	p := 0
	for i, v := range g.embEnd {
		emitted := g.tickDone[g.embTick[i]]
		for p < len(h.polls)-1 && h.polls[p].start < emitted {
			p++
		}
		due := h.clock.wallOf(v)
		out.add(due-h.clock.wall0, float64(h.polls[p].end-due)/1e6)
	}
	return out
}

// alarmLatencies returns, per faulted window that alarmed before the final
// flush, the time from the window's scheduled end to the first anomaly
// reported for it.
func (h *harness) alarmLatencies() []float64 {
	w := int64(h.w.window)
	first := map[int64]int64{}
	for _, ta := range h.anomalies {
		a := ta.a
		if ta.flush || a.Host != h.fault.host || a.Stage != h.fault.stage {
			continue
		}
		ws := a.Window.UnixNano() - epoch
		if ws+w <= h.fault.from || ws >= h.fault.to {
			continue
		}
		if t, ok := first[ws]; !ok || ta.at < t {
			first[ws] = ta.at
		}
	}
	out := make([]float64, 0, len(first))
	for ws, at := range first {
		out = append(out, float64(at-h.clock.wallOf(ws+w))/1e6)
	}
	return out
}

// quality scores detection: anomalies outside the faulted group's faulted
// windows are false alarms; the lag is counted in windows from fault
// onset to the first anomaly on the faulted group.
func (h *harness) quality(as []analyzer.Anomaly) (falseAlarms int, lagWindows int, flagged bool) {
	w := int64(h.w.window)
	onset := h.fault.from / w * w
	stage := h.fault.stage
	firstWin := int64(-1)
	for _, a := range as {
		ws := a.Window.UnixNano() - epoch
		if a.Host != h.fault.host || a.Stage != stage || ws+w <= h.fault.from || ws >= h.fault.to {
			falseAlarms++
			continue
		}
		if firstWin < 0 || ws < firstWin {
			firstWin = ws
		}
	}
	if firstWin < 0 {
		return falseAlarms, 0, false
	}
	return falseAlarms, int((firstWin - onset) / w), true
}
