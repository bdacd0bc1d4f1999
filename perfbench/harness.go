package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"saad"
	"saad/internal/analyzer"
	"saad/internal/federation"
	"saad/internal/logpoint"
	smetrics "saad/internal/metrics"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/trace"
	"saad/internal/tracker"
)

// Task sampling by per-host task id (ids run 1, 2, ... per tracker, and a
// host belongs to exactly one generator, so the sampled set is the same on
// every run). Disjoint residues keep the clock reads of one measurement out
// of another.
const (
	sampleMask    = 7
	sampleTotal   = 1   // whole-task tracker time
	sampleVerdict = 3   // scheduled end → verdict
	sampleSplit   = 5   // Begin / Hit / End / Emit split
	spanEvery     = 256 // traced pass: benchmark spans on 1 in 256 tasks …
	spanResidue   = 133 // … chosen among the split-timed ones (133 % 8 == 5)
	programSample = 64  // traced pass: the program's own per-hop stamps
)

// options are the command-line settings of one invocation.
type options struct {
	seed     int64
	seconds  int
	trace    bool
	spansDir string
}

// clockMap converts a virtual time to the wall time it was due by the
// open-loop schedule.
type clockMap struct {
	wall0 int64
	scale float64
}

func (c *clockMap) wallOf(v int64) int64 { return c.wall0 + int64(float64(v)/c.scale) }

type timedAnomaly struct {
	a     analyzer.Anomaly
	at    int64
	flush bool
}

type pollRec struct{ start, end int64 }

// harness is one pass: the generated inputs, the running pipeline, and the
// collectors its shims feed.
type harness struct {
	w      *workload
	opts   options
	traced bool

	cat     *catalog
	cfg     analyzer.Config
	model   *analyzer.Model
	specs   []streamSpec
	scale   float64
	span    int64
	fault   faultSpec
	hostGen []int
	gens    []*generator

	pool       *synopsis.Pool
	engines    []*analyzer.Engine
	engMetrics []*smetrics.AnalyzerMetrics
	servers    []*stream.Server
	srvMetrics *smetrics.TCPServerMetrics
	clients    []*stream.Client
	cliMetrics *smetrics.TCPClientMetrics
	ring       *stream.RingClient
	peers      []*federation.Peer
	gossipers  []*federation.Gossiper
	tracer     *trace.Tracer
	mon        *saad.Monitor

	clock clockMap

	released atomic.Uint64
	flushing atomic.Bool
	warming  atomic.Bool
	warmed   atomic.Uint64

	mu        sync.Mutex
	verdictMs segments
	anomalies []timedAnomaly
	feedNs    []float64
	feedRecs  uint64
	hops      hopSamples
	spans     []span
	polls     []pollRec
	pollErr   error

	closeOnce sync.Once
}

type hopSamples struct {
	emitToSend, wire, queueWait, detect []float64
}

// newHarness generates the inputs, trains the model and starts the
// pipeline: everything up to the first timed task.
func newHarness(w *workload, opts options, traced bool) (*harness, error) {
	h, err := newInputs(w, opts)
	if err != nil {
		return nil, err
	}
	h.traced = traced
	if err := h.train(); err != nil {
		return nil, err
	}
	if traced {
		h.tracer = trace.New(trace.Config{SampleEvery: programSample})
		h.tracer.OnSpanDone = h.onSpan
	}
	switch w.kind {
	case pipeTCP:
		err = h.startTCP()
	case pipeEmbedded:
		err = h.startEmbedded()
	case pipeFleet:
		err = h.startFleet()
	}
	if err != nil {
		h.close()
		return nil, err
	}
	h.clock.scale = h.scale
	return h, nil
}

// newInputs derives the catalog, the fault and each generator's stream
// from the seed.
func newInputs(w *workload, opts options) (*harness, error) {
	// Sample buffers are sized here, before the timed region, for the
	// samples it is expected to record.
	secs := float64(opts.seconds)
	h := &harness{
		w: w, opts: opts,
		verdictMs: newSegments(opts.seconds, room(w.rate/(sampleMask+1))),
		// Two links each deliver about 650 batches a second: one per
		// 2 ms flush tick, plus those a full batch sends early.
		feedNs:    make([]float64, 0, room(2000*secs)),
		anomalies: make([]timedAnomaly, 0, 4096),
	}
	if w.kind == pipeEmbedded {
		h.polls = make([]pollRec, 0, room(secs*float64(time.Second/pollEvery)))
	}
	h.scale = float64(w.window) / float64(wallWindow)
	total := int(w.rate * float64(opts.seconds))
	h.span = int64(float64(opts.seconds) * 1e9 * h.scale)
	cat, err := newCatalog(opts.seed, w.hosts)
	if err != nil {
		return nil, err
	}
	h.cat = cat
	hosts := h.cat.hosts
	h.fault = newFault(h.cat, hosts[len(hosts)-1])
	h.fault.from, h.fault.to = h.span/3, 2*h.span/3
	h.fault.flowShare, h.fault.perfShare, h.fault.perfFactor = faultFlowShare, faultPerfShare, faultPerfFactor
	h.hostGen = make([]int, int(hosts[len(hosts)-1])+1)
	for k := 0; k < w.generators; k++ {
		spec := streamSpec{
			cat: h.cat, arrivals: total / w.generators, span: h.span,
			fault: &h.fault, seed: opts.seed*1_000_003 + int64(k) + 1,
		}
		for i, host := range hosts {
			if i%w.generators == k {
				spec.hosts = append(spec.hosts, host)
				h.hostGen[host] = k
			}
		}
		h.specs = append(h.specs, spec)
	}
	return h, nil
}

// train fits the model on a fault-free trace of the same catalog, drawn
// with its own seed.
func (h *harness) train() error {
	spec := streamSpec{
		cat: h.cat, hosts: h.cat.hosts, arrivals: trainTasks,
		span: h.span, seed: h.opts.seed ^ 0x5eed,
	}
	syns := make([]*synopsis.Synopsis, 0, spec.arrivals)
	collect := tracker.SinkFunc(func(s *synopsis.Synopsis) { syns = append(syns, s) })
	replay(spec, func(uint16) tracker.Sink { return collect })
	h.cfg = analyzer.DefaultConfig()
	h.cfg.Window = h.w.window
	model, err := analyzer.Train(h.cfg, syns)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	h.model = model
	return nil
}

// replay emits spec's whole stream through one tracker per host, as fast
// as possible; the emitted sequence is the one a timed run produces.
func replay(spec streamSpec, sinkFor func(host uint16) tracker.Sink) {
	trs := map[uint16]*tracker.Tracker{}
	for _, host := range spec.hosts {
		trs[host] = tracker.New(host, sinkFor(host))
	}
	st := newStream(spec)
	step := spec.span / 1000
	if step < 1 {
		step = 1
	}
	emit := func(t *task) { runTask(trs[t.flow.host], t) }
	for v := step; !st.done(); v += step {
		if v > spec.span {
			v = math.MaxInt64
		}
		st.advance(v, emit)
	}
}

// runTask makes one task's tracker calls: Begin at its start, its hits
// spread over its duration with the last one at its end, then End.
func runTask(tr *tracker.Tracker, t *task) {
	tk := tr.Begin(t.flow.stage, vtime(t.start))
	n := t.flow.hits
	j := 0
	for _, pc := range t.flow.points {
		for c := uint32(0); c < pc.Count; c++ {
			tk.Hit(pc.Point, vtime(hitTime(t, j, n)))
			j++
		}
	}
	tk.End(vtime(t.end))
}

// engineOpts wires an engine as the analyzer daemon does: GOMAXPROCS
// shards, engine metrics, an anomaly sink, and release hooks, here wrapped
// by the verdict shims.
func (h *harness) engineOpts(m *smetrics.AnalyzerMetrics) []analyzer.EngineOption {
	opts := []analyzer.EngineOption{
		analyzer.WithShards(0),
		analyzer.WithEngineMetrics(m),
		analyzer.WithAnomalySink(h.anomalySink),
		analyzer.WithSynopsisRelease(h.releaseOne),
		analyzer.WithSynopsisReleaseBatch(h.releaseBatch),
	}
	if h.tracer != nil {
		opts = append(opts, analyzer.WithEngineTracer(h.tracer))
	}
	return opts
}

func (h *harness) startTCP() error {
	h.pool = synopsis.NewPool(32768)
	m := smetrics.NewAnalyzerMetrics(smetrics.NewRegistry())
	eng := analyzer.NewEngine(h.model, h.engineOpts(m)...)
	h.engines, h.engMetrics = append(h.engines, eng), append(h.engMetrics, m)
	h.srvMetrics = smetrics.NewTCPServerMetrics(smetrics.NewRegistry())
	srvOpts := []stream.ServerOption{stream.WithServerMetrics(h.srvMetrics), stream.WithServerPool(h.pool)}
	if h.tracer != nil {
		srvOpts = append(srvOpts, stream.WithServerSampler(h.tracer.Sampler()))
	}
	srv, err := stream.Listen("127.0.0.1:0", &feedShim{h: h, next: eng}, srvOpts...)
	if err != nil {
		return err
	}
	h.servers = append(h.servers, srv)
	h.cliMetrics = smetrics.NewTCPClientMetrics(smetrics.NewRegistry())
	for k := range h.specs {
		c, err := stream.Dial(srv.Addr(), flushEvery, stream.WithClientMetrics(h.cliMetrics))
		if err != nil {
			return err
		}
		h.clients = append(h.clients, c)
		h.addGenerator(k, c)
	}
	return nil
}

func (h *harness) startEmbedded() error {
	mon, err := saad.NewMonitor(saad.WithHost(h.cat.hosts[0]), saad.WithAnalyzerConfig(h.cfg))
	if err != nil {
		return err
	}
	mon.SetModel(h.model)
	h.mon = mon
	g := h.addGenerator(0, nil)
	// The monitor owns its tracker and the channel behind it, so End is
	// timed whole: the Channel.Emit inside it is not separable here.
	tr := mon.Tracker()
	if h.tracer != nil {
		tr.SetSampler(h.tracer.Sampler())
	}
	g.trackers[h.cat.hosts[0]] = tr
	return nil
}

// fleetPeers is the federation size of the fleet workload.
const fleetPeers = 2

func (h *harness) startFleet() error {
	var infos []federation.PeerInfo
	h.srvMetrics = smetrics.NewTCPServerMetrics(smetrics.NewRegistry())
	for i := 0; i < fleetPeers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		m := smetrics.NewAnalyzerMetrics(smetrics.NewRegistry())
		eng := analyzer.NewEngine(h.model, h.engineOpts(m)...)
		h.engines, h.engMetrics = append(h.engines, eng), append(h.engMetrics, m)
		p, err := federation.NewPeer(federation.PeerConfig{
			Self:   federation.PeerInfo{ID: fmt.Sprintf("peer-%d", i+1), Addr: ln.Addr().String()},
			Engine: eng,
			// Generous failure-detector timeouts keep membership steady
			// while a loaded 2-CPU host delays heartbeats.
			Membership: federation.MembershipConfig{SuspectAfter: time.Minute, DeadAfter: 2 * time.Minute},
		})
		if err != nil {
			_ = ln.Close()
			return err
		}
		h.peers = append(h.peers, p)
		srvOpts := []stream.ServerOption{stream.WithServerProtocol(synopsis.ProtocolV2), stream.WithServerMetrics(h.srvMetrics)}
		if h.tracer != nil {
			srvOpts = append(srvOpts, stream.WithServerSampler(h.tracer.Sampler()))
		}
		h.servers = append(h.servers, stream.NewServer(ln, &feedShim{h: h, next: p}, srvOpts...))
		g, err := federation.StartGossiper(p.Membership(), "127.0.0.1:0", 0)
		if err != nil {
			return err
		}
		h.gossipers = append(h.gossipers, g)
		infos = append(infos, p.Self())
	}
	for i, p := range h.peers {
		for j, info := range infos {
			if i != j {
				p.Membership().AddPeer(info)
			}
		}
	}
	h.cliMetrics = smetrics.NewTCPClientMetrics(smetrics.NewRegistry())
	router := &routeShim{h: h, next: federation.NewStaticRouter(infos, 0)}
	h.ring = stream.NewRingClient(router, flushEvery, stream.WithClientMetrics(h.cliMetrics))
	for k := range h.specs {
		h.addGenerator(k, h.ring)
	}
	return h.dialRing(router, len(infos))
}

// warmHost is the host id of the fleet's warm-up synopses; generated hosts
// start at 1.
const warmHost = 0

// dialRing opens the ring client's peer links before the timed region.
// RingClient dials a link on its first Emit, so one warm-up synopsis goes to
// each peer, and the feed shim swallows it before the peer sees it.
func (h *harness) dialRing(router stream.Router, peers int) error {
	h.warming.Store(true)
	defer h.warming.Store(false)
	seen := map[string]bool{}
	for stage := logpoint.StageID(1); len(seen) < peers && stage < 1<<12; stage++ {
		addr, _ := router.Route(warmHost, stage)
		if !seen[addr] {
			seen[addr] = true
			h.ring.Emit(&synopsis.Synopsis{Host: warmHost, Stage: stage, Start: vtime(0)})
		}
	}
	deadline := now() + int64(10*time.Second)
	for h.warmed.Load() < uint64(len(seen)) {
		if now() > deadline {
			return fmt.Errorf("fleet: %d of %d peer links carried their warm-up synopsis", h.warmed.Load(), len(seen))
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// addGenerator creates generator k with one tracker per owned host, each
// emitting through the timing shim into next (nil: trackers are set by the
// caller).
func (h *harness) addGenerator(k int, next tracker.Sink) *generator {
	secs := float64(h.opts.seconds)
	perGen := h.w.rate / float64(h.w.generators) / (sampleMask + 1) // tasks per second in one sample class
	ticks := float64(time.Second / tick)
	g := &generator{
		idx: k, h: h, st: newStream(h.specs[k]),
		taskNs:    newSegments(h.opts.seconds, room(perGen)),
		lagMs:     newSegments(h.opts.seconds, room(ticks)),
		beginNs:   make([]float64, 0, room(perGen*secs)),
		endSelfNs: make([]float64, 0, room(perGen*secs)),
	}
	if next != nil {
		g.emitNs = make([]float64, 0, room(perGen*secs))
	}
	if h.ring != nil {
		g.routeNs = make([]float64, 0, room(perGen*secs))
	}
	if h.w.kind == pipeEmbedded {
		g.embEnd = make([]int64, 0, room(perGen*secs))
		g.embTick = make([]int32, 0, room(perGen*secs))
		g.tickDone = make([]int64, 0, room(ticks*secs))
	}
	g.trackers = make([]*tracker.Tracker, len(h.hostGen))
	g.ids = make([]uint64, len(h.hostGen))
	g.emitFn = g.emit
	if next != nil {
		shim := &emitShim{g: g, next: next}
		for _, host := range h.specs[k].hosts {
			tr := tracker.New(host, shim)
			if h.tracer != nil {
				tr.SetSampler(h.tracer.Sampler())
			}
			g.trackers[host] = tr
		}
	}
	h.gens = append(h.gens, g)
	return g
}

// sampleBytes is the memory of the benchmark's own sample buffers, which
// peak_heap_mb leaves out.
func (h *harness) sampleBytes() int {
	n := h.verdictMs.bytes() + 8*cap(h.feedNs) + 16*cap(h.polls)
	for _, g := range h.gens {
		n += g.taskNs.bytes() + g.lagMs.bytes()
		n += 8 * (cap(g.beginNs) + cap(g.endSelfNs) + cap(g.emitNs) + cap(g.routeNs) + cap(g.embEnd) + cap(g.tickDone))
		n += 4 * cap(g.embTick)
	}
	return n
}

// close stops every goroutine the pipeline started and waits for them.
func (h *harness) close() {
	h.closeOnce.Do(func() {
		for _, c := range h.clients {
			_ = c.Close()
		}
		if h.ring != nil {
			_ = h.ring.Close()
		}
		for _, s := range h.servers {
			_ = s.Close()
		}
		for _, g := range h.gossipers {
			_ = g.Close()
		}
		for _, p := range h.peers {
			_ = p.Close()
		}
		for _, e := range h.engines {
			_ = e.Close()
		}
		if h.mon != nil {
			_ = h.mon.Close()
		}
	})
}
