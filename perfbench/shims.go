package main

import (
	"saad/internal/analyzer"
	"saad/internal/logpoint"
	"saad/internal/stream"
	"saad/internal/synopsis"
	"saad/internal/trace"
	"saad/internal/tracker"
)

// observeReleased is the verdict shim: the engine's release hook fires once
// per synopsis after its shard classified it. Only verdict-sampled
// synopses read the clock.
func (h *harness) observeReleased(batch []*synopsis.Synopsis) {
	var t int64
	for _, s := range batch {
		if s.TaskID&sampleMask != sampleVerdict {
			continue
		}
		if t == 0 {
			t = now()
			h.mu.Lock()
		}
		v := s.Start.UnixNano() - epoch + int64(s.Duration)
		due := h.clock.wallOf(v)
		h.verdictMs.add(due-h.clock.wall0, float64(t-due)/1e6)
	}
	if t != 0 {
		h.mu.Unlock()
	}
	h.released.Add(uint64(len(batch)))
}

func (h *harness) releaseBatch(batch []*synopsis.Synopsis) {
	h.observeReleased(batch)
	h.pool.PutN(batch) // nil-safe: the fleet runs without a pool
}

func (h *harness) releaseOne(s *synopsis.Synopsis) {
	one := [1]*synopsis.Synopsis{s}
	h.observeReleased(one[:])
	h.pool.Put(s)
}

func (h *harness) anomalySink(as []analyzer.Anomaly) {
	t := now()
	flush := h.flushing.Load()
	h.mu.Lock()
	for _, a := range as {
		h.anomalies = append(h.anomalies, timedAnomaly{a: a, at: t, flush: flush})
	}
	h.mu.Unlock()
}

func (h *harness) onSpan(sp *trace.Span) {
	h.mu.Lock()
	defer h.mu.Unlock()
	add := func(dst *[]float64, ns int64) {
		if ns > 0 {
			*dst = append(*dst, float64(ns)/1e3)
		}
	}
	add(&h.hops.emitToSend, sp.EmitToSend())
	add(&h.hops.wire, sp.Wire())
	add(&h.hops.queueWait, sp.QueueWait())
	add(&h.hops.detect, sp.DetectTime())
}

// feedTarget is what a stream server delivers into: an engine or a
// federation peer.
type feedTarget interface {
	tracker.Sink
	stream.BatchSink
}

// feedShim times the server's deliveries into the analyzer tier; the time
// includes blocking on a full shard queue.
type feedShim struct {
	h    *harness
	next feedTarget
}

func (f *feedShim) Emit(s *synopsis.Synopsis) {
	one := [1]*synopsis.Synopsis{s}
	if f.swallowWarmUp(one[:]) {
		return
	}
	f.timed(one[:], func() { f.next.Emit(s) })
}

func (f *feedShim) EmitBatch(batch []*synopsis.Synopsis) {
	if f.swallowWarmUp(batch) {
		return
	}
	f.timed(batch, func() { f.next.EmitBatch(batch) })
}

// swallowWarmUp counts and drops a delivery of warm-up synopses; they are
// sent only while the fleet dials its links, before any generated task.
func (f *feedShim) swallowWarmUp(batch []*synopsis.Synopsis) bool {
	if !f.h.warming.Load() {
		return false
	}
	for _, s := range batch {
		if s.Host != warmHost {
			return false
		}
	}
	f.h.warmed.Add(uint64(len(batch)))
	return true
}

// timed makes the delivery call and records its time; batch is read only
// before the call, which hands its ownership to the analyzer tier.
func (f *feedShim) timed(batch []*synopsis.Synopsis, call func()) {
	var traced []uint64
	if f.h.traced {
		for _, s := range batch {
			if s.TaskID%spanEvery == spanResidue {
				traced = append(traced, traceID(s.Host, s.TaskID))
			}
		}
	}
	n := len(batch)
	t0 := now()
	call()
	t1 := now()
	f.h.mu.Lock()
	f.h.feedNs = append(f.h.feedNs, float64(t1-t0))
	f.h.feedRecs += uint64(n)
	for _, id := range traced {
		f.h.spans = append(f.h.spans, span{Trace: id, ID: spanFeed, Parent: spanEmit, Name: "analyzer.feed", Layer: "analyzer", Start: t0, End: t1})
	}
	f.h.mu.Unlock()
}

// routeShim times the ring lookup RingClient.Emit makes for split-timed
// tasks; the flag it reads is set by the same generator goroutine.
type routeShim struct {
	h    *harness
	next stream.Router
}

func (r *routeShim) Route(host uint16, stage logpoint.StageID) (string, uint64) {
	g := r.h.gens[r.h.hostGen[host]]
	if !g.routeTimed {
		return r.next.Route(host, stage)
	}
	t0 := now()
	addr, epoch := r.next.Route(host, stage)
	g.routeStart, g.routeDur = t0, now()-t0
	return addr, epoch
}
