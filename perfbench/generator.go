package main

import (
	"math"
	"time"

	"saad/internal/synopsis"
	"saad/internal/tracker"
)

// generator is one application goroutine: it owns some hosts, runs their
// tasks' tracker calls when each task is due, and times them from outside.
// Everything here is touched only by its own goroutine until the pass ends.
type generator struct {
	idx      int
	h        *harness
	st       *taskStream
	trackers []*tracker.Tracker // by host id
	ids      []uint64           // next task id by host id, mirroring the tracker
	emitFn   func(*task)
	ended    uint64

	// Set by emitShim and routeShim during a split-timed task's End.
	emitStart, emitDur   int64
	routeTimed           bool
	routeStart, routeDur int64

	taskNs, lagMs                       segments
	beginNs, endSelfNs, emitNs, routeNs []float64
	hitNs, hits                         float64
	tickOldest                          int64
	firstEmit, lastEmit                 int64

	// Embedded pipeline: verdict-sampled tasks and the wall time each tick
	// finished emitting, matched against the poller's calls afterwards.
	embEnd   []int64
	embTick  []int32
	tickDone []int64

	spans []span
}

// tick is the open-loop pacing period: each tick emits every task that has
// come due, so the generator wakes about a thousand times a second whatever
// the rate. It divides neither the 2 ms client flush tick nor the 1 ms poll
// period, so the generator's bursts sweep every phase of those timers
// instead of locking to one that differs from run to run.
const tick = 900 * time.Microsecond

// runOpen paces the stream against the wall clock from wall0.
func (g *generator) runOpen(wall0 int64) {
	for k := int64(1); !g.st.done(); k++ {
		if d := wall0 + k*int64(tick) - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		v := int64(float64(now()-wall0) * g.h.scale)
		g.advance(v)
	}
}

func (g *generator) advance(v int64) {
	g.tickOldest = math.MaxInt64
	before := g.ended
	g.st.advance(v, g.emitFn)
	t := now()
	if g.h.mon != nil {
		g.tickDone = append(g.tickDone, t)
	}
	if g.ended > before {
		if g.firstEmit == 0 {
			g.firstEmit = t
		}
		g.lastEmit = t
		due := g.h.clock.wallOf(g.tickOldest)
		g.lagMs.add(due-g.h.clock.wall0, float64(t-due)/1e6)
	}
}

// emit runs one task. Most tasks run untimed; sampled ones are timed whole
// or call by call.
func (g *generator) emit(t *task) {
	if t.end < g.tickOldest {
		g.tickOldest = t.end
	}
	g.ended++
	host := t.flow.host
	g.ids[host]++
	id := g.ids[host]
	tr := g.trackers[host]
	switch id & sampleMask {
	case sampleTotal:
		t0 := now()
		runTask(tr, t)
		g.taskNs.add(t0-g.h.clock.wall0, float64(now()-t0))
	case sampleSplit:
		g.runSplit(tr, t, id)
	case sampleVerdict:
		if g.h.mon != nil {
			g.embEnd = append(g.embEnd, t.end)
			g.embTick = append(g.embTick, int32(len(g.tickDone)))
		}
		runTask(tr, t)
	default:
		runTask(tr, t)
	}
}

// runSplit is runTask with a clock read between the calls.
func (g *generator) runSplit(tr *tracker.Tracker, t *task, id uint64) {
	g.emitDur, g.routeDur = -1, -1
	t0 := now()
	tk := tr.Begin(t.flow.stage, vtime(t.start))
	t1 := now()
	n := t.flow.hits
	j := 0
	for _, pc := range t.flow.points {
		for c := uint32(0); c < pc.Count; c++ {
			tk.Hit(pc.Point, vtime(hitTime(t, j, n)))
			j++
		}
	}
	t2 := now()
	tk.End(vtime(t.end))
	t3 := now()
	g.beginNs = append(g.beginNs, float64(t1-t0))
	g.hitNs += float64(t2 - t1)
	g.hits += float64(n)
	self := t3 - t2
	if g.emitDur >= 0 {
		self -= g.emitDur
		g.emitNs = append(g.emitNs, float64(g.emitDur))
	}
	if g.routeDur >= 0 {
		g.routeNs = append(g.routeNs, float64(g.routeDur))
	}
	g.endSelfNs = append(g.endSelfNs, float64(self))
	if g.h.traced && id%spanEvery == spanResidue {
		tid := traceID(t.flow.host, id)
		g.spans = append(g.spans,
			span{Trace: tid, ID: spanTask, Name: "gen.task", Layer: "gen", Start: t0, End: t3},
			span{Trace: tid, ID: spanBegin, Parent: spanTask, Name: "tracker.begin", Layer: "tracker", Start: t0, End: t1},
			span{Trace: tid, ID: spanHits, Parent: spanTask, Name: "tracker.hits", Layer: "tracker", Start: t1, End: t2},
			span{Trace: tid, ID: spanEnd, Parent: spanTask, Name: "tracker.end", Layer: "tracker", Start: t2, End: t3})
		if g.emitDur >= 0 {
			g.spans = append(g.spans, span{Trace: tid, ID: spanEmit, Parent: spanEnd, Name: "stream.emit", Layer: "stream", Start: g.emitStart, End: g.emitStart + g.emitDur})
		}
		if g.routeDur >= 0 {
			g.spans = append(g.spans, span{Trace: tid, ID: spanRoute, Parent: spanEmit, Name: "federation.route", Layer: "federation", Start: g.routeStart, End: g.routeStart + g.routeDur})
		}
	}
}

// emitShim is the tracker's sink: it times the transport's Emit for
// split-timed tasks and passes everything else straight through.
type emitShim struct {
	g    *generator
	next tracker.Sink
}

func (e *emitShim) Emit(s *synopsis.Synopsis) {
	if s.TaskID&sampleMask != sampleSplit {
		e.next.Emit(s)
		return
	}
	g := e.g
	g.routeTimed = true
	t0 := now()
	e.next.Emit(s)
	g.emitStart, g.emitDur = t0, now()-t0
	g.routeTimed = false
}
