package main

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"saad/internal/logpoint"
	"saad/internal/storage/cassandra"
	"saad/internal/stream"
	"saad/internal/synopsis"
	ycsb "saad/internal/workload"
)

// epoch is the fixed virtual start of every generated stream. It lies on a
// minute boundary, so windows of 1 s and 1 min both start exactly at it.
var epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()

// The traffic shape is not invented: it is resampled from a short run of
// the repository's instrumented Cassandra model (internal/storage/cassandra,
// the system experiments.Fleet and the figure experiments drive), made at
// set-up from the seed. Its stages, the mix of tasks over them, each task's
// log points and hit counts, and its duration are the recorded ones.
const (
	cassHosts   = 4
	cassClients = 40                     // the experiments' client count …
	cassThink   = 150 * time.Millisecond // … and think time
	// cassSpan is the recorded run's length in its virtual time: two of the
	// experiments' paper minutes, about 35k tasks.
	cassSpan = 10 * time.Second
)

// flow is one recorded task: its host, stage, the log points it hit and
// how long it ran, in virtual nanoseconds on whole microseconds.
type flow struct {
	host   uint16
	stage  logpoint.StageID
	points []synopsis.PointCount
	hits   int
	dur    int64
}

// catalog is the recorded system: the tasks of each host, by host id, and
// the model's stage names.
type catalog struct {
	hosts []uint16
	tasks [][]*flow
	names map[logpoint.StageID]string
}

// newCatalog records cassSpan of the Cassandra model under the
// experiments' write-heavy YCSB mix and keeps the tasks of its first hosts
// nodes.
func newCatalog(seed int64, hosts int) (*catalog, error) {
	sink := stream.NewChannel(1 << 20)
	start := time.Unix(0, epoch).UTC()
	cass, err := cassandra.New(cassandra.Config{Hosts: cassHosts, Seed: uint64(seed), Sink: sink, Epoch: start})
	if err != nil {
		return nil, fmt.Errorf("cassandra model: %w", err)
	}
	gen := ycsb.NewGenerator(ycsb.Config{Records: 2000, Seed: uint64(seed) + 1, Mix: ycsb.WriteHeavy()})
	clients := ycsb.NewClientPool(cassClients, start, cassThink)
	for end := start.Add(cassSpan); ; {
		id, at := clients.Acquire()
		if at.After(end) {
			break
		}
		done, _ := cass.Execute(gen.Next(), at) // a failed op still leaves its tasks' synopses
		clients.Release(id, done)
	}
	c := &catalog{tasks: make([][]*flow, cassHosts+1), names: map[logpoint.StageID]string{}}
	for _, st := range cass.Dict().Stages() {
		c.names[st.ID] = st.Name
	}
	for h := 1; h <= hosts; h++ {
		c.hosts = append(c.hosts, uint16(h))
	}
	for _, s := range sink.Drain() {
		if int(s.Host) > hosts {
			continue
		}
		f := &flow{host: s.Host, stage: s.Stage, points: s.Points, dur: int64(s.Duration) / 1000 * 1000}
		for _, pc := range s.Points {
			f.hits += int(pc.Count)
		}
		c.tasks[s.Host] = append(c.tasks[s.Host], f)
	}
	for _, h := range c.hosts {
		if len(c.tasks[h]) == 0 {
			return nil, fmt.Errorf("cassandra model: host %d ran no tasks", h)
		}
	}
	return c, nil
}

// faultSpec is a gray fault on one (host, stage) group for tasks starting
// in [from, to) virtual ns after the epoch: flowShare of its tasks take a
// never-seen flow, perfShare run perfFactor times longer.
type faultSpec struct {
	host       uint16
	stage      logpoint.StageID
	from, to   int64
	flowShare  float64
	perfShare  float64
	perfFactor float64
	flows      []*flow
}

// newFault puts the fault on host's busiest stage. Its never-seen flows are
// the stage's most common flow plus one error log point that no recorded
// task hit.
func newFault(c *catalog, host uint16) faultSpec {
	f := faultSpec{host: host}
	perStage := map[logpoint.StageID]int{}
	var maxPoint logpoint.ID
	for _, hostTasks := range c.tasks {
		for _, t := range hostTasks {
			for _, pc := range t.points {
				if pc.Point > maxPoint {
					maxPoint = pc.Point
				}
			}
		}
	}
	for _, t := range c.tasks[host] {
		perStage[t.stage]++
		if n := perStage[t.stage]; n > perStage[f.stage] || (n == perStage[f.stage] && t.stage < f.stage) {
			f.stage = t.stage
		}
	}
	perFlow := map[string]int{}
	var common *flow
	var commonKey string
	for _, t := range c.tasks[host] {
		if t.stage != f.stage {
			continue
		}
		key := string(synopsis.Compute(pointIDs(t.points)))
		perFlow[key]++
		if common == nil || perFlow[key] > perFlow[commonKey] {
			common, commonKey = t, key
		}
	}
	for k := 1; k <= 2; k++ {
		pts := append(append([]synopsis.PointCount(nil), common.points...), synopsis.PointCount{Point: maxPoint + logpoint.ID(k), Count: 1})
		f.flows = append(f.flows, &flow{host: host, stage: f.stage, points: pts, hits: common.hits + 1})
	}
	return f
}

func pointIDs(pcs []synopsis.PointCount) []logpoint.ID {
	out := make([]logpoint.ID, len(pcs))
	for i, pc := range pcs {
		out[i] = pc.Point
	}
	return out
}

// streamSpec fixes one generator's share of a workload. All times are
// virtual nanoseconds after the epoch.
type streamSpec struct {
	cat      *catalog
	hosts    []uint16 // hosts this generator owns, with all their stages
	arrivals int
	span     int64
	fault    *faultSpec
	seed     int64
}

// task is one generated task, held until its end time is due.
type task struct {
	start, end int64
	seq        int
	flow       *flow
}

type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].end != h[j].end {
		return h[i].end < h[j].end
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// taskStream produces a generator's tasks in end-time order. Arrivals are
// evenly spaced with jitter, and each is a recorded task of one of the
// generator's hosts drawn at random; tasks overlap and end out of start
// order. The emitted order depends only on the spec, never
// on how advance is called, so every run of a seed emits the same sequence.
type taskStream struct {
	spec     streamSpec
	rng      *rand.Rand
	interval float64
	pool     []*flow
	next     int
	nextAt   int64
	pending  taskHeap
	free     []*task
}

func newStream(spec streamSpec) *taskStream {
	s := &taskStream{
		spec:     spec,
		rng:      rand.New(rand.NewSource(spec.seed)),
		interval: float64(spec.span) / float64(spec.arrivals),
	}
	for _, h := range spec.hosts {
		s.pool = append(s.pool, spec.cat.tasks[h]...)
	}
	s.nextAt = s.arrivalTime(0)
	return s
}

func (s *taskStream) arrivalTime(i int) int64 {
	return int64((float64(i) + s.rng.Float64()) * s.interval)
}

// advance emits, in end order, every task whose end is at or before v.
func (s *taskStream) advance(v int64, emit func(*task)) {
	for s.next < s.spec.arrivals && s.nextAt <= v {
		heap.Push(&s.pending, s.arrive())
	}
	for len(s.pending) > 0 && s.pending[0].end <= v {
		t := heap.Pop(&s.pending).(*task)
		emit(t)
		s.free = append(s.free, t)
	}
}

// done reports whether every task has been emitted.
func (s *taskStream) done() bool { return s.next == s.spec.arrivals && len(s.pending) == 0 }

func (s *taskStream) arrive() *task {
	var t *task
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		t = new(task)
	}
	sp := &s.spec
	rng := s.rng
	*t = task{start: s.nextAt / 1000 * 1000, seq: s.next}
	t.flow = s.pool[rng.Intn(len(s.pool))]
	dur := t.flow.dur
	f1, f2 := rng.Float64(), rng.Float64()
	if f := sp.fault; f != nil && t.flow.host == f.host && t.flow.stage == f.stage && t.start >= f.from && t.start < f.to {
		if f1 < f.flowShare {
			t.flow = f.flows[int(f2*float64(len(f.flows)))%len(f.flows)]
		} else if f1 < f.flowShare+f.perfShare {
			dur = int64(float64(dur)*f.perfFactor) / 1000 * 1000
		}
	}
	// The wire carries microseconds, so times are generated on whole
	// microseconds and a synopsis reads the same before and after it.
	t.end = t.start + dur
	s.next++
	if s.next < sp.arrivals {
		s.nextAt = s.arrivalTime(s.next)
	}
	return t
}

// hitTime returns the virtual time of a task's j-th of n hits: spread over
// the task with the last one exactly at its end, so the tracker's duration
// (start to last hit) equals the generated duration.
func hitTime(t *task, j, n int) int64 {
	return t.start + (t.end-t.start)*int64(j+1)/int64(n)
}

// vtime converts a virtual time to the UTC time.Time the tracker stamps,
// the form a synopsis also has after crossing the wire.
func vtime(v int64) time.Time { return time.Unix(0, epoch+v).UTC() }

// fingerprint hashes a synopsis stream in order: two runs whose
// fingerprints match saw identical inputs.
type fingerprint struct {
	h   hash.Hash64
	buf []byte
	n   uint64
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) add(s *synopsis.Synopsis) {
	b := f.buf[:0]
	b = binary.LittleEndian.AppendUint16(b, s.Host)
	b = binary.LittleEndian.AppendUint16(b, uint16(s.Stage))
	b = binary.LittleEndian.AppendUint64(b, s.TaskID)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Start.UnixNano()))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Duration))
	for _, pc := range s.Points {
		b = binary.LittleEndian.AppendUint16(b, uint16(pc.Point))
		b = binary.LittleEndian.AppendUint32(b, pc.Count)
	}
	f.buf = b
	_, _ = f.h.Write(b) // hash writes never fail
	f.n++
}

func (f *fingerprint) sum() uint64 { return f.h.Sum64() }
