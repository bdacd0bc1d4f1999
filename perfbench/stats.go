package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// base anchors now(): time.Since reads the monotonic clock.
var base = time.Now()

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(base)) }

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples, interpolating
// linearly between order statistics. It reports ok only when at least
// minBeyond samples lie beyond the quantile's rank. samples is sorted in
// place.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if n-1-lo < minBeyond {
		return 0, false
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	frac := pos - float64(lo)
	return samples[lo] + frac*(samples[lo+1]-samples[lo]), true
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

func maxOf(samples []float64) float64 {
	m := 0.0
	for _, v := range samples {
		if v > m {
			m = v
		}
	}
	return m
}

// median returns the median of a small set of values (0 when empty), for
// summaries such as repeated set-up times.
func median(values []float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if len(v) == 0 {
		return 0
	}
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// segments splits samples by the one-second segment of the timed region
// they fall in. A latency is reported as the median over segments of each
// segment's percentile, so a stall that hits one second of a run moves the
// figure far less than it would move the pooled percentile.
type segments [][]float64

// newSegments makes one segment per second, each with room for perSec
// samples, so recording a sample in the timed region does not allocate.
func newSegments(seconds, perSec int) segments {
	s := make(segments, seconds)
	for k := range s {
		s[k] = make([]float64, 0, perSec)
	}
	return s
}

// room returns a sample capacity for an expected count n, with a margin.
func room(n float64) int { return int(n*1.25) + 64 }

// bytes is the memory the segments hold for samples.
func (s segments) bytes() int {
	n := 0
	for _, seg := range s {
		n += 8 * cap(seg)
	}
	return n
}

// add files v under the segment holding at (ns since the timed region
// began); the drain after the last second belongs to the last segment.
func (s segments) add(at int64, v float64) {
	k := int(at / int64(time.Second))
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	s[k] = append(s[k], v)
}

func (s segments) merge(o segments) {
	for k := range s {
		s[k] = append(s[k], o[k]...)
	}
}

func (s segments) count() int {
	n := 0
	for _, seg := range s {
		n += len(seg)
	}
	return n
}

// pct returns the median over segments of each segment's q-quantile. It
// reports ok only when at least half the segments had enough samples.
func (s segments) pct(q float64) (float64, bool) {
	var vals []float64
	for _, seg := range s {
		if v, ok := percentile(seg, q); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 || 2*len(vals) < len(s) {
		return 0, false
	}
	return median(vals), true
}

// metricSet collects named metrics with units. A percentile without enough
// samples is left out and its reason kept, so a run never prints a number
// it could not support.
type metricSet struct {
	values map[string]metricValue
	errs   map[string]string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]metricValue{}, errs: map[string]string{}}
}

func (m *metricSet) set(name, unit string, v float64) {
	m.values[name] = metricValue{Value: v, Unit: unit}
}

// pct sets name to the q-quantile of samples, or records
// that too few samples lay beyond it. required=false records 0 for an
// empty sample set (a layer the workload does not exercise).
func (m *metricSet) pct(name, unit string, samples []float64, q float64, required bool) {
	if len(samples) == 0 && !required {
		m.set(name, unit, 0)
		return
	}
	v, ok := percentile(samples, q)
	if !ok {
		m.errs[name] = fmt.Sprintf("%s: %d samples, fewer than %d beyond the %.0fth percentile", name, len(samples), minBeyond, q*100)
		return
	}
	m.set(name, unit, v)
}

// segPct sets name to the median over segments of the q-quantile.
func (m *metricSet) segPct(name, unit string, s segments, q float64, required bool) {
	if s.count() == 0 && !required {
		m.set(name, unit, 0)
		return
	}
	v, ok := s.pct(q)
	if !ok {
		m.errs[name] = fmt.Sprintf("%s: %d samples, too few per segment beyond the %.0fth percentile", name, s.count(), q*100)
		return
	}
	m.set(name, unit, v)
}

// cpuNanos returns the process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// sampleHeap returns the bytes of heap objects the latest GC found live,
// read without stopping the world. Unlike HeapInuse it does not include the
// garbage allowed to pile up between collections, whose peak follows GC
// timing more than the program.
func sampleHeap(buf []metrics.Sample) float64 {
	metrics.Read(buf)
	if buf[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(buf[0].Value.Uint64())
}

func heapSamples() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
}

// memAlloc returns cumulative bytes allocated.
func memAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
