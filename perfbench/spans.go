package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed call into a layer, recorded by the benchmark in its
// traced pass. Spans of one task share its trace id; a span's parent is
// the span that caused it.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span ids within a task's trace.
const (
	spanTask = iota + 1
	spanBegin
	spanHits
	spanEnd
	spanEmit
	spanRoute
	spanFeed
	spanPoll
)

func traceID(host uint16, taskID uint64) uint64 { return uint64(host)<<48 | taskID }

// spanLayers lists the layers whose self time the traced pass reports.
// The generator's task span is fully covered by its tracker children, so
// it has no self time to report.
var spanLayers = []string{"tracker", "stream", "federation", "analyzer", "saad"}

// selfTimes returns each layer's mean self time per span: a span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	type key struct {
		trace uint64
		id    int
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	sum := map[string]float64{}
	cnt := map[string]float64{}
	for _, s := range spans {
		self := s.End - s.Start
		kids := children[key{s.Trace, s.ID}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cursor := s.Start
		for _, c := range kids {
			lo, hi := c.Start, c.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				self -= hi - lo
				cursor = hi
			}
		}
		sum[s.Layer] += float64(self)
		cnt[s.Layer]++
	}
	out := map[string]float64{}
	for l, n := range cnt {
		out[l] = sum[l] / n
	}
	return out
}

// writeSpans writes the spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
