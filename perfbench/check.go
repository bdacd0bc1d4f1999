package main

import (
	"fmt"

	"saad/internal/analyzer"
	"saad/internal/synopsis"
	"saad/internal/tracker"
)

// reference is the same generated stream replayed, untimed and in
// per-group order, into one analyzer.Detector.
type reference struct {
	anomalies   []analyzer.Anomaly
	late        uint64
	tasks       uint64
	fingerprint uint64
}

func (h *harness) reference() *reference {
	det := analyzer.NewDetector(h.model)
	fp := newFingerprint()
	var out []analyzer.Anomaly
	sink := tracker.SinkFunc(func(s *synopsis.Synopsis) {
		fp.add(s)
		out = append(out, det.Feed(s)...)
	})
	for _, spec := range h.specs {
		replay(spec, func(uint16) tracker.Sink { return sink })
	}
	out = append(out, det.Flush()...)
	analyzer.SortAnomalies(out)
	return &reference{anomalies: out, late: det.LateSynopses(), tasks: fp.n, fingerprint: fp.sum()}
}

// canonical reduces anomalies to representation-independent strings, in
// the form the federation equivalence experiment compares (time.Time
// internals differ across the wire round trip).
func canonical(as []analyzer.Anomaly) []string {
	out := make([]string, 0, len(as))
	for _, a := range as {
		ids := make([]uint64, 0, len(a.Examples))
		for _, ex := range a.Examples {
			ids = append(ids, ex.TaskID)
		}
		out = append(out, fmt.Sprintf("%s sig=%x test=%+v examples=%v", a.String(), a.Signature, a.Test, ids))
	}
	return out
}

// check runs the correctness gate on a finished pass against ref and
// returns one message per failed check, each naming the check.
func (h *harness) check(r *passResult, ref *reference) []string {
	var fails []string
	if lost := r.clientDropped + r.chanDropped + r.shed; r.ended != r.classified+lost {
		fails = append(fails, fmt.Sprintf("accounting: %d tasks ended != %d classified + %d client-dropped + %d channel-dropped + %d shed",
			r.ended, r.classified, r.clientDropped, r.chanDropped, r.shed))
	}
	if r.ended != ref.tasks {
		fails = append(fails, fmt.Sprintf("stream: %d tasks ended, the generated stream has %d", r.ended, ref.tasks))
	}
	got := h.anomalyList()
	_, _, flagged := h.quality(got)
	analyzer.SortAnomalies(got)
	g, w := canonical(got), canonical(ref.anomalies)
	if d := firstDiff(g, w); d != "" {
		fails = append(fails, fmt.Sprintf("anomalies: run has %d, single-detector replay has %d; %s", len(g), len(w), d))
	}
	if r.late != ref.late {
		fails = append(fails, fmt.Sprintf("late: run dropped %d late synopses, replay %d", r.late, ref.late))
	}
	if !flagged {
		fails = append(fails, "fault: the faulted (host, stage) was never flagged")
	}
	return fails
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("first difference at %d: run %q, replay %q", i, g, w)
		}
	}
	return ""
}
