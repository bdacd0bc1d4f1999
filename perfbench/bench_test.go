package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"saad/internal/synopsis"
)

// tiny is a one-second open-loop TCP workload small enough for a unit test.
var tiny = workload{name: "tiny", kind: pipeTCP, hosts: 2, generators: 2, window: time.Second, rate: 20_000}

func tinyOpts(seed int64) options { return options{seed: seed, seconds: 1} }

func tinyReference(t *testing.T, seed int64) *reference {
	t.Helper()
	h, err := newInputs(&tiny, tinyOpts(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.train(); err != nil {
		t.Fatal(err)
	}
	return h.reference()
}

func TestFingerprintFollowsSeed(t *testing.T) {
	a, b, c := tinyReference(t, 1), tinyReference(t, 1), tinyReference(t, 2)
	if a.fingerprint != b.fingerprint || a.tasks != b.tasks {
		t.Fatalf("seed 1 twice: fingerprints %x/%x, tasks %d/%d", a.fingerprint, b.fingerprint, a.tasks, b.tasks)
	}
	if a.fingerprint == c.fingerprint {
		t.Fatalf("seeds 1 and 2 share fingerprint %x", a.fingerprint)
	}
	if len(canonical(a.anomalies)) != len(canonical(b.anomalies)) {
		t.Fatal("seed 1 twice: anomaly sets differ")
	}
}

// runTiny sets up a tiny pass, lets prepare alter it, runs it and replays
// its stream.
func runTiny(t *testing.T, prepare func(h *harness)) (*harness, *passResult, *reference) {
	t.Helper()
	h, err := newHarness(&tiny, tinyOpts(7), false)
	if err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(h)
	}
	r, err := h.run()
	if err != nil {
		t.Fatal(err)
	}
	return h, r, h.reference()
}

func TestGatePassesAndTripsOnPerturbedReference(t *testing.T) {
	h, r, ref := runTiny(t, nil)
	if fails := h.check(r, ref); len(fails) != 0 {
		t.Fatalf("clean run failed the gate: %v", fails)
	}
	if len(ref.anomalies) == 0 {
		t.Fatal("the tiny run produced no anomalies to compare")
	}

	perturbed := *ref
	perturbed.anomalies = append(perturbed.anomalies[:0:0], ref.anomalies[1:]...)
	fails := h.check(r, &perturbed)
	if len(fails) != 1 || !strings.HasPrefix(fails[0], "anomalies:") {
		t.Fatalf("reference missing one anomaly: gate said %v, want one anomalies failure", fails)
	}

	if fails := h.check(r, tinyReference(t, 8)); len(fails) == 0 {
		t.Fatal("reference from another seed passed the gate")
	}
}

func TestForcedClientDropCountsAsLost(t *testing.T) {
	// A closed client drops and counts every synopsis emitted into it.
	h, r, ref := runTiny(t, func(h *harness) { _ = h.clients[0].Close() })
	if r.clientDropped == 0 {
		t.Fatal("closing a client before the run dropped nothing")
	}
	for _, f := range h.check(r, ref) {
		if strings.HasPrefix(f, "accounting:") {
			t.Fatalf("accounting identity broken by drops: %s", f)
		}
	}
	m := h.report(r)
	want := float64(r.clientDropped) / float64(r.ended)
	if got := m.values["lost_ratio"].Value; got != want || got == 0 {
		t.Fatalf("lost_ratio = %v, want %v", got, want)
	}
}

func TestCatalogIsTheRecordedCassandraRun(t *testing.T) {
	h, err := newInputs(&tiny, tinyOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, host := range h.cat.hosts {
		for _, f := range h.cat.tasks[host] {
			if h.cat.names[f.stage] == "" {
				t.Fatalf("host %d ran a task of unnamed stage %d", host, f.stage)
			}
			seen[string(synopsis.Compute(pointIDs(f.points)))] = true
		}
	}
	if len(h.cat.hosts) != tiny.hosts {
		t.Fatalf("catalog hosts %v, want %d", h.cat.hosts, tiny.hosts)
	}
	if h.cat.names[h.fault.stage] == "" || len(h.fault.flows) != 2 {
		t.Fatalf("fault on stage %d with %d flows", h.fault.stage, len(h.fault.flows))
	}
	for _, f := range h.fault.flows {
		if seen[string(synopsis.Compute(pointIDs(f.points)))] {
			t.Fatalf("fault flow %v was recorded in the normal run", f.points)
		}
	}
}

// The timed region must not grow the sample buffers: growing them would
// put the benchmark's own allocations into alloc_bytes_per_task.
func TestTimedRegionKeepsSampleBuffers(t *testing.T) {
	h, err := newHarness(&tiny, tinyOpts(5), false)
	if err != nil {
		t.Fatal(err)
	}
	before := h.sampleBytes()
	if _, err := h.run(); err != nil {
		t.Fatal(err)
	}
	if after := h.sampleBytes(); after != before {
		t.Fatalf("sample buffers grew from %d to %d bytes in the timed region", before, after)
	}
}

func TestFleetDialsLinksBeforeTheTimedRegion(t *testing.T) {
	fleet := tiny
	fleet.kind = pipeFleet
	h, err := newHarness(&fleet, tinyOpts(9), false)
	if err != nil {
		t.Fatal(err)
	}
	if n := h.ring.Links(); n != fleetPeers {
		h.close()
		t.Fatalf("ring client has %d links after set-up, want %d", n, fleetPeers)
	}
	r, err := h.run()
	if err != nil {
		t.Fatal(err)
	}
	if fails := h.check(r, h.reference()); len(fails) != 0 {
		t.Fatalf("fleet pass failed the gate: %v", fails)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.5, false}, {20, 0.5, true}, {21, 0.5, true},
		{900, 0.99, false}, {1000, 0.99, true},
		{0, 0.5, false},
	}
	for _, c := range cases {
		_, ok := percentile(seq(c.n), c.q)
		if ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) ok = %v, want %v", c.n, c.q, ok, c.ok)
		}
	}
	if v, _ := percentile(seq(21), 0.5); v != 10 {
		t.Errorf("median of 0..20 = %v, want 10", v)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, ",")
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	if got, want := names(spec.Workloads), strings.Join(wl, ","); got != want {
		t.Errorf("workloads: BENCHMARK.json %s, command %s", got, want)
	}
	if got, want := names(spec.EndToEnd), strings.Join(endToEnd, ","); got != want {
		t.Errorf("end_to_end: BENCHMARK.json %s, command %s", got, want)
	}
	if got, want := names(spec.PerLayer), strings.Join(perLayer, ","); got != want {
		t.Errorf("per_layer: BENCHMARK.json %s, command %s", got, want)
	}
}
