package main

import "time"

type pipeKind int

const (
	pipeTCP pipeKind = iota + 1
	pipeEmbedded
	pipeFleet
)

// workload is one named traffic mix. README.md says why each exists.
type workload struct {
	name       string
	kind       pipeKind
	hosts      int
	generators int
	// window is the model's detection window in virtual time; the virtual
	// clock runs window/wallWindow times faster than the wall clock.
	window time.Duration
	// rate is the open-loop offered load in tasks per wall second.
	rate float64
	// control runs the daemon-like poller beside the data path:
	// ShardStats every second and WriteCheckpoint every 3 s.
	control bool
}

// wallWindow is how long one detection window lasts on the wall clock: a
// 10 s run closes about 400 windows per group, and the faulted middle third
// alarms in about 130 of them, enough for a steady median alarm latency. It
// is not a whole number of milliseconds, so successive window ends fall on
// every phase of the 2 ms flush tick and the 1 ms poll, wherever those
// timers started; at 25 ms they alternated between two phases, and the
// median alarm latency moved with the timers' start from run to run.
const wallWindow = 24_700 * time.Microsecond

// flushEvery is the generator-side client flush tick.
const flushEvery = 2 * time.Millisecond

var workloads = []workload{
	{name: "tcp-steady", kind: pipeTCP, hosts: 4, generators: 2, window: time.Second, rate: 100_000, control: true},
	{name: "tcp-heavy", kind: pipeTCP, hosts: 4, generators: 2, window: time.Second, rate: 250_000},
	{name: "embedded-fault", kind: pipeEmbedded, hosts: 1, generators: 1, window: time.Minute, rate: 100_000},
	{name: "fleet", kind: pipeFleet, hosts: 4, generators: 2, window: time.Minute, rate: 120_000},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Fault shape: for the middle third of the run the last host's busiest
// stage sends 5% of its tasks down never-seen flows and runs 25% of them
// eight times longer than recorded, so both the flow test and the
// performance test have something to find.
const (
	faultFlowShare  = 0.05
	faultPerfShare  = 0.25
	faultPerfFactor = 8
)

// trainTasks is the size of the fault-free training trace.
const trainTasks = 100_000
