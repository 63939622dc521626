package main

import (
	"sort"
	"time"
)

// sizes scale a workload. The benchmark's sizes are in the workloads
// table; tests pass tiny ones.
type sizes struct {
	// Fleet workloads.
	instances      int // database instances pushing samples
	incidentEvery  int // every n-th instance carries an incident (0: none)
	prefill        int // rows pushed per instance during set-up
	timedRows      int // series rows available per instance for the timed phase
	stagger        int // incident onsets fall 0..stagger rows into the timed phase
	slack          int // healthy instances start at a random offset up to this
	healthyTraces  int // distinct healthy simulator traces the fleet shares
	incidentTraces int // distinct incident traces per anomaly class

	// Shared by the incident fleet and investigate.
	bankRows int // rows of each model-bank training trace
	setups   int // set-ups per run; setup_s is their median

	// Investigate.
	datasets      int // incident datasets uploaded during set-up
	datasetRows   int
	epochs        int // epochs in the request plan
	epochExplains int // explains per epoch; a learn and an upload follow each
	workingSet    int // repeats draw from the last this-many regions
	workers       int // closed-loop connections
	restarts      int // close/reopen cycles after the timed phase
}

// runEnv is what a workload runs with.
type runEnv struct {
	cfg     runConfig
	size    sizes
	tracer  *tracer // nil: untraced run
	seconds time.Duration
}

// workloadDef is one entry of the workloads table.
type workloadDef struct {
	why  string
	size sizes
	run  func(env *runEnv) (*outcome, error)
}

// fleetSize is the fleet both fleet workloads run: a couple of hundred
// instances of full-width (116-attribute) simulator rows, each window
// warmed to 570 of its 600 rows during set-up so the timed phase runs at
// the steady state. Each instance holds about 2.5 MB of window state,
// which is what bounds the fleet's width here.
var fleetSize = sizes{
	instances:      200,
	prefill:        570,
	timedRows:      1200,
	stagger:        90,
	slack:          300,
	healthyTraces:  16,
	incidentTraces: 2,
	bankRows:       600,
	setups:         3,
}

var workloads = map[string]workloadDef{
	"fleet_healthy": {
		why:  "the daemon's steady state: a healthy fleet pushing 30-row chunks; collector decode, ingest registry and the detect sweep are busy, diagnosis is idle",
		size: fleetSize,
		run:  func(env *runEnv) (*outcome, error) { return runFleet(env, false) },
	},
	"fleet_incident": {
		why:  "the worst case a fleet pays: a quarter of the instances hit by staggered incidents, each alert uploaded and explained (push, alert, ranked cause)",
		size: withIncidents(fleetSize),
		run:  func(env *runEnv) (*outcome, error) { return runFleet(env, true) },
	},
	"investigate": {
		why:  "a DBA's interactive session on a durable store: 7 of 8 explains repeat a region (cache hits), 1 of 8 is cold, with learns, uploads and restarts",
		size: investigateSize,
		run:  runInvestigate,
	},
}

func withIncidents(s sizes) sizes {
	s.incidentEvery = 4
	return s
}

// investigateSize: four 600-row incident datasets, an epoch of 2048
// explains between learns, a working set of 16 regions (well inside the
// 64 MiB diagnosis cache), two connections.
var investigateSize = sizes{
	bankRows:      600,
	setups:        7, // each takes ~0.3 s, mostly fdatasync
	datasets:      4,
	datasetRows:   600,
	epochs:        120,
	epochExplains: 2048,
	workingSet:    16,
	workers:       2,
	restarts:      3,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
