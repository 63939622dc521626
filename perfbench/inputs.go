package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"dbsherlock"
	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/collector"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/workload"
)

// Input generation. Every input is derived from the run's seed through
// subSeed, so one seed always yields byte-identical inputs. The daemon
// only ever sees the CSV bytes built here.

// trace is one simulated statistics table, pre-encoded in the WriteCSV
// wire format so that any contiguous row range can be sent without
// re-encoding: header + rows[rowAt[lo]:rowAt[hi]] is a valid CSV body.
type trace struct {
	header []byte
	rows   []byte
	rowAt  []int   // byte offset of each row in rows, plus the end
	ts     []int64 // timestamp of each row
	// incident marks a trace carrying one injected anomaly of kind
	// during rows [injLo, injHi).
	incident     bool
	kind         anomaly.Kind
	injLo, injHi int
}

func (t *trace) numRows() int { return len(t.ts) }

// body returns the CSV body holding rows [lo, hi).
func (t *trace) body(lo, hi int) [][]byte {
	return [][]byte{t.header, t.rows[t.rowAt[lo]:t.rowAt[hi]]}
}

// rowOfTime maps a timestamp to the first row at or after it.
func (t *trace) rowOfTime(ts int64) int {
	lo, hi := 0, len(t.ts)
	for lo < hi {
		m := (lo + hi) / 2
		if t.ts[m] < ts {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// subSeed derives an independent stream seed from the run seed and a
// purpose tag (splitmix64 finalizer).
func subSeed(seed int64, tag, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(tag)<<32 + uint64(i) + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Purpose tags for subSeed.
const (
	tagHealthy = iota + 1
	tagIncident
	tagBank
	tagPlan
	tagDataset
	tagUpload
)

// traceSpec describes one trace to simulate.
type traceSpec struct {
	seed     int64
	start    int64 // timestamp of row 0
	rows     int
	incident bool
	kind     anomaly.Kind
	injAt    int
	injLen   int
}

// simulate runs the testbed simulator for spec and encodes the result.
func simulate(spec traceSpec) (*trace, error) {
	cfg := workload.DefaultConfig()
	cfg.Seed = spec.seed
	var injs []anomaly.Injection
	if spec.incident {
		injs = []anomaly.Injection{{Kind: spec.kind, Start: spec.injAt, Duration: spec.injLen}}
	}
	ds, _, err := dbsherlock.Simulate(cfg, spec.start, spec.rows, injs)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	var buf bytes.Buffer
	if err := collector.WriteCSV(&buf, ds); err != nil {
		return nil, err
	}
	all := buf.Bytes()
	nl := bytes.IndexByte(all, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("simulate: CSV without header line")
	}
	t := &trace{
		header:   append([]byte(nil), all[:nl+1]...),
		rows:     append([]byte(nil), all[nl+1:]...),
		ts:       append([]int64(nil), ds.Timestamps()...),
		incident: spec.incident,
		kind:     spec.kind,
	}
	t.rowAt = append(t.rowAt, 0)
	for i, b := range t.rows {
		if b == '\n' {
			t.rowAt = append(t.rowAt, i+1)
		}
	}
	if len(t.rowAt) != len(t.ts)+1 {
		return nil, fmt.Errorf("simulate: %d CSV lines for %d rows", len(t.rowAt)-1, len(t.ts))
	}
	if spec.incident {
		t.injLo, t.injHi = t.rowOfTime(spec.start+int64(spec.injAt)), t.rowOfTime(spec.start+int64(spec.injAt+spec.injLen))
	}
	return t, nil
}

// simulateAll simulates specs on two goroutines (the benchmark never
// uses more than the container's two CPUs) and returns them in order.
func simulateAll(specs []traceSpec) ([]*trace, error) {
	out := make([]*trace, len(specs))
	errs := make([]error, len(specs))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(specs) {
					return
				}
				out[k], errs[k] = simulate(specs[k])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// incidentLen is the length in seconds (rows) of every injected
// anomaly, the length cmd/datagen uses.
const incidentLen = 60

// bankSpecs are the training traces of the model bank: one incident
// per anomaly class, learned during set-up through POST /v1/learn.
func bankSpecs(seed int64, rows int) []traceSpec {
	var specs []traceSpec
	for i, k := range anomaly.Kinds() {
		specs = append(specs, traceSpec{
			seed: subSeed(seed, tagBank, i), start: 1_000_000, rows: rows,
			incident: true, kind: k, injAt: rows / 2, injLen: incidentLen,
		})
	}
	return specs
}

// fleetInputs is a fleet workload's input: the traces the instances
// replay, the instance plan, and (for the incident fleet) the bank.
type fleetInputs struct {
	prefill int // series rows pushed per instance during set-up
	traces  []*trace
	insts   []instPlan
	bank    []*trace
}

// instPlan is one database instance of the fleet. Its series is the
// trace's rows starting at offset: the first prefill rows are pushed
// during set-up, the rest in 30-row chunks during the timed phase.
type instPlan struct {
	name   string
	trace  int
	offset int
}

// series returns the CSV body of the instance's series rows [lo, hi).
func (in *fleetInputs) series(p instPlan, lo, hi int) [][]byte {
	return in.traces[p.trace].body(p.offset+lo, p.offset+hi)
}

// genFleet builds a fleet's inputs. With incidents, every
// sz.incidentEvery-th instance replays an incident trace whose anomaly
// starts a seed-chosen 0..sz.stagger rows after its timed phase begins.
func genFleet(seed int64, sz sizes, incidents bool) (*fleetInputs, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, tagPlan, 0)))
	healthyRows := sz.prefill + sz.timedRows + sz.slack
	var specs []traceSpec
	for h := 0; h < sz.healthyTraces; h++ {
		specs = append(specs, traceSpec{seed: subSeed(seed, tagHealthy, h), start: 1_000_000, rows: healthyRows})
	}
	onset := sz.prefill + sz.stagger // incident start row within an incident trace
	kinds := anomaly.Kinds()
	if incidents {
		// sz.incidentTraces traces per class, class-major within each
		// variant: trace healthyTraces + v*len(kinds) + class.
		for v := 0; v < sz.incidentTraces; v++ {
			for i, k := range kinds {
				specs = append(specs, traceSpec{
					seed: subSeed(seed, tagIncident, v*len(kinds)+i), start: 1_000_000, rows: onset + sz.timedRows,
					incident: true, kind: k, injAt: onset, injLen: incidentLen,
				})
			}
		}
	}
	bankAt := len(specs)
	if incidents {
		specs = append(specs, bankSpecs(seed, sz.bankRows)...)
	}
	traces, err := simulateAll(specs)
	if err != nil {
		return nil, err
	}
	in := &fleetInputs{prefill: sz.prefill, traces: traces[:bankAt], bank: traces[bankAt:]}
	incidentN := 0
	for i := 0; i < sz.instances; i++ {
		p := instPlan{name: fmt.Sprintf("db-%04d", i)}
		if incidents && sz.incidentEvery > 0 && i%sz.incidentEvery == sz.incidentEvery-1 {
			variant := incidentN / len(kinds) % sz.incidentTraces
			p.trace = sz.healthyTraces + variant*len(kinds) + incidentN%len(kinds)
			p.offset = sz.stagger - rng.Intn(sz.stagger+1)
			incidentN++
		} else {
			p.trace = rng.Intn(sz.healthyTraces)
			p.offset = rng.Intn(sz.slack + 1)
		}
		in.insts = append(in.insts, p)
	}
	return in, nil
}

// investigateInputs is the investigate workload's input.
type investigateInputs struct {
	bank []*trace
	// datasets are uploaded during set-up (the first base of them) and
	// at epoch boundaries (the rest, cycling).
	base    []*trace
	uploads []*trace
	epochs  [][]explainOp
	// parsed caches the reference analyzer's parses (checks only).
	parsed map[*trace]*metrics.Dataset
}

// explainOp asks for an explanation of rows [lo, hi) of dataset ds,
// where ds indexes base datasets first and then epoch uploads in order.
type explainOp struct {
	ds, lo, hi int
	fresh      bool // first time this region is asked: a cold miss
}

// genInvestigate builds the investigate workload's inputs and request
// plan: sz.epochs epochs of sz.epochExplains explains, 1 in 8 of them
// asking a region never asked before and the rest repeating one of the
// last sz.workingSet regions asked.
func genInvestigate(seed int64, sz sizes) (*investigateInputs, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, tagPlan, 1)))
	kinds := anomaly.Kinds()
	specs := bankSpecs(seed, sz.bankRows)
	for i := 0; i < sz.datasets; i++ {
		specs = append(specs, traceSpec{
			seed: subSeed(seed, tagDataset, i), start: 1_000_000, rows: sz.datasetRows,
			incident: true, kind: kinds[rng.Intn(len(kinds))], injAt: sz.datasetRows/4 + rng.Intn(sz.datasetRows/2), injLen: incidentLen,
		})
	}
	for i, k := range kinds {
		specs = append(specs, traceSpec{
			seed: subSeed(seed, tagUpload, i), start: 1_000_000, rows: sz.datasetRows,
			incident: true, kind: k, injAt: sz.datasetRows/4 + rng.Intn(sz.datasetRows/2), injLen: incidentLen,
		})
	}
	traces, err := simulateAll(specs)
	if err != nil {
		return nil, err
	}
	in := &investigateInputs{
		parsed:  map[*trace]*metrics.Dataset{},
		bank:    traces[:len(kinds)],
		base:    traces[len(kinds) : len(kinds)+sz.datasets],
		uploads: traces[len(kinds)+sz.datasets:],
	}
	type region struct{ ds, lo, hi int }
	asked := map[region]bool{}
	var recent []region
	for e := 0; e < sz.epochs; e++ {
		pool := sz.datasets + e // datasets available during epoch e
		ops := make([]explainOp, sz.epochExplains)
		for i := range ops {
			if len(recent) > 0 && rng.Intn(8) != 0 {
				r := recent[rng.Intn(len(recent))]
				ops[i] = explainOp{ds: r.ds, lo: r.lo, hi: r.hi}
				continue
			}
			var r region
			for {
				r.ds = rng.Intn(pool)
				t := in.datasetTrace(r.ds)
				r.lo = clamp(t.injLo-30+rng.Intn(41), 1, t.numRows()-20)
				r.hi = clamp(t.injHi-10+rng.Intn(41), r.lo+10, t.numRows()-1)
				if !asked[r] {
					break
				}
			}
			asked[r] = true
			recent = append(recent, r)
			if len(recent) > sz.workingSet {
				recent = recent[1:]
			}
			ops[i] = explainOp{ds: r.ds, lo: r.lo, hi: r.hi, fresh: true}
		}
		in.epochs = append(in.epochs, ops)
	}
	return in, nil
}

// datasetTrace resolves a dataset index of the request plan.
func (in *investigateInputs) datasetTrace(ds int) *trace {
	if ds < len(in.base) {
		return in.base[ds]
	}
	return in.uploads[(ds-len(in.base))%len(in.uploads)]
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// digest hashes every byte the daemon could be sent plus the plan, so
// tests can pin input determinism.
func digestTraces(h []byte, traces ...[]*trace) []byte {
	sum := sha256.New()
	sum.Write(h)
	for _, group := range traces {
		for _, t := range group {
			sum.Write(t.header)
			sum.Write(t.rows)
			binary.Write(sum, binary.LittleEndian, int64(t.injLo))
			binary.Write(sum, binary.LittleEndian, int64(t.injHi))
		}
	}
	return sum.Sum(nil)
}

func (in *fleetInputs) digest() []byte {
	var plan bytes.Buffer
	for _, p := range in.insts {
		fmt.Fprintf(&plan, "%s %d %d\n", p.name, p.trace, p.offset)
	}
	return digestTraces(plan.Bytes(), in.traces, in.bank)
}

func (in *investigateInputs) digest() []byte {
	var plan bytes.Buffer
	for e, ops := range in.epochs {
		for _, op := range ops {
			fmt.Fprintf(&plan, "%d %d %d %d %v\n", e, op.ds, op.lo, op.hi, op.fresh)
		}
	}
	return digestTraces(plan.Bytes(), in.bank, in.base, in.uploads)
}
