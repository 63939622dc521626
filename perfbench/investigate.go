package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dbsherlock"
	"dbsherlock/internal/metrics"
)

// regionKey identifies one explain request of the plan.
type regionKey struct{ ds, lo, hi int }

// epochReply is the first response seen for a region within an epoch;
// every later response for it in the epoch must be byte-equal.
type epochReply struct {
	body []byte
	n    int // responses for this region in the epoch
}

func runInvestigate(env *runEnv) (*outcome, error) {
	sz := env.size
	in, err := genInvestigate(env.cfg.seed, sz)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	base, err := os.MkdirTemp(env.cfg.outDir, "investigate-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// Set-up on a fresh data directory each time: server construction
	// on the durable store, the model bank, the base datasets.
	var setups []float64
	var d *daemon
	var ids []string
	var dir string
	for s := 0; s < max(1, sz.setups); s++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(base, fmt.Sprintf("data-%d", s))
		runtime.GC()
		start := time.Now()
		d, err = startDaemon(daemonOptions{dataDir: dir, tracer: env.tracer})
		if err != nil {
			return nil, err
		}
		ids, err = setupInvestigate(d, in)
		if err != nil {
			d.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { d.close() }()
	o.e2e["setup_s"] = medianF(setups)

	ctl := newClient(d.url, 1, nil)
	before, err := scrape(ctl)
	if err != nil {
		return nil, err
	}
	ph := &investigatePhase{env: env, in: in, ids: ids, counter: &opCounter{}}
	ph.clients = make([]*client, max(1, sz.workers))
	for w := range ph.clients {
		ph.clients[w] = newClient(d.url, 1, env.tracer)
	}
	runtime.GC() // as in the fleet workloads: start timing from a collected heap
	ph.run()
	after, err := scrape(ctl)
	ctl.closeIdle()
	if err != nil {
		return nil, err
	}
	ph.counter.merge(o)
	for _, f := range ph.failures {
		o.fail("%s", f)
	}

	ref, err := newReferenceAnalyzer(in.bank)
	if err != nil {
		return nil, err
	}
	top1, total := ph.checkEpochs(ref, o)
	ph.checkHitEqualsCold(d, o)

	// Restart: close the daemon and reopen it on the same directory, until
	// it is ready and has answered its first explain.
	var restarts []float64
	first := in.epochs[0][0]
	for r := 0; r < sz.restarts; r++ {
		start := time.Now()
		if err := d.close(); err != nil {
			return nil, err
		}
		d, err = startDaemon(daemonOptions{dataDir: dir, tracer: env.tracer})
		if err != nil {
			return nil, fmt.Errorf("reopen data dir: %w", err)
		}
		body, err := firstAnswer(d.url, ids[first.ds], first)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", r, err)
		}
		restarts = append(restarts, time.Since(start).Seconds())
		checkReply(ref, in, first, body, o)
	}

	secs := ph.elapsed.Seconds()
	o.setLatencies(&ph.explains, ph.elapsed)
	o.reportf("explain_per_s=%.1f", float64(ph.done.Load())/secs)
	o.latency("explain", ph.explains.rtt)
	o.reportf("explain p90=%.4fms p99=%.4fms", ph.explains.rtt.quantile(0.9), ph.explains.rtt.quantile(0.99))
	o.latency("learn", ph.learns)
	o.reportf("restart_s=%.4f cycles=%d", medianF(restarts), len(restarts))
	o.reportf("cause_top1=%.4f explains_checked=%d epochs=%d", ratio(top1, total), total, ph.epochs)

	if env.tracer != nil {
		L := o.layers
		L["trace.throughput_per_s"] = o.e2e["throughput_per_s"]
		L["trace.latency_p50_ms"] = o.e2e["latency_p50_ms"]
		L["trace.latency_p90_ms"] = o.e2e["latency_p90_ms"]
		L["causal.cause_top1"] = ratio(top1, total)
		replayInvestigate(env, in, ph, ref, o, before, after)
	}
	return o, nil
}

// setupInvestigate learns the bank and uploads the base datasets,
// returning their ids.
func setupInvestigate(d *daemon, in *investigateInputs) ([]string, error) {
	c := newClient(d.url, 1, nil)
	defer c.closeIdle()
	if err := learnBank(c, in.bank); err != nil {
		return nil, err
	}
	var ids []string
	for _, t := range in.base {
		id, err := upload(c, t.body(0, t.numRows()))
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// investigatePhase is the timed phase: sz.workers closed-loop
// connections work through each epoch's explains; between epochs, the
// first connection uploads a dataset and learns its cause, merging into
// the existing model.
type investigatePhase struct {
	env     *runEnv
	in      *investigateInputs
	ids     []string // dataset ids by plan index
	clients []*client
	counter *opCounter

	elapsed  time.Duration
	done     atomic.Int64
	explains timeline
	learns   samples
	epochs   int // epochs whose learn was applied
	replies  []map[regionKey]*epochReply
	failures []string
	mu       sync.Mutex
}

func (ph *investigatePhase) run() {
	start := time.Now()
	deadline := start.Add(ph.env.seconds)
	for e, ops := range ph.in.epochs {
		ph.replies = append(ph.replies, map[regionKey]*epochReply{})
		ph.runEpoch(e, ops, start, deadline)
		if !time.Now().Before(deadline) {
			break
		}
		t := ph.in.uploads[e%len(ph.in.uploads)]
		c := ph.clients[0]
		r, err := c.do("upload", http.MethodPost, "/v1/datasets", "text/csv", t.body(0, t.numRows())...)
		if !ph.counter.record("upload", r, err) {
			break
		}
		id, err := uploadID(r.body)
		if err != nil {
			ph.failures = append(ph.failures, err.Error())
			break
		}
		r, err = c.postJSON("learn", "/v1/learn", map[string]any{
			"dataset": id, "from": t.injLo, "to": t.injHi, "cause": t.kind.String(),
		})
		if !ph.counter.record("learn", r, err) {
			ph.learns = append(ph.learns, requestTimeout)
			break
		}
		ph.learns = append(ph.learns, r.rtt)
		ph.ids = append(ph.ids, id)
		ph.epochs++
	}
	ph.elapsed = time.Since(start)
}

// runEpoch spreads one epoch's explains over the connections until they
// are done or the deadline passes.
func (ph *investigatePhase) runEpoch(e int, ops []explainOp, start, deadline time.Time) {
	var next atomic.Int64
	var wg sync.WaitGroup
	lat := make([]timeline, len(ph.clients))
	for w, c := range ph.clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ops) || !time.Now().Before(deadline) {
					return
				}
				op := ops[k]
				name := "explain_hot"
				if op.fresh {
					name = "explain_cold"
				}
				r, err := c.postJSON(name, "/v1/explain", map[string]any{"dataset": ph.ids[op.ds], "from": op.lo, "to": op.hi})
				if !ph.counter.record("explain", r, err) {
					lat[w].add(time.Since(start), requestTimeout, 0)
					continue
				}
				lat[w].add(time.Since(start), r.rtt, 1)
				ph.done.Add(1)
				ph.compare(e, regionKey{op.ds, op.lo, op.hi}, r.body)
			}
		}(w, c)
	}
	wg.Wait()
	for w := range lat {
		ph.explains.merge(&lat[w])
	}
}

// compare requires every response for a region within an epoch to be
// byte-equal to the first: repeats are cache hits, the first is often
// the cold diagnosis.
func (ph *investigatePhase) compare(e int, key regionKey, body []byte) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	rep := ph.replies[e][key]
	if rep == nil {
		ph.replies[e][key] = &epochReply{body: body, n: 1}
		return
	}
	rep.n++
	if !bytes.Equal(rep.body, body) && len(ph.failures) < 5 {
		ph.failures = append(ph.failures, fmt.Sprintf("epoch %d region %+v: explain response differs from the epoch's first response", e, key))
	}
}

// checkEpochs replays the learns on the reference analyzer in the
// daemon's order and requires each epoch's responses to carry the
// causes Analyzer.Diagnose ranks on the same dataset and region. It
// returns how many responses ranked the injected class first.
func (ph *investigatePhase) checkEpochs(ref *dbsherlock.Analyzer, o *outcome) (top1, total int) {
	for e, replies := range ph.replies {
		for key, rep := range replies {
			if checkReply(ref, ph.in, explainOp{ds: key.ds, lo: key.lo, hi: key.hi}, rep.body, o) {
				top1 += rep.n
			}
			total += rep.n
		}
		if e >= ph.epochs {
			break
		}
		t := ph.in.uploads[e%len(ph.in.uploads)]
		ds, err := parseCSV(t.body(0, t.numRows()))
		if err == nil {
			_, err = ref.LearnCause(t.kind.String(), ds, dbsherlock.RegionFromRange(ds.Rows(), t.injLo, t.injHi), nil)
		}
		if err != nil {
			o.fail("reference learn: %v", err)
			return
		}
	}
	return top1, total
}

// refDataset parses a plan dataset for the reference analyzer once.
func (in *investigateInputs) refDataset(ds int) (*metrics.Dataset, error) {
	t := in.datasetTrace(ds)
	if parsed, ok := in.parsed[t]; ok {
		return parsed, nil
	}
	parsed, err := parseCSV(t.body(0, t.numRows()))
	if err != nil {
		return nil, err
	}
	in.parsed[t] = parsed
	return parsed, nil
}

// checkReply compares one explain response with the reference
// analyzer's diagnosis and reports whether the injected class ranked
// first.
func checkReply(ref *dbsherlock.Analyzer, in *investigateInputs, op explainOp, body []byte, o *outcome) (top1 bool) {
	var reply explainReply
	if err := json.Unmarshal(body, &reply); err != nil {
		o.fail("explain reply: %v", err)
		return false
	}
	ds, err := in.refDataset(op.ds)
	if err != nil {
		o.fail("reference parse: %v", err)
		return false
	}
	res, err := ref.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
		Dataset: ds, Abnormal: dbsherlock.RegionFromRange(ds.Rows(), op.lo, op.hi),
	})
	if err != nil {
		o.fail("reference diagnose: %v", err)
		return false
	}
	if !sameCauses(reply, res.Explanation.Causes) {
		o.fail("explain of dataset %d rows [%d,%d): server causes %+v differ from Analyzer.Diagnose %+v",
			op.ds, op.lo, op.hi, reply.Causes, res.Explanation.Causes)
	}
	return len(reply.Causes) > 0 && reply.Causes[0].Cause == in.datasetTrace(op.ds).kind.String()
}

// checkHitEqualsCold re-asks regions of the last epoch against a fresh
// upload of the same bytes (a cold diagnosis under a new dataset id)
// and requires the response to be byte-equal to the cached answer.
func (ph *investigatePhase) checkHitEqualsCold(d *daemon, o *outcome) {
	if len(ph.replies) == 0 {
		return
	}
	c := newClient(d.url, 1, nil)
	defer c.closeIdle()
	fresh := map[int]string{}
	checked := 0
	for key := range ph.replies[len(ph.replies)-1] {
		if checked == 8 {
			break
		}
		checked++
		hot, err := expect(c.postJSON("explain", "/v1/explain", map[string]any{"dataset": ph.ids[key.ds], "from": key.lo, "to": key.hi}))
		if err != nil {
			o.fail("hit explain: %v", err)
			return
		}
		id, ok := fresh[key.ds]
		if !ok {
			t := ph.in.datasetTrace(key.ds)
			if id, err = upload(c, t.body(0, t.numRows())); err != nil {
				o.fail("re-upload: %v", err)
				return
			}
			fresh[key.ds] = id
		}
		cold, err := expect(c.postJSON("explain", "/v1/explain", map[string]any{"dataset": id, "from": key.lo, "to": key.hi}))
		if err != nil {
			o.fail("cold explain: %v", err)
			return
		}
		if !bytes.Equal(hot.body, cold.body) {
			o.fail("region %+v: cache-hit response is not byte-equal to the cold response", key)
		}
	}
}

// firstAnswer polls /readyz until it reports ready, as a load balancer
// would, and returns the first explain answered.
func firstAnswer(base, id string, op explainOp) ([]byte, error) {
	c := newClient(base, 1, nil)
	defer c.closeIdle()
	giveUp := time.Now().Add(requestTimeout)
	for {
		r, err := c.do("readyz", http.MethodGet, "/readyz", "")
		if err != nil {
			return nil, err
		}
		if r.status == http.StatusOK {
			break
		}
		if time.Now().After(giveUp) {
			return nil, fmt.Errorf("/readyz still %d after %v", r.status, requestTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	r, err := expect(c.postJSON("explain", "/v1/explain", map[string]any{"dataset": id, "from": op.lo, "to": op.hi}))
	if err != nil {
		return nil, err
	}
	return r.body, nil
}

// replayInvestigate fills the per-layer figures of the traced run: the
// server and store spans recorded during the run, and a replay of the
// distinct cold regions through the diagnosis layers.
func replayInvestigate(env *runEnv, in *investigateInputs, ph *investigatePhase, ref *dbsherlock.Analyzer, o *outcome, before, after map[string]float64) {
	tr := env.tracer
	var cases []diagCase
	for e, ops := range in.epochs {
		if e > ph.epochs {
			break
		}
		for _, op := range ops {
			if t := in.datasetTrace(op.ds); op.fresh && len(cases) < 64 {
				cases = append(cases, diagCase{body: t.body(0, t.numRows()), lo: op.lo, hi: op.hi})
			}
		}
	}
	replayDiagCases(tr, ref, cases, o)
	L := o.layers
	hot := 1000 * tr.byName("server.explain_hot").quantile(0.5)
	L["server.explain_hot_us"] = hot
	L["server.render_us"] = hot - L["analyzer.diagnose_reuse_us"]
	L["http.overhead_us"] = 1000 * tr.selfByName("client.explain_hot").quantile(0.5)
	diagCacheLayers(L, before, after)
	L["store.put_model_ms"] = tr.byName("store.put_model").quantile(0.5)
	L["store.put_dataset_ms"] = tr.byName("store.put_dataset").quantile(0.5)
	L["store.open_ms"] = tr.byName("store.open").quantile(0.5)
	L["store.wal_bytes_per_learn"] = medianF(tr.valuesOf("store.wal_bytes_per_learn"))
}
