package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dbsherlock"
	"dbsherlock/internal/collector"
	"dbsherlock/internal/core"
	"dbsherlock/internal/dbscan"
	"dbsherlock/internal/detect"
	"dbsherlock/internal/ingest"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
	"dbsherlock/internal/stats"
	"dbsherlock/internal/store"
)

// The ingest plane's shipped defaults (ingest.Config zero values): the
// benchmark's replays and window arithmetic must agree with them.
const (
	chunkRows  = 30  // rows per push; equals the default CheckEvery
	windowRows = 600 // default per-instance window
	warmupRows = 120 // default detection warm-up
)

// explainReply is the part of a POST /v1/explain response the checks
// read.
type explainReply struct {
	Causes []struct {
		Cause      string  `json:"cause"`
		Confidence float64 `json:"confidence"`
	} `json:"causes"`
}

// diagnosis is one alert the incident fleet uploaded and explained,
// kept for the post-run checks and the traced replay.
type diagnosis struct {
	trace        *trace
	winLo, winHi int // trace rows of the uploaded window
	lo, hi       int // explained rows within the window
	reply        explainReply
}

// pushRec is one timed push, for the traced replay.
type pushRec struct{ inst, lo, hi int }

func runFleet(env *runEnv, incidents bool) (*outcome, error) {
	sz := env.size
	in, err := genFleet(env.cfg.seed, sz, incidents)
	if err != nil {
		return nil, err
	}
	o := newOutcome()

	// Set-up: server construction, the model bank (incident fleet), and
	// the window prefill, repeated; the last daemon serves the run.
	var setups []float64
	var d *daemon
	for s := 0; s < max(1, sz.setups); s++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			d = nil
		}
		runtime.GC()
		start := time.Now()
		d, err = startDaemon(daemonOptions{tracer: env.tracer})
		if err != nil {
			return nil, err
		}
		if err := setupFleet(d, in); err != nil {
			d.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()
	o.e2e["setup_s"] = medianF(setups)

	ctl := newClient(d.url, 1, nil)
	defer ctl.closeIdle()
	before, err := scrape(ctl)
	if err != nil {
		return nil, err
	}
	feed, err := subscribeAlerts(d.url)
	if err != nil {
		return nil, err
	}
	pc := newClient(d.url, 1, env.tracer)
	defer pc.closeIdle()
	ph := &fleetPhase{env: env, in: in, incidents: incidents, c: pc, counter: &opCounter{},
		accepted: make([]int, len(in.insts)), lastSend: make([]time.Time, len(in.insts)),
		alerted: make([]bool, len(in.insts)), index: map[string]int{}}
	for i, p := range in.insts {
		ph.index[p.name] = i
	}
	// Every timed phase starts from a collected heap, so the number of
	// collections inside it depends on the work done, not on where the
	// set-up left the collector.
	runtime.GC()
	ph.loop(feed)
	if err := feed.close(); err != nil {
		o.fail("alert stream: %v", err)
	}
	after, err := scrape(ctl)
	if err != nil {
		return nil, err
	}
	ph.counter.merge(o)
	for _, f := range ph.failures {
		o.fail("%s", f)
	}
	ph.report(o)
	if incidents {
		checkDiagnoses(in, ph.diags, o)
	}
	if env.tracer != nil {
		if err := d.close(); err != nil {
			return nil, err
		}
		runtime.GC()
		replayFleet(env, in, ph, o, before, after)
	}
	return o, nil
}

// setupFleet learns the model bank (incident fleet) and prefills every
// instance's window, on two connections.
func setupFleet(d *daemon, in *fleetInputs) error {
	c := newClient(d.url, 2, nil)
	defer c.closeIdle()
	if err := learnBank(c, in.bank); err != nil {
		return err
	}
	prefill := in.prefill
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(in.insts); i += 2 {
				p := in.insts[i]
				if _, err := expect(c.do("ingest", http.MethodPost, "/v1/ingest/"+p.name, "text/csv", in.series(p, 0, prefill)...)); err != nil {
					errs[w] = fmt.Errorf("prefill %s: %w", p.name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// learnBank uploads each training trace and learns its cause from the
// injected rows: one cause per anomaly class.
func learnBank(c *client, bank []*trace) error {
	for _, t := range bank {
		id, err := upload(c, t.body(0, t.numRows()))
		if err != nil {
			return fmt.Errorf("bank upload: %w", err)
		}
		if _, err := expect(c.postJSON("learn", "/v1/learn", map[string]any{
			"dataset": id, "from": t.injLo, "to": t.injHi, "cause": t.kind.String(),
		})); err != nil {
			return fmt.Errorf("bank learn %s: %w", t.kind, err)
		}
	}
	return nil
}

// upload posts a CSV dataset and returns its id.
func upload(c *client, body [][]byte) (string, error) {
	r, err := expect(c.do("upload", http.MethodPost, "/v1/datasets", "text/csv", body...))
	if err != nil {
		return "", err
	}
	return uploadID(r.body)
}

func uploadID(body []byte) (string, error) {
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.ID == "" {
		return "", fmt.Errorf("upload: no dataset id in %q", body)
	}
	return resp.ID, nil
}

// fleetPhase is the timed phase of a fleet workload: one push
// connection and one SSE connection, closed loop.
type fleetPhase struct {
	env       *runEnv
	in        *fleetInputs
	incidents bool
	c         *client
	counter   *opCounter

	accepted []int       // series rows the daemon holds per instance
	lastSend []time.Time // when the latest push to each instance was sent
	alerted  []bool      // instance raised a true alert
	index    map[string]int

	elapsed   time.Duration
	rows      int64
	pushes    timeline
	pushLog   []pushRec
	alertLat  samples
	diagLat   samples
	trueAl    int
	falseAl   int
	top1      int // true alerts whose top-ranked cause is the injected class
	trueDiags int
	diags     []diagnosis
	failures  []string
	exhausted bool
}

func (ph *fleetPhase) loop(feed *alertFeed) {
	sz := ph.env.size
	for i := range ph.accepted {
		ph.accepted[i] = sz.prefill
	}
	start := time.Now()
	deadline := start.Add(ph.env.seconds)
	// The phase runs for the requested seconds, and on past them (up to
	// three times as long) only until it has the pushes a p99 needs: the
	// traced run reports the detection ticks' p99, one tick per push.
	hardStop := start.Add(3 * ph.env.seconds)
	need := minSamples(0.99)
	more := func() bool {
		now := time.Now()
		return now.Before(deadline) || (len(ph.pushes.at) < need && now.Before(hardStop))
	}
	for i := 0; more(); i = (i + 1) % len(ph.in.insts) {
		p := ph.in.insts[i]
		lo := ph.accepted[i]
		hi := lo + chunkRows
		if p.offset+hi > ph.in.traces[p.trace].numRows() {
			ph.exhausted = true
			break
		}
		ph.lastSend[i] = time.Now()
		r, err := ph.c.do("ingest", http.MethodPost, "/v1/ingest/"+p.name, "text/csv", ph.in.series(p, lo, hi)...)
		if ph.counter.record("ingest", r, err) {
			ph.pushes.add(time.Since(start), r.rtt, chunkRows)
			ph.rows += chunkRows
			ph.pushLog = append(ph.pushLog, pushRec{inst: i, lo: lo, hi: hi})
		} else {
			ph.pushes.add(time.Since(start), requestTimeout, 0)
		}
		// The daemon holds the rows of an accepted push; a refused push
		// leaves a gap in the instance's timeline, which it tolerates.
		ph.accepted[i] = hi
		for drained := false; !drained; {
			select {
			case ev := <-feed.C:
				ph.onAlert(ev)
			default:
				drained = true
			}
		}
	}
	ph.elapsed = time.Since(start)
}

// onAlert classifies an alert and, on the incident fleet, diagnoses it:
// upload the instance's alerted window, explain the alert's span.
func (ph *fleetPhase) onAlert(ev alertEvent) {
	i, ok := ph.index[ev.alert.Instance]
	if !ok || ph.lastSend[i].IsZero() {
		ph.failures = append(ph.failures, fmt.Sprintf("alert for unknown or idle instance %q", ev.alert.Instance))
		return
	}
	ph.alertLat = append(ph.alertLat, ev.at.Sub(ph.lastSend[i]))
	p := ph.in.insts[i]
	t := ph.in.traces[p.trace]
	truth := t.incident && ev.alert.ToTime > t.ts[t.injLo] && ev.alert.FromTime < t.ts[t.injHi-1]+1
	if truth {
		ph.trueAl++
		ph.alerted[i] = true
	} else {
		ph.falseAl++
	}
	if !ph.incidents {
		return
	}
	winHi := p.offset + ph.accepted[i]
	winLo := max(p.offset, winHi-windowRows)
	lo := clamp(t.rowOfTime(ev.alert.FromTime)-winLo, 0, winHi-winLo-1)
	hi := clamp(t.rowOfTime(ev.alert.ToTime)-winLo, lo+1, winHi-winLo)
	r, err := ph.c.do("upload", http.MethodPost, "/v1/datasets", "text/csv", t.body(winLo, winHi)...)
	if !ph.counter.record("upload", r, err) {
		ph.diagLat = append(ph.diagLat, requestTimeout)
		return
	}
	id, err := uploadID(r.body)
	if err != nil {
		ph.failures = append(ph.failures, err.Error())
		return
	}
	r, err = ph.c.postJSON("explain", "/v1/explain", map[string]any{"dataset": id, "from": lo, "to": hi})
	if !ph.counter.record("explain", r, err) {
		ph.diagLat = append(ph.diagLat, requestTimeout)
		return
	}
	ph.diagLat = append(ph.diagLat, time.Since(ev.at))
	var reply explainReply
	if err := json.Unmarshal(r.body, &reply); err != nil {
		ph.failures = append(ph.failures, fmt.Sprintf("explain reply: %v", err))
		return
	}
	if truth {
		ph.trueDiags++
		if len(reply.Causes) > 0 && reply.Causes[0].Cause == t.kind.String() {
			ph.top1++
		}
	}
	ph.diags = append(ph.diags, diagnosis{trace: t, winLo: winLo, winHi: winHi, lo: lo, hi: hi, reply: reply})
}

// recall is the share of injected incidents, among those whose whole
// injection was pushed during the run, that raised a true alert.
func (ph *fleetPhase) recall() (recall float64, reached int) {
	detected := 0
	for i, p := range ph.in.insts {
		t := ph.in.traces[p.trace]
		if !t.incident || p.offset+ph.accepted[i] < t.injHi {
			continue
		}
		reached++
		if ph.alerted[i] {
			detected++
		}
	}
	if reached == 0 {
		return 0, 0
	}
	return float64(detected) / float64(reached), reached
}

func (ph *fleetPhase) report(o *outcome) {
	secs := ph.elapsed.Seconds()
	o.setLatencies(&ph.pushes, ph.elapsed)
	if ph.exhausted {
		o.reportf("note input exhausted after %.1fs", secs)
	}
	o.reportf("ingest_rows_per_s=%.1f", float64(ph.rows)/secs)
	o.latency("ingest", ph.pushes.rtt)
	o.reportf("ingest p90=%.4fms", ph.pushes.rtt.quantile(0.9))
	o.reportf("false_alerts=%d true_alerts=%d", ph.falseAl, ph.trueAl)
	if ph.incidents {
		o.latency("alert", ph.alertLat)
		o.latency("diagnose", ph.diagLat)
		recall, reached := ph.recall()
		o.reportf("alert_recall=%.4f reached=%d", recall, reached)
		o.reportf("cause_top1=%.4f true_diagnoses=%d diagnoses=%d", ratio(ph.top1, ph.trueDiags), ph.trueDiags, len(ph.diags))
	}
	if env := ph.env; env.tracer != nil {
		o.layers["trace.throughput_per_s"] = o.e2e["throughput_per_s"]
		o.layers["trace.latency_p50_ms"] = o.e2e["latency_p50_ms"]
		o.layers["trace.latency_p90_ms"] = o.e2e["latency_p90_ms"]
		recall, _ := ph.recall()
		o.layers["detect.alert_recall"] = recall
		o.layers["detect.false_alerts"] = float64(ph.falseAl)
		o.layers["causal.cause_top1"] = ratio(ph.top1, ph.trueDiags)
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// newReferenceAnalyzer builds an analyzer configured like the daemon's
// and learns the same bank from the same bytes.
func newReferenceAnalyzer(bank []*trace) (*dbsherlock.Analyzer, error) {
	a, err := dbsherlock.New(dbsherlock.WithTheta(0.05), dbsherlock.WithWorkers(0))
	if err != nil {
		return nil, err
	}
	for _, t := range bank {
		ds, err := parseCSV(t.body(0, t.numRows()))
		if err != nil {
			return nil, err
		}
		if _, err := a.LearnCause(t.kind.String(), ds, dbsherlock.RegionFromRange(ds.Rows(), t.injLo, t.injHi), nil); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func parseCSV(parts [][]byte) (*metrics.Dataset, error) {
	return collector.ReadCSV(bytes.NewReader(bytes.Join(parts, nil)))
}

// sameCauses compares a server reply's ranked causes with the engine's.
func sameCauses(reply explainReply, want []dbsherlock.RankedCause) bool {
	if len(reply.Causes) != len(want) {
		return false
	}
	for i, c := range reply.Causes {
		if c.Cause != want[i].Cause || c.Confidence != want[i].Confidence {
			return false
		}
	}
	return true
}

// checkDiagnoses re-diagnoses every explained alert with
// Analyzer.Diagnose on the same dataset and region and requires the
// server's ranked causes to match.
func checkDiagnoses(in *fleetInputs, diags []diagnosis, o *outcome) {
	ref, err := newReferenceAnalyzer(in.bank)
	if err != nil {
		o.fail("reference analyzer: %v", err)
		return
	}
	for _, dg := range diags {
		ds, err := parseCSV(dg.trace.body(dg.winLo, dg.winHi))
		if err != nil {
			o.fail("reference parse: %v", err)
			return
		}
		res, err := ref.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{
			Dataset: ds, Abnormal: dbsherlock.RegionFromRange(ds.Rows(), dg.lo, dg.hi),
		})
		if err != nil {
			o.fail("reference diagnose: %v", err)
			return
		}
		if !sameCauses(dg.reply, res.Explanation.Causes) {
			o.fail("explain of %s rows [%d,%d): server causes %+v differ from Analyzer.Diagnose %+v",
				dg.trace.kind, dg.lo, dg.hi, dg.reply.Causes, res.Explanation.Causes)
		}
	}
}

// replayFleet is the traced run's layer replay: the pushes of the timed
// phase go again, instance by instance, through the public functions of
// collector, ingest, detect and dbscan, and every explained alert
// through collector, core, causal and the Analyzer, each call inside a
// span. Instances replay one at a time so only one window is resident.
func replayFleet(env *runEnv, in *fleetInputs, ph *fleetPhase, o *outcome, before, after map[string]float64) {
	tr := env.tracer
	byInst := make([][]pushRec, len(in.insts))
	for _, p := range ph.pushLog {
		byInst[p.inst] = append(byInst[p.inst], p)
	}
	var st instReplay
	for i, p := range in.insts {
		// Registry.Ingest runs its own detection tick, so it replays on
		// every other instance only: its figure is a per-chunk median.
		if err := st.replay(tr, in, p, byInst[i], i%2 == 0); err != nil {
			o.fail("replay %s: %v", p.name, err)
			return
		}
	}
	L := o.layers
	L["server.ingest_us_per_chunk"] = 1000 * tr.byName("server.ingest").quantile(0.5)
	L["http.overhead_us"] = 1000 * tr.selfByName("client.ingest").quantile(0.5)
	L["collector.decode_us_per_chunk"] = 1000 * tr.byName("collector.decode").quantile(0.5)
	L["ingest.ingest_us_per_chunk"] = 1000 * tr.byName("ingest.ingest").quantile(0.5)
	L["ingest.ticks"] = after["dbsherlock_ingest_detection_seconds_count"] - before["dbsherlock_ingest_detection_seconds_count"]
	L["ingest.shed"] = after["dbsherlock_ingest_shed_total"] - before["dbsherlock_ingest_shed_total"]
	L["detect.append_us_per_chunk"] = 1000 * tr.byName("detect.append").quantile(0.5)
	ticks := tr.byName("detect.tick")
	L["detect.tick_p50_ms"] = ticks.quantile(0.5)
	L["detect.tick_p99_ms"] = ticks.quantile(0.99)
	o.requireTail("detect.tick_p99_ms", ticks, 0.99)
	L["detect.clustered_tick_ratio"] = ratio(len(st.dims), len(ticks))
	L["detect.selected_attrs_mean"] = mean(st.selected)
	L["dbscan.kdist_ms"] = tr.byName("dbscan.kdist").quantile(0.5)
	L["dbscan.cluster_ms"] = tr.byName("dbscan.cluster").quantile(0.5)
	L["dbscan.points"] = mean(st.points)
	L["dbscan.dims"] = mean(st.dims)
	diagCacheLayers(L, before, after)
	if ph.incidents {
		replayDiagnoses(env, in, ph.diags, o)
	}
}

// instReplay accumulates the per-tick counts of the detect replay.
type instReplay struct {
	selected     []float64 // selected attributes, per timed tick
	points, dims []float64 // DBSCAN input size, per clustered tick
}

// replay runs one instance's prefill (untimed, to build the window the
// daemon held) and then its timed chunks through the layers.
func (st *instReplay) replay(tr *tracer, in *fleetInputs, p instPlan, pushes []pushRec, withRegistry bool) error {
	var reg *ingest.Registry
	if withRegistry {
		reg = ingest.New(ingest.Config{Registry: obs.NewRegistry(), Logger: obs.DiscardLogger()})
		defer reg.Close()
	}
	params := detect.DefaultParams()
	stream := detect.NewStream(params, windowRows, 1)
	win := newColumnWindow(windowRows)
	sinceCheck := 0
	feed := func(ds *metrics.Dataset, timed bool) error {
		call := func(name string, fn func()) {
			if timed {
				tr.timed(name, 0, fn)
			} else {
				fn()
			}
		}
		var err error
		if reg != nil {
			call("ingest.ingest", func() { err = reg.Ingest(store.DefaultTenant, p.name, ds) })
			if err != nil {
				return err
			}
		}
		call("detect.append", func() { stream.Append(ds) })
		win.push(ds)
		// The daemon's tick schedule: a pass once CheckEvery rows have
		// arrived, after the warm-up.
		if sinceCheck += ds.Rows(); sinceCheck < chunkRows {
			return nil
		}
		sinceCheck = 0
		if stream.Rows() < warmupRows {
			return nil
		}
		var res detect.Result
		call("detect.tick", func() { res = stream.Detect() })
		if !timed {
			return nil
		}
		st.selected = append(st.selected, float64(len(res.SelectedAttrs)))
		if len(res.SelectedAttrs) == 0 {
			return nil
		}
		// detect.Detect's point set and epsilon rule, on the window.
		pts := win.points(res.SelectedAttrs)
		st.points = append(st.points, float64(len(pts)))
		st.dims = append(st.dims, float64(len(res.SelectedAttrs)))
		var lk []float64
		tr.timed("dbscan.kdist", 0, func() { lk = dbscan.KDistInto(nil, pts, params.MinPts) })
		eps := max(lk[len(lk)-1]/4, 1.5*lk[len(lk)/2])
		if eps > 0 {
			tr.timed("dbscan.cluster", 0, func() { dbscan.ClusterInto(nil, pts, eps, params.MinPts) })
		}
		return nil
	}
	prefill := bytes.NewReader(bytes.Join(in.series(p, 0, in.prefill), nil))
	if err := collector.StreamCSV(prefill, collector.DefaultChunkRows,
		func(ds *metrics.Dataset) error { return feed(ds, false) }); err != nil {
		return err
	}
	for _, ps := range pushes {
		body := bytes.Join(in.series(p, ps.lo, ps.hi), nil)
		var chunks []*metrics.Dataset
		var err error
		tr.timed("collector.decode", 0, func() {
			err = collector.StreamCSV(bytes.NewReader(body), collector.DefaultChunkRows,
				func(ds *metrics.Dataset) error { chunks = append(chunks, ds); return nil })
		})
		if err != nil {
			return err
		}
		for _, ds := range chunks {
			if err := feed(ds, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// columnWindow keeps the last n rows of each numeric column, to rebuild
// a detection tick's DBSCAN point set the way detect.Detect builds it.
type columnWindow struct {
	n    int
	cols map[string][]float64
}

func newColumnWindow(n int) *columnWindow { return &columnWindow{n: n, cols: map[string][]float64{}} }

func (w *columnWindow) push(ds *metrics.Dataset) {
	for i := 0; i < ds.NumAttrs(); i++ {
		c := ds.ColumnAt(i)
		if c.Attr.Type != metrics.Numeric {
			continue
		}
		col := append(w.cols[c.Attr.Name], c.Num...)
		if len(col) > w.n {
			col = append(col[:0], col[len(col)-w.n:]...)
		}
		w.cols[c.Attr.Name] = col
	}
}

// points normalizes the selected columns over the window and returns
// one point per row, NaN mapped to 0, as detect.Detect does.
func (w *columnWindow) points(attrs []string) []dbscan.Point {
	var cols [][]float64
	for _, a := range attrs {
		cols = append(cols, stats.Normalize(w.cols[a]))
	}
	rows := len(cols[0])
	pts := make([]dbscan.Point, rows)
	for i := range pts {
		pt := make(dbscan.Point, len(cols))
		for c, col := range cols {
			if v := col[i]; !math.IsNaN(v) {
				pt[c] = v
			}
		}
		pts[i] = pt
	}
	return pts
}

// replayDiagnoses replays each explained alert through the diagnosis
// layers: CSV decode of the upload, the prepared index, Algorithm 1,
// Eq. 3 ranking, and the Analyzer cold and with reuse.
func replayDiagnoses(env *runEnv, in *fleetInputs, diags []diagnosis, o *outcome) {
	ref, err := newReferenceAnalyzer(in.bank)
	if err != nil {
		o.fail("reference analyzer: %v", err)
		return
	}
	var cases []diagCase
	for _, dg := range diags {
		cases = append(cases, diagCase{body: dg.trace.body(dg.winLo, dg.winHi), lo: dg.lo, hi: dg.hi})
	}
	replayDiagCases(env.tracer, ref, cases, o)
}

// diagCase is one (dataset, region) the diagnosis layers replay.
type diagCase struct {
	body   [][]byte
	lo, hi int
}

// replayDiagCases times the diagnosis layers on each case.
func replayDiagCases(tr *tracer, a *dbsherlock.Analyzer, cases []diagCase, o *outcome) {
	ctx := context.Background()
	params := a.Params()
	var preds []float64
	for _, c := range cases {
		joined := bytes.Join(c.body, nil)
		var ds *metrics.Dataset
		var err error
		tr.timed("collector.upload_decode", 0, func() { ds, err = collector.ReadCSV(bytes.NewReader(joined)) })
		if err != nil {
			o.fail("replay decode: %v", err)
			return
		}
		tr.timed("core.prewarm", 0, func() { core.Prewarm(ds, params.NumPartitions) })
		abn := metrics.RegionFromRange(ds.Rows(), c.lo, c.hi)
		nor := abn.Complement()
		var p []core.Predicate
		tr.timed("core.generate", 0, func() { p, err = core.GenerateCtx(ctx, ds, abn, nor, params) })
		if err != nil {
			o.fail("replay generate: %v", err)
			return
		}
		preds = append(preds, float64(len(p)))
		ev := core.NewEvaluator(ds, abn, nor, params)
		repo := a.ModelBank()
		if _, err := repo.RankEvalCtx(ctx, ev); err != nil {
			o.fail("replay rank: %v", err)
			return
		}
		tr.timed("causal.rank", 0, func() { _, err = repo.RankEvalCtx(ctx, ev) })
		var res *dbsherlock.DiagnoseResult
		tr.timed("analyzer.diagnose_cold", 0, func() {
			res, err = a.Diagnose(ctx, dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn, CaptureState: true})
		})
		if err != nil {
			o.fail("replay diagnose: %v", err)
			return
		}
		tr.timed("analyzer.diagnose_reuse", 0, func() {
			_, err = a.Diagnose(ctx, dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn, Reuse: res.State, CaptureState: true})
		})
	}
	L := o.layers
	L["collector.upload_decode_ms"] = tr.byName("collector.upload_decode").quantile(0.5)
	L["core.prewarm_ms"] = tr.byName("core.prewarm").quantile(0.5)
	L["core.generate_ms"] = tr.byName("core.generate").quantile(0.5)
	L["core.predicates"] = mean(preds)
	L["causal.rank_ms"] = tr.byName("causal.rank").quantile(0.5)
	L["causal.models"] = float64(a.ModelBank().Len())
	L["analyzer.diagnose_cold_ms"] = tr.byName("analyzer.diagnose_cold").quantile(0.5)
	L["analyzer.diagnose_reuse_us"] = 1000 * tr.byName("analyzer.diagnose_reuse").quantile(0.5)
}

// diagCacheLayers derives the diagnosis-cache figures from the daemon's
// counters read before and after the timed phase.
func diagCacheLayers(L map[string]float64, before, after map[string]float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("dbsherlock_diagcache_hits_total"), delta("dbsherlock_diagcache_misses_total")
	if hits+misses > 0 {
		L["diagcache.hit_ratio"] = hits / (hits + misses)
	}
	L["diagcache.evictions"] = delta("dbsherlock_diagcache_evictions_total")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
