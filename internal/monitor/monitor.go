// Package monitor runs DBSherlock's anomaly detection continuously over
// a stream of per-second statistics — the always-on counterpart of the
// interactive workflow, mirroring how DBSeer watches a production
// system. Rows are appended as they are collected; a sliding window is
// kept in fixed-capacity ring buffers; every checkEvery appended rows
// the detector runs and overlapping findings are deduplicated into
// alerts. The window and its alert policy (window.go) are shared with
// the fleet ingestion registry, which keeps one Window per instance.
//
// With the default DBSCAN detector, detection runs through
// detect.Stream: per-attribute state advances incrementally with the
// window and no dataset is materialized until an alert actually fires.
// The emitted alerts are byte-identical to running the batch detector
// on a deep window snapshot every tick (pinned by golden tests).
package monitor

import (
	"errors"
	"log/slog"
	"time"

	"dbsherlock/internal/detect"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/obs"
)

// Alert reports one detected anomaly.
type Alert struct {
	// Window is a snapshot of the sliding window the detection ran on.
	Window *metrics.Dataset
	// Region selects the anomalous rows of Window.
	Region *metrics.Region
	// FromTime / ToTime are the anomaly's timestamps (unix seconds,
	// half-open).
	FromTime, ToTime int64
	// SelectedAttrs are the attributes the detector keyed on (when the
	// detector reports them).
	SelectedAttrs []string
}

// Config tunes the monitor. Zero values take defaults.
type Config struct {
	// WindowSeconds is the sliding-window length (default 600, the
	// paper's Appendix E trace length).
	WindowSeconds int
	// CheckEvery runs detection after this many appended rows
	// (default 30).
	CheckEvery int
	// CooldownSeconds suppresses a new alert whose region overlaps the
	// previous alert's time span within this horizon (default 120).
	CooldownSeconds int
	// Detector is the detection algorithm (default: the Section 7
	// DBSCAN detector, which runs on the incremental streaming path).
	Detector detect.Detector
	// MinAnomalyRows ignores findings whose largest contiguous run is
	// shorter than this (default 10): isolated spike rows and short
	// bursts are noise, not anomalies (the paper's injected anomalies
	// run 30-80 seconds).
	MinAnomalyRows int
	// WarmupRows suppresses detection until the window holds at least
	// this many rows (default max(120, 4*CheckEvery)): tiny windows
	// mistake startup transients for anomalies.
	WarmupRows int
	// Registry, when non-nil, receives the monitor's counters
	// (dbsherlock_monitor_rows_ingested_total, _detections_run_total,
	// _alerts_total, _snapshot_errors_total, _attrs_selected_total,
	// _points_clustered_total), the _detection_seconds histogram, and
	// the _last_epsilon gauge, so they show up on the service's
	// /metrics scrape.
	Registry *obs.Registry
	// Workers bounds the per-attribute fan-out of each streaming
	// detection pass (<= 0: one worker per CPU). Detection output is
	// byte-identical for any worker count.
	Workers int
	// Logger, when non-nil, receives structured warnings (e.g. window
	// snapshot failures). Nil stays silent.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = 600
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 30
	}
	if c.CooldownSeconds <= 0 {
		c.CooldownSeconds = 120
	}
	if c.Detector == nil {
		c.Detector = detect.NewDBSCANDetector()
	}
	if c.MinAnomalyRows <= 0 {
		c.MinAnomalyRows = 10
	}
	if c.WarmupRows <= 0 {
		c.WarmupRows = 4 * c.CheckEvery
		if c.WarmupRows < 120 {
			c.WarmupRows = 120
		}
	}
}

// Monitor ingests rows and emits alerts through a callback. It is not
// safe for concurrent use; serialize Append calls.
type Monitor struct {
	// window is the alert plane (schema, timestamps, cadence, dedup)
	// the monitor shares with the fleet ingestion registry.
	window
	// stream is the incremental fast path, non-nil when Detector is the
	// Section 7 DBSCAN detector.
	stream *detect.Stream

	onAlert func(Alert)
	logger  *slog.Logger

	// Column rings, aligned with the window's timestamps: they
	// materialize Alert.Window and serve view and custom detectors.
	numCols  []ring[float64]
	catCols  []ring[string]
	viewCols []metrics.ColumnView // reused scratch for window views

	// Optional observability instruments (nil when Config.Registry is
	// nil; the obs types are nil-safe no-ops in that case).
	rowsIngested     *obs.Counter
	detectionsRun    *obs.Counter
	alertsRaised     *obs.Counter
	snapshotErrors   *obs.Counter
	attrsSelected    *obs.Counter
	pointsClustered  *obs.Counter
	detectionSeconds *obs.Histogram
	lastEpsilon      *obs.Gauge
}

// New builds a monitor; onAlert fires synchronously from Append.
func New(cfg Config, onAlert func(Alert)) (*Monitor, error) {
	if onAlert == nil {
		return nil, errors.New("monitor: onAlert must be non-nil")
	}
	cfg.fillDefaults()
	m := &Monitor{window: window{cfg: cfg}, onAlert: onAlert, logger: cfg.Logger}
	if m.logger == nil {
		m.logger = obs.DiscardLogger()
	}
	if reg := cfg.Registry; reg != nil {
		m.rowsIngested = reg.NewCounterFamily(
			"dbsherlock_monitor_rows_ingested_total",
			"Statistics rows appended to the monitor's sliding window.").With()
		m.detectionsRun = reg.NewCounterFamily(
			"dbsherlock_monitor_detections_run_total",
			"Anomaly detection passes executed over the window.").With()
		m.alertsRaised = reg.NewCounterFamily(
			"dbsherlock_monitor_alerts_total",
			"Alerts raised after deduplication and cooldown.").With()
		m.snapshotErrors = reg.NewCounterFamily(
			"dbsherlock_monitor_snapshot_errors_total",
			"Window snapshot failures (malformed window; the pass is skipped).").With()
		m.attrsSelected = reg.NewCounterFamily(
			"dbsherlock_monitor_attrs_selected_total",
			"Attributes selected by potential power, summed over detection passes.").With()
		m.pointsClustered = reg.NewCounterFamily(
			"dbsherlock_monitor_points_clustered_total",
			"Rows clustered with DBSCAN, summed over detection passes.").With()
		m.detectionSeconds = reg.NewHistogramFamily(
			"dbsherlock_monitor_detection_seconds",
			"Wall-clock duration of one detection pass over the window.", nil).With()
		m.lastEpsilon = reg.NewGaugeFamily(
			"dbsherlock_monitor_last_epsilon",
			"DBSCAN epsilon chosen from the k-dist list by the most recent clustering pass.").With()
	}
	return m, nil
}

// Stats returns the monitor's lifetime counters: rows ingested,
// detection passes run, and alerts raised. All zero when no Registry
// was configured.
func (m *Monitor) Stats() (rowsIngested, detectionsRun, alertsRaised int64) {
	return m.rowsIngested.Value(), m.detectionsRun.Value(), m.alertsRaised.Value()
}

// WindowSize returns the number of rows currently buffered.
func (m *Monitor) WindowSize() int { return m.time.len() }

// Append ingests a chunk of aligned statistics (e.g. one collector
// flush). The first chunk fixes the schema; later chunks must match it
// and continue the timeline.
func (m *Monitor) Append(ds *metrics.Dataset) error {
	if ds == nil || ds.Rows() == 0 {
		return nil
	}
	first := m.attrs == nil
	due, err := m.append(ds, &m.stream)
	if err != nil {
		return err
	}
	if first {
		for _, a := range m.attrs {
			if a.Type == metrics.Numeric {
				m.numCols = append(m.numCols, newRing[float64](m.cfg.WindowSeconds))
			} else {
				m.catCols = append(m.catCols, newRing[string](m.cfg.WindowSeconds))
			}
		}
	}
	ni, ci := 0, 0
	for a := 0; a < ds.NumAttrs(); a++ {
		col := ds.ColumnAt(a)
		if col.Attr.Type == metrics.Numeric {
			for _, v := range col.Num {
				m.numCols[ni].push(v)
			}
			ni++
		} else {
			for _, v := range col.Cat {
				m.catCols[ci].push(v)
			}
			ci++
		}
	}
	m.rowsIngested.Add(int64(ds.Rows()))
	if due {
		m.runDetection()
	}
	return nil
}

// view exposes the window zero-copy as ring segments. Valid only until
// the next Append.
func (m *Monitor) view() metrics.WindowView {
	m.viewCols = m.viewCols[:0]
	ni, ci := 0, 0
	for _, a := range m.attrs {
		cv := metrics.ColumnView{Attr: a}
		if a.Type == metrics.Numeric {
			x, y := m.numCols[ni].segs()
			cv.Num = metrics.NewView(x, y)
			ni++
		} else {
			x, y := m.catCols[ci].segs()
			cv.Cat = metrics.NewView(x, y)
			ci++
		}
		m.viewCols = append(m.viewCols, cv)
	}
	ta, tb := m.time.segs()
	return metrics.WindowView{Time: metrics.NewView(ta, tb), Cols: m.viewCols}
}

// snapshot materializes the window as a Dataset — alert path and
// non-view custom detectors only, never the streaming tick.
func (m *Monitor) snapshot() (*metrics.Dataset, error) {
	return m.view().Materialize()
}

func (m *Monitor) runDetection() {
	m.detectionsRun.Inc()
	start := time.Now()
	defer func() { m.detectionSeconds.Observe(time.Since(start)) }()

	var window *metrics.Dataset // materialized lazily, on the alert path
	var region *metrics.Region
	var ok bool
	var selected []string
	if m.stream != nil {
		// Incremental Section 7 pipeline: no window copy, and the alert
		// can carry the selected attributes without a second pass.
		res := m.stream.Detect()
		region, ok, selected = res.Abnormal, !res.Abnormal.Empty(), res.SelectedAttrs
		m.attrsSelected.Add(int64(len(selected)))
		if res.Epsilon > 0 {
			m.pointsClustered.Add(int64(m.time.len()))
			m.lastEpsilon.Set(res.Epsilon)
		}
	} else if vd, isView := m.cfg.Detector.(detect.ViewDetector); isView {
		region, ok = vd.FindRegionView(m.view())
	} else {
		var err error
		window, err = m.snapshot()
		if err != nil {
			m.snapshotErrors.Inc()
			m.logger.Warn("monitor: window snapshot failed, skipping detection pass", "err", err)
			return
		}
		region, ok = m.cfg.Detector.FindRegion(window)
	}
	if !ok {
		return
	}
	from, to, ok := m.admit(region)
	if !ok {
		return
	}
	if window == nil {
		var err error
		window, err = m.snapshot()
		if err != nil {
			// Dedup state deliberately not committed: the next pass can
			// retry the alert.
			m.snapshotErrors.Inc()
			m.logger.Warn("monitor: window snapshot failed, dropping alert", "err", err)
			return
		}
	}
	m.commit(from, to)

	m.alertsRaised.Inc()
	// The streaming detector reuses its region and attribute scratch
	// across ticks; clone what escapes into the alert.
	m.onAlert(Alert{
		Window: window, Region: region.Clone(),
		FromTime: from, ToTime: to,
		SelectedAttrs: append([]string(nil), selected...),
	})
}
