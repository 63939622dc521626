package monitor

import (
	"fmt"

	"dbsherlock/internal/detect"
	"dbsherlock/internal/metrics"
)

// window is the Section 7 alert plane over one metric stream, shared by
// the Monitor (which embeds it) and the fleet ingestion registry (one
// Window per instance): the schema fixed by the first chunk, the
// timestamp ring, the detection cadence and warm-up, and the alert
// policy — minimum run length and cooldown dedup. The detect.Stream
// sits beside it, in the Monitor or the Window, and append feeds it.
type window struct {
	cfg   Config
	attrs []metrics.Attribute
	time  ring[int64]

	sinceCheck int

	// The remembered span of the last alert, in timestamps.
	alerted       bool
	lastAlertFrom int64
	lastAlertTo   int64
}

// append checks ds against the window's schema (fixed by the first
// chunk) and timeline, then advances the timestamp ring and *stream.
// The first chunk creates *stream when the detector is the Section 7
// DBSCAN detector. It reports whether a detection pass is due: CheckEvery
// rows have arrived since the last one and the window is past warm-up.
func (w *window) append(ds *metrics.Dataset, stream **detect.Stream) (due bool, err error) {
	if w.attrs == nil {
		w.attrs = ds.Attributes()
		w.time = newRing[int64](w.cfg.WindowSeconds)
		if dd, isDBSCAN := w.cfg.Detector.(detect.DBSCANDetector); isDBSCAN {
			*stream = detect.NewStream(dd.Params, w.cfg.WindowSeconds, w.cfg.Workers)
		}
	}
	if err := w.checkSchema(ds); err != nil {
		return false, err
	}
	ts := ds.Timestamps()
	if w.time.len() > 0 && ts[0] <= w.time.last() {
		return false, fmt.Errorf("monitor: chunk starts at %d, window already ends at %d",
			ts[0], w.time.last())
	}
	for _, t := range ts {
		w.time.push(t)
	}
	if *stream != nil {
		(*stream).Append(ds)
	}
	w.sinceCheck += len(ts)
	if w.sinceCheck < w.cfg.CheckEvery {
		return false, nil
	}
	w.sinceCheck = 0
	return w.time.len() >= w.cfg.WarmupRows, nil
}

func (w *window) checkSchema(ds *metrics.Dataset) error {
	attrs := ds.Attributes()
	if len(attrs) != len(w.attrs) {
		return fmt.Errorf("monitor: chunk has %d attributes, window schema has %d", len(attrs), len(w.attrs))
	}
	for i, a := range attrs {
		if a != w.attrs[i] {
			return fmt.Errorf("monitor: attribute %d is %v, window schema has %v", i, a, w.attrs[i])
		}
	}
	return nil
}

// admit applies the alert policy to a detection pass's region: the
// region's largest run must span at least MinAnomalyRows, and its span
// [from, to) must not overlap the last alert's remembered span within
// the cooldown. A suppressed span extends the remembered one, so a long
// anomaly keeps being suppressed rather than re-alerting every check.
// An admitted span is remembered only once the caller commits it.
func (w *window) admit(region *metrics.Region) (from, to int64, ok bool) {
	runLo, runHi := largestRun(region)
	if runHi-runLo < w.cfg.MinAnomalyRows {
		return 0, 0, false
	}
	from = w.time.at(runLo)
	to = w.time.at(runHi-1) + 1
	if w.alerted && from <= w.lastAlertTo+int64(w.cfg.CooldownSeconds) && to >= w.lastAlertFrom {
		if to > w.lastAlertTo {
			w.lastAlertTo = to
		}
		if from < w.lastAlertFrom {
			w.lastAlertFrom = from
		}
		return from, to, false
	}
	return from, to, true
}

// commit remembers [from, to) as the last alert's span.
func (w *window) commit(from, to int64) {
	w.alerted = true
	w.lastAlertFrom, w.lastAlertTo = from, to
}

// largestRun returns the half-open index bounds of the longest run of
// consecutively selected rows (the first such run on ties), without
// materializing the region's indices. It runs every detection tick, so
// it stays allocation-free.
func largestRun(region *metrics.Region) (lo, hi int) {
	region.Runs(func(l, h int) {
		if h-l > hi-lo {
			lo, hi = l, h
		}
	})
	return lo, hi
}

// Window is one pushed metric stream's alert plane for callers outside
// this package: the fleet ingestion registry keeps one per instance. It
// applies the same policy as a Monitor with the same Config, always
// through the streaming detector. A Window is not safe for concurrent
// use.
type Window struct {
	window
	// Stream is the incremental Section 7 detector, created by the first
	// Append when the Config's detector is a detect.DBSCANDetector (nil
	// otherwise). A detection pass runs Stream.Detect and hands the
	// abnormal region to Raise.
	Stream *detect.Stream
}

// NewWindow returns an empty window applying cfg's policy; zero fields
// take the Config defaults.
func NewWindow(cfg Config) Window {
	cfg.fillDefaults()
	return Window{window: window{cfg: cfg}}
}

// Append checks ds against the window's schema and timeline and
// advances the window. It reports whether a detection pass is due.
func (w *Window) Append(ds *metrics.Dataset) (due bool, err error) {
	return w.append(ds, &w.Stream)
}

// Raise applies the alert policy to a detection pass's abnormal region.
// When the largest run is long enough and not a repeat within the
// cooldown, it remembers the run's span and returns it (unix seconds,
// half-open) with ok set.
func (w *Window) Raise(region *metrics.Region) (from, to int64, ok bool) {
	if from, to, ok = w.admit(region); ok {
		w.commit(from, to)
	}
	return from, to, ok
}

// Reset empties the window so the next Append starts a fresh schema,
// timeline and stream. The remembered alert span is kept: it is in
// timestamps, so it still suppresses a repeat of an alert already
// raised.
func (w *Window) Reset() {
	w.attrs, w.time, w.sinceCheck, w.Stream = nil, ring[int64]{}, 0, nil
}
