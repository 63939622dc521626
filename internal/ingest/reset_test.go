package ingest

import (
	"errors"
	"testing"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/metrics"
)

// shifted copies ds with every timestamp moved by delta seconds.
func shifted(t *testing.T, ds *metrics.Dataset, delta int64) *metrics.Dataset {
	t.Helper()
	ts := make([]int64, ds.Rows())
	for i, v := range ds.Timestamps() {
		ts[i] = v + delta
	}
	out := metrics.MustNewDataset(ts)
	for a := 0; a < ds.NumAttrs(); a++ {
		col := ds.ColumnAt(a)
		var err error
		if col.Attr.Type == metrics.Numeric {
			err = out.AddNumeric(col.Attr.Name, col.Num)
		} else {
			err = out.AddCategorical(col.Attr.Name, col.Cat)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestIngestPanicResetKeepsDedupSpan pins the reset rule: a recovered
// detection panic restarts the instance's window, but the remembered
// alert span survives, so the same anomaly replayed at later timestamps
// inside the cooldown raises no second alert. A control instance fed
// the same replay from a fresh start does alert, so the suppression is
// the dedup span's doing and not a quiet replay.
func TestIngestPanicResetKeepsDedupSpan(t *testing.T) {
	trace := simTrace(t, 600, []anomaly.Injection{
		{Kind: anomaly.IOSaturation, Start: 400, Duration: 60},
	}, 1)
	r := New(Config{WindowRows: 300, CheckEvery: 30, CooldownSeconds: 600})
	defer r.Close()
	sub := r.Subscribe("t")
	defer sub.Cancel()
	alertsFor := func(instance string) int {
		n := 0
		for {
			select {
			case a := <-sub.C:
				if a.Instance == instance {
					n++
				}
				continue
			default:
			}
			return n
		}
	}

	for _, c := range chunked(t, trace, 30) {
		if err := r.Ingest("t", "db", c); err != nil {
			t.Fatal(err)
		}
	}
	if n := alertsFor("db"); n == 0 {
		t.Fatal("no alert for the original anomaly")
	}

	// The replay runs 600 s later: its anomaly starts within the
	// cooldown of the first alert's span.
	replay := chunked(t, shifted(t, trace, 600), 30)
	inst, err := r.instanceFor("t", "db")
	if err != nil {
		t.Fatal(err)
	}
	inst.win.Stream = nil // the next append panics inside detect.Stream
	if err := r.Ingest("t", "db", replay[0]); !errors.Is(err, ErrDetectionPanic) {
		t.Fatalf("panicking append returned %v, want ErrDetectionPanic", err)
	}
	for _, c := range replay[1:] {
		if err := r.Ingest("t", "db", c); err != nil {
			t.Fatal(err)
		}
		if err := r.Ingest("t", "control", c); err != nil {
			t.Fatal(err)
		}
	}
	if n := alertsFor("db"); n != 0 {
		t.Fatalf("%d alerts for the replayed anomaly after the reset, want 0 (dedup span lost)", n)
	}
	if got := r.List("t")[0]; got.Instance != "control" || got.Alerts == 0 {
		t.Fatalf("control instance status %+v: the replay alone should alert", got)
	}
}
