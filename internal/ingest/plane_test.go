package ingest

import (
	"fmt"
	"reflect"
	"testing"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/monitor"
)

// TestPlanesRaiseIdenticalAlerts drives the same chunked traces through
// the fleet registry (one instance, alerts read from Subscribe) and
// through an in-process monitor configured with the same window,
// cadence, warm-up, minimum run and cooldown. Both planes apply one
// Section 7 alert policy, so their alert streams must agree exactly.
func TestPlanesRaiseIdenticalAlerts(t *testing.T) {
	const (
		window   = 300
		every    = 30
		warmup   = 150
		minRun   = 12
		cooldown = 90
	)
	type trace struct {
		name      string
		ds        *metrics.Dataset
		anomalous bool
	}
	var traces []trace
	for _, seed := range []int64{1, 2, 3} {
		traces = append(traces, trace{
			name: fmt.Sprintf("seed=%d", seed),
			ds: simTrace(t, 900, []anomaly.Injection{
				{Kind: anomaly.CPUSaturation, Start: 250, Duration: 60},
				{Kind: anomaly.IOSaturation, Start: 600, Duration: 50},
			}, seed),
			anomalous: true,
		})
	}
	traces = append(traces, trace{name: "healthy", ds: simTrace(t, 600, nil, 4)})

	for _, tr := range traces {
		for _, size := range []int{1, 7, 30} {
			ctx := fmt.Sprintf("%s chunk=%d", tr.name, size)

			r := New(Config{
				WindowRows:      window,
				CheckEvery:      every,
				WarmupRows:      warmup,
				MinAnomalyRows:  minRun,
				CooldownSeconds: cooldown,
				Workers:         1,
			})
			sub := r.Subscribe("t")
			var fleet []Alert
			var local []monitor.Alert
			m, err := monitor.New(monitor.Config{
				WindowSeconds:   window,
				CheckEvery:      every,
				WarmupRows:      warmup,
				MinAnomalyRows:  minRun,
				CooldownSeconds: cooldown,
				Workers:         1,
			}, func(a monitor.Alert) { local = append(local, a) })
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range chunked(t, tr.ds, size) {
				if err := r.Ingest("t", "db", c); err != nil {
					t.Fatalf("%s: ingest: %v", ctx, err)
				}
				if err := m.Append(c); err != nil {
					t.Fatalf("%s: monitor: %v", ctx, err)
				}
			drain:
				for {
					select {
					case a := <-sub.C:
						fleet = append(fleet, a)
					default:
						break drain
					}
				}
			}
			r.Close()

			if tr.anomalous && len(local) == 0 {
				t.Fatalf("%s: monitor raised no alerts; the trace does not exercise the policy", ctx)
			}
			if len(fleet) != len(local) {
				t.Fatalf("%s: registry raised %d alerts, monitor %d", ctx, len(fleet), len(local))
			}
			for i := range local {
				f, l := fleet[i], local[i]
				if f.FromTime != l.FromTime || f.ToTime != l.ToTime {
					t.Fatalf("%s: alert %d spans [%d,%d) in the registry, [%d,%d) in the monitor",
						ctx, i, f.FromTime, f.ToTime, l.FromTime, l.ToTime)
				}
				if !reflect.DeepEqual(f.SelectedAttrs, l.SelectedAttrs) {
					t.Fatalf("%s: alert %d selected %v in the registry, %v in the monitor",
						ctx, i, f.SelectedAttrs, l.SelectedAttrs)
				}
			}
		}
	}
}
