// Benchmarks for the observability layer: the full Explain pipeline
// with diagnosis tracing disabled versus enabled. The committed
// baseline lives in BENCH_obs.json; regenerate it with:
//
//	go test -bench BenchmarkExplainTracing -benchtime=5x -benchmem
//
// Tracing is a nil-receiver no-op when disabled, so the "off" variant
// must show zero instrumentation allocations; the "on" variant pays
// one Trace allocation plus atomic adds at each stage boundary and is
// required to stay within 5% of the untraced pipeline.
package dbsherlock_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"dbsherlock"
)

func BenchmarkExplainTracing(b *testing.B) {
	parallelSetup(b)
	for _, sc := range benchScales {
		data := parallelData[sc.name]
		for _, traced := range []bool{false, true} {
			a := benchAnalyzer(b, 0, true)
			mode := "off"
			if traced {
				mode = "on"
			}
			b.Run(fmt.Sprintf("%s/trace=%s", sc.name, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if traced {
						_, err = a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: data.ds, Abnormal: data.abn, Trace: true})
					} else {
						_, err = a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: data.ds, Abnormal: data.abn})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestTracedExplainMatchesUntraced pins that instrumentation is purely
// observational: the traced and untraced pipelines must produce
// identical predicates and cause rankings, and only the traced run may
// carry a snapshot.
func TestTracedExplainMatchesUntraced(t *testing.T) {
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = 1
	ds, abn, err := dbsherlock.Simulate(cfg, 0, 190, []dbsherlock.Injection{
		{Kind: dbsherlock.LockContention, Start: 120, Duration: 60},
	})
	if err != nil {
		t.Fatal(err)
	}

	plain := dbsherlock.MustNew(dbsherlock.WithTheta(0.05))
	traced := dbsherlock.MustNew(dbsherlock.WithTheta(0.05), dbsherlock.WithTracing())
	for i, kind := range []dbsherlock.AnomalyKind{dbsherlock.LockContention, dbsherlock.IOSaturation} {
		mcfg := dbsherlock.DefaultTestbed()
		mcfg.Seed = int64(100 + i)
		mds, mabn, err := dbsherlock.Simulate(mcfg, 0, 190, []dbsherlock.Injection{
			{Kind: kind, Start: 120, Duration: 60},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []*dbsherlock.Analyzer{plain, traced} {
			if _, err := a.LearnCause(kind.String(), mds, mabn, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	plainRes, err := plain.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
	if err != nil {
		t.Fatal(err)
	}
	base := plainRes.Explanation
	tracedRes, err := traced.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
	if err != nil {
		t.Fatal(err)
	}
	instr := tracedRes.Explanation

	if base.Trace != nil {
		t.Error("untraced analyzer attached a trace")
	}
	if instr.Trace == nil {
		t.Fatal("WithTracing analyzer attached no trace")
	}
	if instr.Trace.Workers < 1 || instr.Trace.TotalMS <= 0 {
		t.Errorf("trace = %+v, want positive workers and total", instr.Trace)
	}
	if len(instr.Trace.Stages) == 0 {
		t.Error("trace has no stage timings")
	}

	if len(base.Predicates) == 0 {
		t.Fatal("baseline explain produced no predicates")
	}
	instrCopy := *instr
	instrCopy.Trace = nil
	baseCopy := *base
	baseCopy.Trace = nil
	if !reflect.DeepEqual(baseCopy, instrCopy) {
		t.Errorf("traced explanation differs from untraced:\nbase:  %+v\ntraced: %+v", baseCopy, instrCopy)
	}
}
