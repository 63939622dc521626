// Concurrency battery for the Analyzer's locking contract: many
// goroutines exercising the read paths (Explain, Detect, RankAll, model
// accessors, SaveModels) while others drive the write paths (LearnCause,
// AddModel, RecordRemediation, LoadModels) on one shared Analyzer.
// The assertions are deliberately light — the test's job is to give the
// race detector (go test -race) interleavings to object to, and to prove
// readers always see consistent snapshots.
package dbsherlock_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"dbsherlock"
	"dbsherlock/internal/metrics"
)

// raceTrace simulates a short anomaly trace shared by all goroutines.
func raceTrace(t *testing.T, kind dbsherlock.AnomalyKind, seed int64) (*dbsherlock.Dataset, *dbsherlock.Region) {
	t.Helper()
	cfg := dbsherlock.DefaultTestbed()
	cfg.Seed = seed
	ds, abn, err := dbsherlock.Simulate(cfg, 0, 120, []dbsherlock.Injection{
		{Kind: kind, Start: 60, Duration: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, abn
}

func TestAnalyzerConcurrentUse(t *testing.T) {
	a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05), dbsherlock.WithWorkers(4))
	ds, abn := raceTrace(t, dbsherlock.LockContention, 1)
	ds2, abn2 := raceTrace(t, dbsherlock.NetworkCongestion, 2)

	// Seed one cause so Explain exercises the ranking path from the
	// start, and capture a valid store for the LoadModels goroutine.
	if _, err := a.LearnCause("Lock Contention", ds, abn, nil); err != nil {
		t.Fatal(err)
	}
	var store bytes.Buffer
	if err := a.SaveModels(&store); err != nil {
		t.Fatal(err)
	}
	storeBytes := store.Bytes()

	const iters = 15
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	run := func(name string, fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := fn(i); err != nil {
					errs <- fmt.Errorf("%s[%d]: %w", name, i, err)
					return
				}
			}
		}()
	}

	for g := 0; g < 4; g++ {
		run("explain", func(int) error {
			res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
			if err != nil {
				return err
			}
			expl := res.Explanation
			if len(expl.Predicates) == 0 {
				return fmt.Errorf("no predicates")
			}
			// Causes must be a consistent snapshot even mid-learn.
			for _, c := range expl.Causes {
				if c.Cause == "" || c.Model == nil {
					return fmt.Errorf("torn ranked cause %+v", c)
				}
			}
			return nil
		})
	}
	for g := 0; g < 2; g++ {
		run("rankall", func(int) error {
			res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds2, Abnormal: abn2})
			if err != nil {
				return err
			}
			ranked := res.AllCauses
			for i := 1; i < len(ranked); i++ {
				if ranked[i].Confidence > ranked[i-1].Confidence {
					return fmt.Errorf("rank order violated at %d", i)
				}
			}
			return nil
		})
	}
	run("detect", func(int) error {
		_, err := a.Detect(ds)
		return err
	})
	run("learn-same-cause", func(int) error {
		// Repeated learning of one cause forces merges under load.
		_, err := a.LearnCause("Lock Contention", ds, abn, nil)
		return err
	})
	run("learn-new-causes", func(i int) error {
		_, err := a.LearnCause(fmt.Sprintf("Synthetic Cause %d", i), ds2, abn2, nil)
		return err
	})
	run("add-model", func(i int) error {
		m := dbsherlock.NewCausalModel("Injected", []dbsherlock.Predicate{
			{Attr: dbsherlock.AvgLatencyAttr, Type: metrics.Numeric, HasLower: true, Lower: float64(i)},
		})
		return a.AddModel(m)
	})
	run("remediate", func(int) error {
		err := a.RecordRemediation("Lock Contention", "kill the blocking txn")
		// The cause may momentarily be gone right after LoadModels swaps
		// in the seeded store; both outcomes are legal, racing must not be.
		_ = err
		return nil
	})
	run("save", func(int) error {
		return a.SaveModels(io.Discard)
	})
	run("load", func(int) error {
		return a.LoadModels(bytes.NewReader(storeBytes))
	})
	run("accessors", func(int) error {
		for _, cause := range a.Causes() {
			m := a.Model(cause)
			if m == nil {
				continue // store swapped between listing and lookup
			}
			if m.Cause != cause {
				return fmt.Errorf("model %q filed under cause %q", m.Cause, cause)
			}
			_ = m.String()
		}
		return nil
	})

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAnalyzerParallelExplainGolden runs the same Explain concurrently
// on a read-only Analyzer and checks all goroutines get identical
// results — the read path must be side-effect free.
func TestAnalyzerParallelExplainGolden(t *testing.T) {
	a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05), dbsherlock.WithWorkers(8))
	ds, abn := raceTrace(t, dbsherlock.CPUSaturation, 3)
	if _, err := a.LearnCause("CPU Saturation", ds, abn, nil); err != nil {
		t.Fatal(err)
	}
	res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
	if err != nil {
		t.Fatal(err)
	}
	golden := res.Explanation
	goldenRepr := fmt.Sprintf("%+v", golden)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abn})
			if err != nil {
				errs <- err
				return
			}
			expl := res.Explanation
			if repr := fmt.Sprintf("%+v", expl); repr != goldenRepr {
				errs <- fmt.Errorf("explanation diverged:\n got %s\nwant %s", repr, goldenRepr)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
