// Benchmarks for the parallel diagnosis engine: sequential (workers=1)
// versus parallel (4 and 8 workers) Explain and Rank on small and large
// synthetic datasets. The committed baseline lives in BENCH_parallel.json;
// regenerate it with:
//
//	go test -bench 'BenchmarkExplainWorkers|BenchmarkRankWorkers' -benchtime=3x
//
// Per-attribute and per-model work is embarrassingly parallel, so on an
// N-core machine the speedup should approach min(workers, N); on a
// single-core machine (GOMAXPROCS=1) the pool degrades to near-sequential
// throughput, which bounds the scheduling overhead instead.
package dbsherlock_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"dbsherlock"
)

type benchScale struct {
	name    string
	seconds int
	aStart  int
	aDur    int
}

var benchScales = []benchScale{
	{name: "small", seconds: 190, aStart: 120, aDur: 60},
	{name: "large", seconds: 900, aStart: 600, aDur: 120},
}

var benchWorkerCounts = []int{1, 4, 8}

var (
	parallelOnce sync.Once
	parallelData map[string]struct {
		ds  *dbsherlock.Dataset
		abn *dbsherlock.Region
	}
	parallelModels []byte // SaveModels stream with the paper's ten causes
	parallelErr    error
)

// parallelSetup simulates the two dataset scales and learns all ten
// anomaly classes once, exporting the models so each benchmark (or
// test) analyzer can load an identical repository.
func parallelSetup(b testing.TB) {
	b.Helper()
	parallelOnce.Do(func() {
		parallelData = make(map[string]struct {
			ds  *dbsherlock.Dataset
			abn *dbsherlock.Region
		})
		for _, sc := range benchScales {
			cfg := dbsherlock.DefaultTestbed()
			cfg.Seed = 1
			ds, abn, err := dbsherlock.Simulate(cfg, 0, sc.seconds, []dbsherlock.Injection{
				{Kind: dbsherlock.LockContention, Start: sc.aStart, Duration: sc.aDur},
			})
			if err != nil {
				parallelErr = err
				return
			}
			parallelData[sc.name] = struct {
				ds  *dbsherlock.Dataset
				abn *dbsherlock.Region
			}{ds, abn}
		}
		teacher := dbsherlock.MustNew(dbsherlock.WithTheta(0.05))
		for i, kind := range dbsherlock.AnomalyKinds() {
			cfg := dbsherlock.DefaultTestbed()
			cfg.Seed = int64(100 + i)
			ds, abn, err := dbsherlock.Simulate(cfg, 0, 190, []dbsherlock.Injection{
				{Kind: kind, Start: 120, Duration: 60},
			})
			if err != nil {
				parallelErr = err
				return
			}
			if _, err := teacher.LearnCause(kind.String(), ds, abn, nil); err != nil {
				parallelErr = err
				return
			}
		}
		var buf bytes.Buffer
		if err := teacher.SaveModels(&buf); err != nil {
			parallelErr = err
			return
		}
		parallelModels = buf.Bytes()
	})
	if parallelErr != nil {
		b.Fatal(parallelErr)
	}
}

func benchAnalyzer(b testing.TB, workers int, withModels bool) *dbsherlock.Analyzer {
	b.Helper()
	a := dbsherlock.MustNew(dbsherlock.WithTheta(0.05), dbsherlock.WithWorkers(workers))
	if withModels {
		if err := a.LoadModels(bytes.NewReader(parallelModels)); err != nil {
			b.Fatal(err)
		}
	}
	return a
}

// BenchmarkExplainWorkers measures the full Explain pipeline —
// Algorithm 1 over all ~116 attributes plus ranking of the ten learned
// causal models — at each worker count.
func BenchmarkExplainWorkers(b *testing.B) {
	parallelSetup(b)
	for _, sc := range benchScales {
		data := parallelData[sc.name]
		for _, workers := range benchWorkerCounts {
			a := benchAnalyzer(b, workers, true)
			b.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: data.ds, Abnormal: data.abn}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRankWorkers isolates model ranking (Equation 3 over the ten
// learned causes, one shared partition-space build) at each worker count.
func BenchmarkRankWorkers(b *testing.B) {
	parallelSetup(b)
	for _, sc := range benchScales {
		data := parallelData[sc.name]
		for _, workers := range benchWorkerCounts {
			a := benchAnalyzer(b, workers, true)
			b.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := a.RankAllContext(context.Background(), data.ds, data.abn, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGenerateWorkers isolates Algorithm 1 (no ranking) so the
// per-attribute fan-out is measured without the model-scoring stage.
func BenchmarkGenerateWorkers(b *testing.B) {
	parallelSetup(b)
	for _, sc := range benchScales {
		data := parallelData[sc.name]
		for _, workers := range benchWorkerCounts {
			a := benchAnalyzer(b, workers, false)
			b.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := a.Diagnose(context.Background(), dbsherlock.DiagnoseRequest{Dataset: data.ds, Abnormal: data.abn}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
