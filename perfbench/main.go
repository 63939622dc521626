// Command perfbench is the repository's end-to-end benchmark. It starts
// the DBSherlock daemon's HTTP server in-process with the shipped
// defaults of cmd/dbsherlockd, drives it over loopback HTTP with one of
// three workloads, checks every response, and prints one JSON result
// line:
//
//	bash perfbench/run.sh --workload fleet_incident --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same inputs are replayed with spans around the calls
// into each layer and the result carries the per-layer metrics. See
// README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for temporary data and span files")
	flag.Parse()
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				fmt.Fprintln(os.Stderr, "perfbench: peak resident memory", strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")))
			}
		}
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		// The result line is printed so the failure is recorded, and the
		// exit code says the run is not to be trusted.
		os.Exit(3)
	}
}

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	outDir   string
	// size scales the workload; nil selects the benchmark's sizes.
	// Tests pass tiny sizes.
	size *sizes
}

func (c runConfig) validate() error {
	if _, ok := workloads[c.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if c.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if c.trace != 0 && c.trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	return nil
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// run executes one workload and returns its result. Human-readable
// report lines (the workload's named figures) go to report; the
// caller prints the result line after them.
func run(cfg runConfig, report io.Writer) (*result, error) {
	wl := workloads[cfg.workload]
	sz := wl.size
	if cfg.size != nil {
		sz = *cfg.size
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("create output directory: %w", err)
	}
	var tr *tracer
	if cfg.trace == 1 {
		tr = newTracer()
	}
	env := &runEnv{
		cfg:     cfg,
		size:    sz,
		tracer:  tr,
		seconds: time.Duration(cfg.seconds) * time.Second,
	}
	out, err := wl.run(env)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check failed: no operation was attempted")
	}
	if tr == nil {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metric{Value: finite(out.e2e[m.Name]), Unit: m.Unit}
		}
		for _, line := range out.reportLines {
			fmt.Fprintf(report, "report %s %s\n", cfg.workload, line)
		}
		return res, nil
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metric{Value: finite(out.layers[m.Name]), Unit: m.Unit}
	}
	if err := tr.write(cfg.outDir, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	return res, nil
}
