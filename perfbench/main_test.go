package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinySizes shrink every workload so a run takes a few seconds while
// still reaching every code path (alerts, diagnoses, learns, restarts)
// and enough samples for the reported percentiles.
var tinySizes = map[string]sizes{
	"fleet_healthy":  tinyFleet(0),
	"fleet_incident": tinyFleet(8),
	"investigate": {
		bankRows: 300, setups: 2, datasets: 2, datasetRows: 300,
		epochs: 4, epochExplains: 400, workingSet: 4, workers: 2, restarts: 1,
	},
}

func tinyFleet(incidentEvery int) sizes {
	return sizes{
		instances: 16, incidentEvery: incidentEvery, prefill: 150, timedRows: 2400,
		stagger: 30, slack: 30, healthyTraces: 2, incidentTraces: 1, bankRows: 300, setups: 2,
	}
}

func TestInputsDeterministic(t *testing.T) {
	fleet := func(seed int64) []byte {
		in, err := genFleet(seed, tinyFleet(4), true)
		if err != nil {
			t.Fatal(err)
		}
		return in.digest()
	}
	inv := func(seed int64) []byte {
		in, err := genInvestigate(seed, tinySizes["investigate"])
		if err != nil {
			t.Fatal(err)
		}
		return in.digest()
	}
	for name, gen := range map[string]func(int64) []byte{"fleet": fleet, "investigate": inv} {
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two runs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRe.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRe)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRe)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
		if def, ok := workloads[w.Name]; !ok || def.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why differs from the workloads table", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why longer than 200 characters", w.Name)
		}
	}
	sort.Strings(wls)
	if strings.Join(wls, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, table has %v", wls, workloadNames())
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end %v, table has %v", e2e, endToEnd)
	}
	if fmt.Sprint(b.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer %v, table has %v", b.PerLayer, perLayer)
	}
}

func TestTailSupport(t *testing.T) {
	if tailSupported(999, 0.99) || !tailSupported(1000, 0.99) {
		t.Error("p99 needs 1000 samples for 10 beyond it")
	}
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
	if got := highestSupported(100); got != 0.9 {
		t.Errorf("highestSupported(100) = %v, want 0.9", got)
	}
	s := samples{}
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	if got := s.quantile(0.9); got != 90 {
		t.Errorf("p90 of 1..100ms = %v, want 90", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "client.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.x", Start: 10, End: 70},
		{ID: 3, Parent: 1, Name: "server.x", Start: 60, End: 90},
	}
	if got := tr.selfByName("client.x"); len(got) != 1 || got[0] != 20 {
		t.Errorf("self time %v, want [20ns]", got)
	}
}

// checkContract validates one result line against the output contract.
func checkContract(line []byte, want []metricDef) error {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		return err
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		return fmt.Errorf("top-level keys %v", keys)
	}
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted json.Number                `json:"attempted"`
		Failed    json.Number                `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(line, &res); err != nil {
		return err
	}
	attempted, err := res.Attempted.Int64()
	if err != nil || attempted < 1 {
		return fmt.Errorf("attempted %q is not a whole number >= 1", res.Attempted)
	}
	if _, err := res.Failed.Int64(); err != nil {
		return fmt.Errorf("failed %q is not a whole number", res.Failed)
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		raw, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s missing", m.Name)
		}
		var v struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(raw, &v); err != nil || v.Value == nil || v.Unit != m.Unit {
			return fmt.Errorf("metric %s: %s (want a value and unit %q)", m.Name, raw, m.Unit)
		}
	}
	if !res.Correct {
		return fmt.Errorf("run reported correct=false")
	}
	return nil
}

// TestTinyRuns runs every workload, untraced and traced, at tiny sizes
// and checks the printed result line against the output contract.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// Long enough that a traced fleet run gathers the 1000 pushes its
	// tick p99 needs within the phase's threefold extension.
	seconds := 5
	if raceBuild {
		seconds = 30
	}
	for _, name := range workloadNames() {
		for _, traced := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", name, traced), func(t *testing.T) {
				sz := tinySizes[name]
				cfg := runConfig{workload: name, seed: 3, seconds: seconds, trace: traced, outDir: t.TempDir(), size: &sz}
				var out bytes.Buffer
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if err := printResult(&out, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				want := endToEnd
				if traced == 1 {
					want = perLayer
				}
				if err := checkContract([]byte(lines[len(lines)-1]), want); err != nil {
					t.Fatalf("%v\noutput:\n%s", err, out.String())
				}
				if traced == 0 {
					for _, m := range endToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			})
		}
	}
}
