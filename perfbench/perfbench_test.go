package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tiny runs every workload's code path in well under a minute.
var tiny = scale{Requests: 20, Pool: 24, Train: 60, Epochs: 2, Setups: 1}

func runTiny(t *testing.T, w workload, trace bool) record {
	t.Helper()
	rec, err := run(w, options{workload: w.name, seed: 3, seconds: 1e-3, trace: trace, scale: tiny})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	if len(rec.FailedChecks) > 0 || rec.Failed != 0 {
		t.Fatalf("%s trace=%v: failed %d, checks %q", w.name, trace, rec.Failed, rec.FailedChecks)
	}
	return rec
}

// TestWorkloadsTinyScale runs each workload untraced and traced at tiny
// scale: every check passes, each emits exactly its metric set, the traced
// run's simulated results match the untraced run's, and the traced layer
// self times add up to the traced wall time.
func TestWorkloadsTinyScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, traced := runTiny(t, w, false), runTiny(t, w, true)
			for _, c := range []struct {
				rec   record
				specs []metricSpec
			}{{plain, endToEnd}, {traced, perLayer}} {
				res := c.rec.result()
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("result %+v", res)
				}
				if len(res.Metrics) != len(c.specs) || len(c.rec.Metrics) != len(c.specs) {
					t.Errorf("emitted %d of %d metrics: %v", len(res.Metrics), len(c.specs), c.rec.Metrics)
				}
				for name, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
				}
			}
			for _, name := range []string{"setup_s", "host_ops_per_ref", "host_alloc_kb_per_op", "sim_ops_per_s", "sim_mean_ms", "mispredict_rate"} {
				if !(plain.Metrics[name] > 0) {
					t.Errorf("%s = %v, want > 0", name, plain.Metrics[name])
				}
			}
			if a, b := simJSON(plain.Sim), simJSON(traced.Sim); a != b {
				t.Errorf("traced simulated results differ from untraced:\n%s\n%s", b, a)
			}

			m := traced.Metrics
			wall := m["e2e.traced_us_per_op"]
			phases := m["pilot.infer_us_per_op"] + m["pilot.map_us_per_op"] + m["core.simulate_us_per_op"]
			sum := phases + m["online.host_share"]*wall + m["loop.self_us_per_op"]
			if math.Abs(sum-wall) > 1e-9*wall {
				t.Errorf("layer self times sum to %v us/op, traced wall is %v", sum, wall)
			}
			if phases <= 0 || phases > wall {
				t.Errorf("engine phases %v us/op outside (0, traced wall %v]", phases, wall)
			}
		})
	}
}

// TestBenchmarkJSONMatchesEmittedNames pins BENCHMARK.json to the code: the
// same workloads, and the same metric names and units in the same order.
func TestBenchmarkJSONMatchesEmittedNames(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var jsonNames []string
	for _, w := range b.Workloads {
		jsonNames = append(jsonNames, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(jsonNames, ",") {
		t.Errorf("workloads: code %v, BENCHMARK.json %v", names, jsonNames)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, c := range []struct {
		specs []metricSpec
		json  []struct{ Name, Unit string }
	}{{endToEnd, b.EndToEnd}, {perLayer, b.PerLayer}} {
		if len(c.specs) != len(c.json) {
			t.Errorf("code has %d metrics, BENCHMARK.json %d", len(c.specs), len(c.json))
			continue
		}
		for i, s := range c.specs {
			if s.name != c.json[i].Name || s.unit != c.json[i].Unit {
				t.Errorf("metric %d: code %s [%s], BENCHMARK.json %s [%s]", i, s.name, s.unit, c.json[i].Name, c.json[i].Unit)
			}
			if !valid.MatchString(s.name) || seen[s.name] {
				t.Errorf("metric name %q is invalid or repeated", s.name)
			}
			seen[s.name] = true
		}
	}
}

// fakeTarget returns a different simulated result on every call.
type fakeTarget struct{ calls int64 }

func (f *fakeTarget) call(bool) (outcome, error) {
	f.calls++
	o := outcome{attempted: 1, ops: 1, wallNS: 1000}
	o.sim.Ops, o.sim.P50NS = 1, f.calls
	return o, nil
}

func (f *fakeTarget) probes() (probeResult, error) { return probeResult{}, nil }

// TestRunFlagsNondeterministicCalls checks the replay check itself: calls
// whose simulated results differ fail the run.
func TestRunFlagsNondeterministicCalls(t *testing.T) {
	w := workload{name: "fake", setup: func(uint64, scale, *spans) (target, error) { return &fakeTarget{}, nil }}
	rec, err := run(w, options{seconds: 1e-3, trace: true, scale: scale{Setups: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.FailedChecks) == 0 || rec.result().Correct || rec.Failed == 0 {
		t.Fatalf("differing calls passed: %+v", rec.result())
	}
}

func writeRecords(t *testing.T, recs ...record) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(struct {
			Record record `json:"record"`
		}{r})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteString("\n{\"correct\":true}\n")
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareRefusesOtherHost checks that records from different hosts are
// never compared, and that records from one host are.
func TestCompareRefusesOtherHost(t *testing.T) {
	host := hostFingerprint()
	base := record{Workload: "w", Host: host, Metrics: map[string]float64{"host_ops_per_ref": 100}}
	same := record{Workload: "w", Host: host, Metrics: map[string]float64{"host_ops_per_ref": 110}}
	other := same
	other.Host.CPU += " (other)"

	var out bytes.Buffer
	if err := compareFiles(&out, []string{writeRecords(t, base), writeRecords(t, same)}); err != nil {
		t.Fatalf("same host: %v", err)
	}
	if !strings.Contains(out.String(), "+10.0%") {
		t.Errorf("comparison output lacks the change:\n%s", out.String())
	}
	err := compareFiles(&out, []string{writeRecords(t, base), writeRecords(t, other)})
	if err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Fatalf("different hosts compared, err = %v", err)
	}
}
