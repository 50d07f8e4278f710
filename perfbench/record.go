package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// record is everything one run measured, with the host it ran on and the
// seed. It is printed as one JSON line before the result line, so saved
// output can be compared later with `perfbench compare`.
type record struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Trace        bool               `json:"trace"`
	Host         fingerprint        `json:"host"`
	Seconds      float64            `json:"seconds"`
	Calls        int                `json:"calls"`
	CallWallMS   []float64          `json:"call_wall_ms"`
	CallCPUMS    []float64          `json:"call_cpu_ms"`
	RefCPUMS     []float64          `json:"ref_cpu_ms"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	FailedChecks []string           `json:"failed_checks,omitempty"`
	Notes        []string           `json:"notes,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
	Sim          simStats           `json:"sim"`
	Spans        []spanSummary      `json:"spans,omitempty"`
}

// fingerprint identifies the host a record was taken on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OSArch     string `json:"os_arch"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name where the OS exposes it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type spanSummary struct {
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

func (s *spans) summary() []spanSummary {
	var out []spanSummary
	for _, name := range s.order {
		var total int64
		for _, ns := range s.byName[name] {
			total += ns
		}
		out = append(out, spanSummary{Layer: name, Count: len(s.byName[name]), TotalMS: float64(total) / 1e6})
	}
	return out
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func (r record) result() result {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	out := result{
		Correct: len(r.FailedChecks) == 0, Attempted: max(r.Attempted, 1), Failed: r.Failed,
		Metrics: map[string]valueUnit{},
	}
	for _, m := range specs {
		if v, ok := r.Metrics[m.name]; ok {
			out.Metrics[m.name] = valueUnit{v, m.unit}
		}
	}
	return out
}

// compareFiles compares the records saved in two files (the benchmark's
// standard output, one or more runs each): per workload and metric, the
// median of each side and the change. Records taken on different hosts are
// refused, never compared.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("usage: perfbench compare BASE.jsonl NEW.jsonl")
	}
	var sides [2][]record
	for i, p := range paths {
		recs, err := readRecords(p)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("%s holds no records", p)
		}
		sides[i] = recs
	}
	host := sides[0][0].Host
	for i, recs := range sides {
		for _, r := range recs {
			if r.Host != host {
				return fmt.Errorf("refusing to compare records from different hosts: %s has %+v, %s has %+v",
					paths[0], host, paths[i], r.Host)
			}
		}
	}
	type key struct {
		workload, metric string
	}
	var vals [2]map[key][]float64
	var keys []key
	for i, recs := range sides {
		vals[i] = map[key][]float64{}
		for _, r := range recs {
			for m, v := range r.Metrics {
				k := key{r.Workload, m}
				if i == 0 && vals[0][k] == nil {
					keys = append(keys, k)
				}
				vals[i][k] = append(vals[i][k], v)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-22s %-32s %14s %14s %9s\n", "workload", "metric", "base median", "new median", "change")
	for _, k := range keys {
		if len(vals[1][k]) == 0 {
			continue
		}
		a, b := median(vals[0][k]), median(vals[1][k])
		change := "n/a"
		if a != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(b-a)/a)
		}
		fmt.Fprintf(w, "%-22s %-32s %14.6g %14.6g %9s\n", k.workload, k.metric, a, b, change)
	}
	return nil
}

// readRecords collects the record lines of a saved output file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			Record *record `json:"record"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Record != nil {
			out = append(out, *line.Record)
		}
	}
	return out, sc.Err()
}
