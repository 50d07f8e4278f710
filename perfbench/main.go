// Command perfbench is the repository benchmark. Each process runs one
// workload: it builds the system from the workload seed (several times, for
// setup_s), then repeats one end-to-end call through the public API
// (System.Serve, Cluster.Serve or System.TrainEpoch) for the requested
// seconds, checks every call's outputs, and prints one JSON result line.
// With --trace 1 it reports per-layer metrics instead: set-up layers, the
// engine's host phases, the serve loop's own time, layer probes, and the
// simulated-latency decomposition. README.md documents the workloads and the
// layer-to-end-to-end map.
//
//	perfbench --workload serve-saturated --seed 1 --seconds 18 --trace 0
//	perfbench compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareFiles(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the corpus and every arrival stream derive from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to repeat the end-to-end call")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics, 0 end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *trace == 1
	if err := runMain(os.Stdout, os.Stderr, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runMain runs the workload and prints its record, then the result line.
func runMain(stdout, stderr io.Writer, o options) error {
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.scale == (scale{}) {
		o.scale = w.full
	}
	rec, err := run(w, o)
	if err != nil {
		return err
	}
	for _, c := range rec.FailedChecks {
		fmt.Fprintln(stderr, "check failed:", c)
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(stderr, "note:", n)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(struct {
		Record record `json:"record"`
	}{rec}); err != nil {
		return err
	}
	return enc.Encode(rec.result())
}
