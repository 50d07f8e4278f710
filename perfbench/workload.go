package main

import (
	"fmt"
	"strings"
	"time"

	d "dynnoffload"
	"dynnoffload/internal/obsv"
)

// scale sizes one workload. full is what the benchmark measures; tests run a
// tiny scale through the same code.
type scale struct {
	Requests int // per tenant (serve workloads)
	Pool     int // request pool (serve) or training pool (train) samples
	Train    int // pilot-training corpus samples
	Epochs   int // epochs per timed call (train-epochs)
	Setups   int // set-ups per run; setup_s is their median
}

// workload is one traffic mix. setup builds the system from the seed and
// returns the target whose end-to-end call is timed.
type workload struct {
	name string
	full scale
	// setup builds the system; layers receives the time of each set-up layer
	// (corpus, sentinel context, pilot training).
	setup func(seed uint64, sc scale, layers *spans) (target, error)
}

// target is a built system ready for its end-to-end call.
type target interface {
	// call runs the end-to-end phase once. traced attaches the engine's
	// host-phase recorder where the untraced call would not have one.
	call(traced bool) (outcome, error)
	// probes times the layer probes on the workload's own inputs.
	probes() (probeResult, error)
}

// outcome is one end-to-end call. sim holds only simulated-clock values and
// replays bit-identically; the rest is host-clock measurement.
type outcome struct {
	attempted int64 // requests offered or iterations run
	ops       int64 // requests completed or iterations run
	failed    int64 // shed, quota-shed and errored requests
	checks    []string
	wallNS    int64
	cpuNS     int64
	refNS     int64 // CPU ns of the reference kernel run right after the call
	allocB    uint64
	// Engine host phases summed over the call (wall ns); zero when the call
	// ran without a recorder.
	pilotNS, mappingNS, simulateNS int64
	sim                            simStats
}

// simStats is everything a call reports on the simulated clock. Two calls on
// the same inputs must produce byte-identical JSON encodings of it.
type simStats struct {
	Ops         int64   `json:"ops"`
	OpsPerSimS  float64 `json:"ops_per_sim_s"`
	P50NS       int64   `json:"p50_ns"`
	P99NS       int64   `json:"p99_ns"`
	Samples     int64   `json:"samples"`
	Mispredicts int64   `json:"mispredicts"`
	CacheHits   int64   `json:"cache_hits"`
	// All decomposes the summed per-op simulated time (request latency for
	// serve, device time for train); Tail the ops at or past the p99.
	All       obsv.AttributionComponents `json:"all"`
	Tail      obsv.AttributionComponents `json:"tail"`
	TailCount int64                      `json:"tail_count"`
	// Serve-loop values (zero on train-epochs).
	Batches     int64   `json:"batches"`
	MeanBatch   float64 `json:"mean_batch"`
	ReplicaUtil float64 `json:"replica_util"`
	SLOAttain   float64 `json:"slo_attain"`
	Retrains    int64   `json:"retrains"`
	LastWindow  float64 `json:"last_window"`
	// Transfer figures from the engine's breakdown (zero on serve, whose
	// reports carry no transfer totals).
	OverlapEff float64 `json:"overlap_eff"`
	H2DBytes   int64   `json:"h2d_bytes"`
	PeakBytes  int64   `json:"peak_bytes"`
}

// probeResult is the layer probes' output: calls made and wall ns per call.
type probeResult struct {
	ReserveCalls, RefusedCalls, RetrainCalls int64
	ReserveNS, RefusedNS, RetrainNS          float64
}

// workloads are the benchmark's traffic mixes. Each stresses a different
// host layer; README.md records why each was chosen.
var workloads = []workload{
	{
		// Deep queue: serve-loop batch selection and refused reservations
		// dominate host time.
		name: "serve-saturated",
		full: scale{Requests: 1000, Pool: 400, Train: 1500, Setups: 3},
		setup: serveSpec{
			model: "var-BERT", platform: d.A100Platform,
			rate: 1000, slo: 5 * time.Second, quota: true,
		}.setup,
	},
	{
		// Online learning below capacity: retrain stalls dominate host time,
		// exposed transfer dominates simulated latency.
		name: "serve-online-cluster",
		full: scale{Requests: 1500, Pool: 400, Train: 1500, Setups: 3},
		setup: serveSpec{
			model: "Tree-CNN", platform: d.RTXPlatform, gpus: 2, online: true,
			rate: 40, slo: 50 * time.Millisecond,
		}.setup,
	},
	{
		// No serve loop: pilot inference and mapping dominate host time.
		name:  "train-epochs",
		full:  scale{Pool: 2000, Train: 1500, Epochs: 10, Setups: 3},
		setup: setupTrain,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Fixed model and pilot settings; only the corpus, the arrival streams and
// the online learner's sampling derive from the workload seed.
const (
	modelSeed   = 1
	modelBatch  = 48
	pilotSeed   = 5
	pressure    = 0.5
	minTokens   = 8
	maxTokens   = 48
	engineCount = 1 // engine workers: phase sums then subtract cleanly from wall time
)

func pilotConfig() d.PilotConfig {
	return d.PilotConfig{Neurons: 128, Epochs: 12, Seed: pilotSeed}
}

func systemOptions(plat d.Platform) []d.Option {
	return []d.Option{
		d.WithPlatform(plat),
		d.WithMemoryPressure(pressure),
		d.WithWorkers(engineCount),
		d.WithPilotConfig(pilotConfig()),
	}
}

// corpus generates the seed's samples: the pilot-training set, then the pool.
func corpus(seed uint64, sc scale, layers *spans) (train, pool []*d.Sample) {
	var all []*d.Sample
	layers.time("dynn.corpus", func() error {
		all = d.GenerateSamples(seed, sc.Train+sc.Pool, minTokens, maxTokens)
		return nil
	})
	return all[:sc.Train], all[sc.Train:]
}
