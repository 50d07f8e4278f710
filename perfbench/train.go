package main

import (
	"fmt"
	"math"
	"sort"

	d "dynnoffload"
	"dynnoffload/internal/obsv"
)

// trainTarget runs ten epochs through System.TrainEpoch on a fresh engine.
type trainTarget struct {
	model  d.Model
	pilot  *d.Pilot
	pool   []*d.Sample
	epochs int
	sys    *d.System // the last call's system, for the warm-epoch pass
}

func setupTrain(seed uint64, sc scale, layers *spans) (target, error) {
	train, pool := corpus(seed, sc, layers)
	m, err := d.ZooModel("Tree-LSTM", modelBatch, modelSeed)
	if err != nil {
		return nil, err
	}
	var sys *d.System
	err = layers.time("sentinel.context", func() error {
		sys, err = d.NewSystem(m, systemOptions(d.RTXPlatform())...)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Each timed call needs a fresh engine, and the facade hands out no
	// trained pilot, so set-up trains one the way TrainPilot does and every
	// call builds its system around it with WithPilot.
	p := d.NewPilot(pilotConfig())
	err = layers.time("pilot.train", func() error {
		exs, err := sys.Examples(train)
		if err != nil {
			return err
		}
		p.Train(exs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &trainTarget{model: m, pilot: p, pool: pool, epochs: sc.Epochs}, nil
}

func (t *trainTarget) call(traced bool) (outcome, error) {
	sys, err := d.NewSystem(t.model, append(systemOptions(d.RTXPlatform()), d.WithPilot(t.pilot))...)
	if err != nil {
		return outcome{}, err
	}
	t.sys = sys
	var rec *obsv.Recorder
	if traced {
		rec = d.NewRecorder("perfbench", engineCount, nil)
	}
	reports := make([]d.EpochReport, 0, t.epochs)
	o, err := timeCall(func() error {
		for e := 0; e < t.epochs; e++ {
			var rep d.EpochReport
			var err error
			if rec != nil {
				rep, err = sys.TrainEpochStats(t.pool, rec)
			} else {
				rep, err = sys.TrainEpoch(t.pool)
			}
			if err != nil {
				return err
			}
			reports = append(reports, rep)
		}
		return nil
	})
	o.attempted = int64(t.epochs * len(t.pool))
	if err != nil {
		o.failed = o.attempted
		return o, err
	}
	if rec != nil {
		ph := rec.Snapshot().Phases
		o.pilotNS, o.mappingNS, o.simulateNS = ph["pilot"].SumNS, ph["mapping"].SumNS, ph["simulate"].SumNS
	}
	var total d.Breakdown
	for _, rep := range reports {
		total = total.Add(rep.Breakdown)
		o.ops += int64(rep.Samples)
		o.sim.Mispredicts += int64(rep.Mispredictions)
		o.sim.CacheHits += int64(rep.CacheHits)
	}
	if o.ops != o.attempted {
		o.checks = append(o.checks, fmt.Sprintf("train ops %d != epochs %d x pool %d", o.ops, t.epochs, len(t.pool)))
	}
	o.sim.Ops, o.sim.Samples = o.ops, o.ops
	if dev := total.DeviceNS(); dev > 0 {
		o.sim.OpsPerSimS = float64(o.ops) / (float64(dev) / 1e9)
	}
	o.sim.All = deviceComponents(total)
	o.sim.OverlapEff = total.OverlapEfficiency()
	o.sim.H2DBytes = total.H2DBytes
	o.sim.PeakBytes = total.PeakGPUBytes
	if err := t.warmEpoch(&o.sim); err != nil {
		return o, err
	}
	return o, nil
}

// warmEpoch runs one more pass over the pool through the DyNN-Offload Runner
// on the trained engine. TrainEpoch reports only epoch sums, so this warm
// epoch supplies the per-iteration distribution (p50, p99, tail).
func (t *trainTarget) warmEpoch(s *simStats) error {
	r, err := t.sys.Runner(d.DyNNOffload)
	if err != nil {
		return err
	}
	exs, err := t.sys.Examples(t.pool)
	if err != nil {
		return err
	}
	iters := make([]d.Breakdown, len(exs))
	for i, ex := range exs {
		if iters[i], err = r.RunIteration(ex); err != nil {
			return err
		}
	}
	sort.SliceStable(iters, func(i, j int) bool { return iters[i].DeviceNS() < iters[j].DeviceNS() })
	s.P50NS = exactQuantile(iters, 0.50)
	s.P99NS = exactQuantile(iters, 0.99)
	for _, b := range iters {
		if b.DeviceNS() >= s.P99NS {
			s.Tail.Add(deviceComponents(b))
			s.TailCount++
		}
	}
	return nil
}

// exactQuantile is the nearest-rank quantile of DeviceNS over sorted
// breakdowns.
func exactQuantile(sorted []d.Breakdown, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)].DeviceNS()
}

// deviceComponents maps a training breakdown onto the serve attribution
// taxonomy, so one set of decomposition metrics covers both kinds of op.
func deviceComponents(b d.Breakdown) obsv.AttributionComponents {
	return obsv.AttributionComponents{
		ComputeNS: b.ComputeNS, ExposedNS: b.ExposedXferNS, RematNS: b.RematNS, FaultNS: b.FaultNS,
	}
}

func (t *trainTarget) probes() (probeResult, error) {
	exs, err := t.sys.Examples(t.pool)
	if err != nil {
		return probeResult{}, err
	}
	var pr probeResult
	gpuMem := t.sys.Platform().GPU.MemBytes
	pr.ReserveCalls, pr.ReserveNS, pr.RefusedCalls, pr.RefusedNS = probeReserve(exs, []d.ServeTenant{{Name: "train"}}, gpuMem)
	pr.RetrainCalls, pr.RetrainNS, err = probeRetrain(exs, d.OnlineConfig{}, 1)
	return pr, err
}
