package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"dynnoffload/internal/obsv"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    scale // zero means the workload's full scale
}

// traceTolerance bounds how far the traced call's wall time, which the layer
// self times sum to, may stray from the untraced call's before the record
// notes that the layers do not account for the end-to-end time.
const traceTolerance = 0.25

// metricSpec names one emitted metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd is emitted with --trace 0 on every workload. An op is a served
// request or a training iteration.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"host_ops_per_ref", "1/ref"},
	{"host_alloc_kb_per_op", "KiB"},
	{"sim_ops_per_s", "1/s"},
	{"sim_mean_ms", "ms"},
	{"mispredict_rate", "frac"},
}

// perLayer is emitted with --trace 1 on every workload; a layer a workload
// does not run reports 0 (README.md lists which).
var perLayer = []metricSpec{
	{"dynn.corpus_s", "s"},
	{"sentinel.context_s", "s"},
	{"pilot.train_s", "s"},
	{"pilot.infer_us_per_op", "us"},
	{"pilot.map_us_per_op", "us"},
	{"core.simulate_us_per_op", "us"},
	{"loop.self_us_per_op", "us"},
	{"e2e.traced_us_per_op", "us"},
	{"e2e.untraced_us_per_op", "us"},
	{"obsv.trace_overhead_frac", "frac"},
	{"online.host_share", "frac"},
	{"online.retrains", "count"},
	{"online.retrain_ms", "ms"},
	{"online.retrain_calls", "count"},
	{"online.last_window_mispredict", "frac"},
	{"gpusim.reserve_ns", "ns"},
	{"gpusim.reserve_calls", "count"},
	{"gpusim.reserve_refused_ns", "ns"},
	{"gpusim.reserve_refused_calls", "count"},
	{"serve.batches", "count"},
	{"serve.mean_batch", "count"},
	{"serve.replica_util", "frac"},
	{"serve.slo_attain", "frac"},
	{"core.mispredict_cache_hits", "count"},
	{"serve.queue_frac", "frac"},
	{"serve.quota_frac", "frac"},
	{"serve.batch_frac", "frac"},
	{"online.retrain_frac", "frac"},
	{"gpusim.compute_frac", "frac"},
	{"gpusim.exposed_frac", "frac"},
	{"gpusim.remat_frac", "frac"},
	{"faults.fault_frac", "frac"},
	{"serve.tail_queue_frac", "frac"},
	{"serve.tail_quota_frac", "frac"},
	{"serve.tail_batch_frac", "frac"},
	{"online.tail_retrain_frac", "frac"},
	{"gpusim.tail_compute_frac", "frac"},
	{"gpusim.tail_exposed_frac", "frac"},
	{"gpusim.tail_remat_frac", "frac"},
	{"faults.tail_fault_frac", "frac"},
	{"gpusim.device_ms", "ms"},
	{"gpusim.compute_ms", "ms"},
	{"gpusim.exposed_ms", "ms"},
	{"gpusim.overlap_eff", "frac"},
	{"gpusim.h2d_mb", "MB"},
	{"gpusim.peak_gpu_mb", "MB"},
}

// run sets the workload up, repeats its end-to-end call for o.seconds and
// returns the record.
func run(w workload, o options) (record, error) {
	rec := record{Workload: w.name, Seed: o.seed, Trace: o.trace, Host: hostFingerprint(), Seconds: o.seconds}
	layers := newSpans()
	var tgt target
	for i := 0; i < max(o.scale.Setups, 1); i++ {
		var err error
		if err = layers.time("setup", func() error {
			tgt, err = w.setup(o.seed, o.scale, layers)
			return err
		}); err != nil {
			return rec, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}

	// Untraced and (with --trace 1) traced calls alternate until the time
	// is spent; each kind runs at least once.
	var plain, traced []outcome
	sw := obsv.StartTimer()
	for len(plain) == 0 || (o.trace && len(traced) == 0) || float64(sw.ElapsedNS()) < o.seconds*1e9 {
		tracedCall := o.trace && len(traced) < len(plain)
		span := "e2e.call"
		if tracedCall {
			span = "e2e.traced_call"
		}
		var out outcome
		err := layers.time(span, func() (err error) {
			out, err = tgt.call(tracedCall)
			return err
		})
		rec.Attempted += out.attempted
		rec.Failed += out.failed
		if err != nil {
			rec.FailedChecks = append(rec.FailedChecks, fmt.Sprintf("call %d: %v", len(plain)+len(traced), err))
			break
		}
		rec.FailedChecks = append(rec.FailedChecks, out.checks...)
		rec.CallWallMS = append(rec.CallWallMS, float64(out.wallNS)/1e6)
		rec.CallCPUMS = append(rec.CallCPUMS, float64(out.cpuNS)/1e6)
		if tracedCall {
			traced = append(traced, out)
		} else {
			out.refNS = refKernel()
			rec.RefCPUMS = append(rec.RefCPUMS, float64(out.refNS)/1e6)
			plain = append(plain, out)
		}
	}
	rec.Calls = len(plain) + len(traced)
	if len(plain) == 0 || (o.trace && len(traced) == 0) {
		rec.Failed += int64(len(rec.FailedChecks))
		return rec, nil
	}

	// Host wall time must never feed the simulated clock: every call, traced
	// or not, reports the same simulated results byte for byte.
	ref := simJSON(plain[0].sim)
	for i, out := range append(plain[1:], traced...) {
		if got := simJSON(out.sim); got != ref {
			rec.FailedChecks = append(rec.FailedChecks,
				fmt.Sprintf("call %d simulated results differ from call 0:\n  %s\n  %s", i+1, got, ref))
		}
	}
	rec.Sim = plain[0].sim

	var err error
	if o.trace {
		rec.Metrics, err = layerMetrics(tgt, layers, plain, traced, &rec)
	} else {
		rec.Metrics = endToEndMetrics(layers, plain)
	}
	if err != nil {
		return rec, err
	}
	rec.Spans = layers.summary()
	rec.Failed += int64(len(rec.FailedChecks))
	return rec, nil
}

func simJSON(s simStats) string {
	b, err := json.Marshal(s)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// endToEndMetrics takes the host medians over every call but the first,
// which warms the heap and caches; the first call is still checked. Host
// throughput is ops per reference-kernel run: each call's ops scaled by the
// CPU time of the kernel run right after it over the call's own CPU time.
func endToEndMetrics(layers *spans, calls []outcome) map[string]float64 {
	var opsPerRef, kbPerOp []float64
	warm := calls
	if len(calls) > 1 {
		warm = calls[1:]
	}
	for _, c := range warm {
		opsPerRef = append(opsPerRef, float64(c.ops)*float64(c.refNS)/float64(c.cpuNS))
		kbPerOp = append(kbPerOp, perOp(float64(c.allocB)/1024, c.ops))
	}
	s := calls[0].sim
	return map[string]float64{
		"setup_s":              layers.medianS("setup"),
		"host_ops_per_ref":     median(opsPerRef),
		"host_alloc_kb_per_op": median(kbPerOp),
		"sim_ops_per_s":        s.OpsPerSimS,
		"sim_mean_ms":          perOp(float64(s.All.TotalNS()), s.Ops) / 1e6,
		"mispredict_rate":      frac(s.Mispredicts, s.Samples),
	}
}

// layerMetrics splits the median traced call into layer self times and adds
// the probes, counters and simulated decomposition.
func layerMetrics(tgt target, layers *spans, plain, traced []outcome, rec *record) (map[string]float64, error) {
	var pr probeResult
	err := layers.time("probes", func() (err error) {
		pr, err = tgt.probes()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i].wallNS < traced[j].wallNS })
	t := traced[len(traced)/2]
	var plainWall []float64
	for _, c := range plain {
		plainWall = append(plainWall, float64(c.wallNS))
	}
	untracedNS := median(plainWall)

	s := t.sim
	us := func(ns float64) float64 { return perOp(ns, t.ops) / 1e3 }
	learnerNS := float64(s.Retrains) * pr.RetrainNS
	phasesNS := float64(t.pilotNS + t.mappingNS + t.simulateNS)
	selfNS := float64(t.wallNS) - phasesNS - learnerNS
	if selfNS < 0 {
		rec.Notes = append(rec.Notes, fmt.Sprintf(
			"engine phases (%.0f ns) and learner estimate (%.0f ns) exceed the traced wall time (%d ns)",
			phasesNS, learnerNS, t.wallNS))
	}
	overhead := float64(t.wallNS)/untracedNS - 1
	if overhead > traceTolerance || overhead < -traceTolerance {
		rec.Notes = append(rec.Notes, fmt.Sprintf(
			"traced wall time is %+.1f%% off the untraced wall time, outside the %.0f%% tolerance",
			100*overhead, 100*traceTolerance))
	}
	all, tail := s.All.TotalNS(), s.Tail.TotalNS()
	device := s.All.ComputeNS + s.All.ExposedNS + s.All.RematNS + s.All.FaultNS
	ms := func(ns int64) float64 { return perOp(float64(ns), s.Ops) / 1e6 }
	return map[string]float64{
		"dynn.corpus_s":                 layers.medianS("dynn.corpus"),
		"sentinel.context_s":            layers.medianS("sentinel.context"),
		"pilot.train_s":                 layers.medianS("pilot.train"),
		"pilot.infer_us_per_op":         us(float64(t.pilotNS)),
		"pilot.map_us_per_op":           us(float64(t.mappingNS)),
		"core.simulate_us_per_op":       us(float64(t.simulateNS)),
		"loop.self_us_per_op":           us(selfNS),
		"e2e.traced_us_per_op":          us(float64(t.wallNS)),
		"e2e.untraced_us_per_op":        us(untracedNS),
		"obsv.trace_overhead_frac":      overhead,
		"online.host_share":             learnerNS / float64(t.wallNS),
		"online.retrains":               float64(s.Retrains),
		"online.retrain_ms":             pr.RetrainNS / 1e6,
		"online.retrain_calls":          float64(pr.RetrainCalls),
		"online.last_window_mispredict": max(s.LastWindow, 0),
		"gpusim.reserve_ns":             pr.ReserveNS,
		"gpusim.reserve_calls":          float64(pr.ReserveCalls),
		"gpusim.reserve_refused_ns":     pr.RefusedNS,
		"gpusim.reserve_refused_calls":  float64(pr.RefusedCalls),
		"serve.batches":                 float64(s.Batches),
		"serve.mean_batch":              s.MeanBatch,
		"serve.replica_util":            s.ReplicaUtil,
		"serve.slo_attain":              s.SLOAttain,
		"core.mispredict_cache_hits":    float64(s.CacheHits),
		"serve.queue_frac":              frac(s.All.QueueNS, all),
		"serve.quota_frac":              frac(s.All.QuotaNS, all),
		"serve.batch_frac":              frac(s.All.BatchNS, all),
		"online.retrain_frac":           frac(s.All.PilotRetrainNS, all),
		"gpusim.compute_frac":           frac(s.All.ComputeNS, all),
		"gpusim.exposed_frac":           frac(s.All.ExposedNS, all),
		"gpusim.remat_frac":             frac(s.All.RematNS, all),
		"faults.fault_frac":             frac(s.All.FaultNS, all),
		"serve.tail_queue_frac":         frac(s.Tail.QueueNS, tail),
		"serve.tail_quota_frac":         frac(s.Tail.QuotaNS, tail),
		"serve.tail_batch_frac":         frac(s.Tail.BatchNS, tail),
		"online.tail_retrain_frac":      frac(s.Tail.PilotRetrainNS, tail),
		"gpusim.tail_compute_frac":      frac(s.Tail.ComputeNS, tail),
		"gpusim.tail_exposed_frac":      frac(s.Tail.ExposedNS, tail),
		"gpusim.tail_remat_frac":        frac(s.Tail.RematNS, tail),
		"faults.tail_fault_frac":        frac(s.Tail.FaultNS, tail),
		"gpusim.device_ms":              ms(device),
		"gpusim.compute_ms":             ms(s.All.ComputeNS),
		"gpusim.exposed_ms":             ms(s.All.ExposedNS),
		"gpusim.overlap_eff":            s.OverlapEff,
		"gpusim.h2d_mb":                 perOp(float64(s.H2DBytes), s.Ops) / (1 << 20),
		"gpusim.peak_gpu_mb":            float64(s.PeakBytes) / (1 << 20),
	}, nil
}
