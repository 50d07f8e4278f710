package main

import (
	"fmt"
	"time"

	d "dynnoffload"
)

// tenantSeed derives tenant t's arrival seed from the workload seed.
func tenantSeed(seed uint64, t int) uint64 { return seed*1_000_003 + uint64(t+1)*7919 }

// serveSpec is one serve workload: two tenants with the same terms, served
// through System.Serve (gpus 0) or Cluster.Serve.
type serveSpec struct {
	model    string
	platform func() d.Platform
	gpus     int
	online   bool
	rate     float64 // per tenant, requests per simulated second
	slo      time.Duration
	quota    bool // each tenant may reserve half the device
}

// serveTarget serves through System.Serve or Cluster.Serve.
type serveTarget struct {
	spec    serveSpec
	seed    uint64
	sys     *d.System
	cluster *d.Cluster
	pool    []*d.Sample
	cfg     d.ServeConfig
}

func (spec serveSpec) setup(seed uint64, sc scale, layers *spans) (target, error) {
	train, pool := corpus(seed, sc, layers)
	m, err := d.ZooModel(spec.model, modelBatch, modelSeed)
	if err != nil {
		return nil, err
	}
	t := &serveTarget{spec: spec, seed: seed, pool: pool}
	err = layers.time("sentinel.context", func() (err error) {
		if spec.gpus == 0 {
			t.sys, err = d.NewSystem(m, systemOptions(spec.platform())...)
			return err
		}
		opts := []d.ClusterOption{d.WithGPUs(spec.gpus), d.WithSystemOptions(systemOptions(spec.platform())...)}
		if spec.online {
			opts = append(opts, d.WithOnlineLearning(onlineConfig(seed)))
		}
		if t.cluster, err = d.NewCluster(m, opts...); err == nil {
			t.sys = t.cluster.System()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := layers.time("pilot.train", func() error {
		_, err := t.sys.TrainPilot(train)
		return err
	}); err != nil {
		return nil, err
	}
	var quota int64
	if spec.quota {
		quota = t.sys.Platform().GPU.MemBytes / 2
	}
	for i, name := range []string{"alpha", "beta"} {
		t.cfg.Tenants = append(t.cfg.Tenants, d.ServeTenant{
			Name: name, Requests: sc.Requests, RatePerSec: spec.rate, Seed: tenantSeed(seed, i),
			QuotaBytes: quota, SLONS: int64(spec.slo), MaxQueue: sc.Requests,
		})
	}
	t.cfg.Workers = engineCount
	return t, nil
}

// onlineConfig is the cluster's learner: per-tenant adapters at the default
// interval, ring sizes and learning rate.
func onlineConfig(seed uint64) d.OnlineConfig {
	return d.OnlineConfig{PerTenant: true, Seed: seed + 1}
}

// call serves the tenants once. The serve loop records engine host phases on
// every call, so the registry (which only holds pointers to the recorders)
// is attached whether traced or not and the traced call is the same call.
func (t *serveTarget) call(bool) (outcome, error) {
	cfg := t.cfg
	reg := d.NewMetricsRegistry()
	cfg.Registry = reg
	var rep *d.ServeReport
	o, err := timeCall(func() error {
		var err error
		if t.cluster != nil {
			var crep *d.ClusterReport
			crep, err = t.cluster.Serve(t.pool, d.ClusterConfig{Config: cfg})
			if crep != nil {
				rep = &crep.Report
			}
		} else {
			rep, err = t.sys.Serve(t.pool, cfg)
		}
		return err
	})
	for _, tc := range cfg.Tenants {
		o.attempted += int64(tc.Requests)
	}
	if err != nil {
		o.failed = o.attempted
		return o, err
	}
	prom := scrape(reg)
	o.ops = rep.Total.Completed
	o.failed = rep.Total.Shed + rep.Total.QuotaShed
	o.pilotNS = prom.phaseNS("pilot")
	o.mappingNS = prom.phaseNS("mapping")
	o.simulateNS = prom.phaseNS("simulate")
	o.sim = serveSim(rep, prom, max(t.spec.gpus, 1))
	o.checks = serveChecks(rep, o.attempted)
	return o, nil
}

func serveSim(rep *d.ServeReport, prom promSnapshot, replicas int) simStats {
	tot := rep.Total
	s := simStats{
		Ops: tot.Completed, P50NS: tot.P50NS, P99NS: tot.P99NS,
		Samples:     int64(prom.sample(`dynn_samples_total{run="serve"}`)),
		Mispredicts: int64(prom.sample(`dynn_mispredicts_total{run="serve"}`)),
		CacheHits:   int64(prom.sample(`dynn_cache_hits_total{run="serve"}`)),
		Batches:     tot.Batches, MeanBatch: rep.MeanBatchSize,
		PeakBytes: rep.DeviceHighWater,
	}
	if rep.MakespanNS > 0 {
		s.OpsPerSimS = float64(tot.Completed) / (float64(rep.MakespanNS) / 1e9)
		serviceNS := prom.phaseNS("service")
		s.ReplicaUtil = float64(serviceNS) / (float64(rep.MakespanNS) * float64(replicas))
	}
	if tot.Arrivals > 0 {
		s.SLOAttain = float64(tot.Completed-tot.SLOViolations) / float64(tot.Arrivals)
	}
	if a := tot.Attribution; a != nil {
		s.All, s.Tail, s.TailCount = a.All, a.Tail, a.TailCount
	}
	if on := tot.Online; on != nil {
		s.Retrains = on.Retrains
		s.LastWindow = on.LastWindowRate()
	}
	return s
}

// serveChecks audits a serve report's conservation and attribution laws.
func serveChecks(rep *d.ServeReport, offered int64) []string {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	tot := rep.Total
	check(tot.Arrivals == offered, "arrivals %d != offered %d", tot.Arrivals, offered)
	check(tot.Arrivals == tot.Completed+tot.Shed+tot.QuotaShed,
		"conservation: arrivals %d != completed %d + shed %d + quota-shed %d",
		tot.Arrivals, tot.Completed, tot.Shed, tot.QuotaShed)
	var sum d.ServeStats
	for _, tr := range rep.Tenants {
		st := tr.Stats
		check(st.Arrivals == st.Completed+st.Shed+st.QuotaShed,
			"conservation (%s): arrivals %d != completed %d + shed %d + quota-shed %d",
			tr.Name, st.Arrivals, st.Completed, st.Shed, st.QuotaShed)
		sum.Arrivals += st.Arrivals
		sum.Completed += st.Completed
	}
	check(sum.Arrivals == tot.Arrivals && sum.Completed == tot.Completed,
		"tenant sums (%d arrivals, %d completed) != total (%d, %d)",
		sum.Arrivals, sum.Completed, tot.Arrivals, tot.Completed)
	check(tot.Attribution != nil, "report carries no latency attribution")
	if tot.Attribution != nil && tot.Completed > 0 {
		mean := tot.Attribution.All.TotalNS() / tot.Completed
		check(mean == tot.MeanNS, "attribution: All.TotalNS()/Completed = %d != MeanNS %d", mean, tot.MeanNS)
	}
	return bad
}

func (t *serveTarget) probes() (probeResult, error) {
	exs, err := t.sys.Examples(t.pool)
	if err != nil {
		return probeResult{}, err
	}
	var pr probeResult
	gpuMem := t.sys.Platform().GPU.MemBytes
	pr.ReserveCalls, pr.ReserveNS, pr.RefusedCalls, pr.RefusedNS = probeReserve(exs, t.cfg.Tenants, gpuMem)
	on := d.OnlineConfig{}
	if t.spec.online {
		on = onlineConfig(t.seed)
	}
	pr.RetrainCalls, pr.RetrainNS, err = probeRetrain(exs, on, len(t.cfg.Tenants))
	return pr, err
}
