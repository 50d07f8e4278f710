// Package serve is the multi-tenant serving front-end over the offload
// engine: an online request stream on the simulated clock, per-tenant
// admission control backed by the allocator's reservation/quota layer,
// an SLO-aware (earliest-deadline-first) scheduler with a starvation guard,
// and continuous batching dispatched through core.RunBatch onto one or more
// GPU replicas.
//
// One event loop serves every configuration: RunCluster drives it over a
// replica pool, and Run is RunCluster over a single replica with no elastic
// scaling. With online learning on, each batch's outcomes feed the learner
// when the batch dispatches; a retrain stall delays the next dispatch while
// the in-flight batch keeps computing.
//
// Everything runs on simulated nanoseconds and seeded randomness, so the
// serving layer inherits the runtime's determinism contract: identical
// (seed, config) inputs replay bit-identical admission and scheduling
// decisions — and therefore bit-identical per-tenant latency aggregates —
// at any worker count, fault-free or faulted. The event loop itself is
// serial (its cost is bookkeeping); the per-batch sample work fans out
// through the engine's three-phase pipeline.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dynnoffload/internal/core"
	"dynnoffload/internal/mathx"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/online"
	"dynnoffload/internal/pilot"
)

// Defaults applied when the corresponding config field is zero.
const (
	// DefaultMaxBatch bounds how many requests fuse into one dispatch.
	DefaultMaxBatch = 8
	// DefaultMaxQueue bounds a tenant's admitted-but-unserved requests;
	// beyond it, new arrivals are shed (backpressure).
	DefaultMaxQueue = 64
)

// ErrNoTenants means the config offered no load to serve.
var ErrNoTenants = errors.New("serve: no tenants configured")

// TenantConfig describes one tenant's offered load and its service terms.
type TenantConfig struct {
	Name string
	// Requests is how many requests the tenant offers in total.
	Requests int
	// RatePerSec is the tenant's mean arrival rate (open-loop Poisson
	// process: exponential inter-arrival times on the simulated clock).
	RatePerSec float64
	// Seed drives the tenant's arrival process and request sampling.
	Seed uint64
	// QuotaBytes caps the tenant's reserved GPU memory; 0 leaves the tenant
	// bounded only by device capacity.
	QuotaBytes int64
	// SLONS is the end-to-end latency objective; a completed request whose
	// latency exceeds it counts as a violation. 0 disables the deadline (the
	// tenant schedules behind every deadline-bearing request).
	SLONS int64
	// MaxQueue bounds the tenant's admitted-but-unserved queue; 0 means
	// DefaultMaxQueue.
	MaxQueue int
}

// Config configures one serving run.
type Config struct {
	Tenants []TenantConfig
	// MaxBatch bounds the continuous-batch size; 0 means DefaultMaxBatch.
	MaxBatch int
	// StarvationAgeNS is the queue age past which a request preempts EDF
	// order (served oldest-first instead), so zero-SLO or long-deadline
	// tenants cannot starve under sustained load. 0 derives 4x the largest
	// tenant SLO; negative disables the guard.
	StarvationAgeNS int64
	// Workers is the engine fan-out per dispatched batch; <= 0 means
	// GOMAXPROCS. Results are identical at any value.
	Workers int
	// Tracer, when non-nil, collects per-request span traces (queue wait on
	// the host lane, then the engine's compute/transfer spans) indexed by
	// dispatch order.
	Tracer *obsv.Tracer
	// Registry, when non-nil, exposes the run's recorders (one global, one
	// per tenant) on the live /metrics endpoint.
	Registry *obsv.Registry
	// Flight sizes the per-replica flight recorder (bounded ring of recent
	// lifecycle events, snapshotted on SLO breach, fault-ladder degradation,
	// or engine capacity exhaustion). The zero value disables it.
	Flight obsv.FlightConfig
	// Online closes the serve→pilot feedback loop: completed requests feed a
	// bounded replay memory and the pilot retrains in-loop on seeded
	// minibatches (per-tenant adapters optional). The zero value disables it,
	// reproducing the learning-free serving behavior byte-for-byte.
	Online online.Config
}

// Backend is what the serving layer runs requests against.
type Backend struct {
	Engine *core.Engine
	// Pool is the request population; each arrival draws one example from it
	// (with replacement) under the tenant's seed.
	Pool []*pilot.Example
	// GPUMemBytes sizes the reservation ledger; 0 takes the engine
	// platform's device memory.
	GPUMemBytes int64
}

// request is one admitted unit of work.
type request struct {
	tenant     int // index into Config.Tenants
	seq        int // per-tenant arrival sequence
	id         int64
	arrivalNS  int64
	deadlineNS int64 // math.MaxInt64 when the tenant has no SLO
	ex         *pilot.Example
	needBytes  int64
	// lane and slot place the request in the dispatch queue's index.
	lane, slot int
	// Quota-wait tracking for SLO attribution: quotaSinceNS is the simulated
	// time of the first refused reservation of the current blocked stretch
	// (0 when not blocked); quotaNS accumulates the blocked time at dispatch.
	quotaSinceNS int64
	quotaNS      int64
	// retrainMarkNS is the loop's cumulative online-learning retrain stall
	// at admission; the stall the request sat queued behind — its
	// pilot_retrain SLO component — is the cumulative stall at dispatch
	// minus this mark.
	retrainMarkNS int64
}

// TenantReport is one tenant's serving summary.
type TenantReport struct {
	Name  string
	Stats obsv.ServeStats
}

// Report summarizes one serving run.
type Report struct {
	// Total aggregates every tenant; its latency quantiles are computed over
	// the combined completion set.
	Total   obsv.ServeStats
	Tenants []TenantReport
	// MeanBatchSize is completed requests per dispatch.
	MeanBatchSize float64
	// MakespanNS is the completion time of the last batch.
	MakespanNS int64
	// DeviceHighWater is the reservation ledger's peak across the run.
	DeviceHighWater int64
	// Flights holds the flight-recorder snapshots, in replica order: any
	// triggered captures followed by each replica's unconditional end-of-run
	// snapshot. Empty when Config.Flight leaves recording disabled.
	Flights []obsv.FlightSnapshot
}

// Run plays cfg's request streams against the backend's one device and
// returns the serving report: a one-replica, no-scaling RunCluster.
func Run(b *Backend, cfg Config) (*Report, error) {
	if b == nil {
		b = &Backend{}
	}
	rep, err := RunCluster(&ClusterBackend{Engines: []*core.Engine{b.Engine}, Pool: b.Pool, GPUMemBytes: b.GPUMemBytes}, ClusterConfig{Config: cfg})
	if err != nil {
		return nil, err
	}
	return &rep.Report, nil
}

// Phase names observed on the serving recorders (simulated nanoseconds, not
// host time — unlike the engine's pilot/mapping/simulate phases).
const (
	PhaseQueue   = "queue"
	PhaseService = "service"
	PhaseE2E     = "e2e"
)

// dispatchScratch holds the per-dispatch buffers a serving loop reuses
// across batches: RunBatch and SimulateDynamicBatch never retain their
// argument slices, and a run replays thousands of dispatches.
type dispatchScratch struct {
	exs    []*pilot.Example
	pilots []*pilot.Pilot
	infos  []*pilot.PathInfo
}

// examples returns the batch's examples, in batch order.
func (d *dispatchScratch) examples(batch []*request) []*pilot.Example {
	d.exs = d.exs[:0]
	for _, r := range batch {
		d.exs = append(d.exs, r.ex)
	}
	return d.exs
}

// pilotsFor returns the batch's per-request pilot overrides (tenant adapter
// or refined shared pilot) for RunBatch; empty without a learner.
func (d *dispatchScratch) pilotsFor(batch []*request, learner *online.Learner) []*pilot.Pilot {
	d.pilots = d.pilots[:0]
	if learner != nil {
		for _, r := range batch {
			d.pilots = append(d.pilots, learner.PilotFor(r.tenant))
		}
	}
	return d.pilots
}

// serviceTime models the continuous batch's occupancy of the device: the
// requests' independent simulated times, compressed by what depth-wise
// kernel fusion saves across the batch (SimulateDynamicBatch's sequential
// minus batched launch time), floored by the slowest member — fusing can
// never beat the longest critical path — and by 1ns.
//
// Only simulated time counts: Breakdown.OverheadNS is host wall time (pilot
// inference and output mapping), so including it would leak scheduling noise
// into the virtual clock and break the replay contract.
func (d *dispatchScratch) serviceTime(eng *core.Engine, batch []*request, results []core.SampleResult) int64 {
	var sum, slowest int64
	d.infos = d.infos[:0]
	for i, r := range batch {
		t := results[i].Breakdown.TotalNS() - results[i].Breakdown.OverheadNS
		sum += t
		if t > slowest {
			slowest = t
		}
		if info := r.ex.Ctx.PathByKey(r.ex.TruthKey); info != nil {
			d.infos = append(d.infos, info)
		}
	}
	service := sum
	if len(d.infos) > 1 {
		rep := eng.SimulateDynamicBatch(d.infos)
		service -= rep.SequentialNS - rep.BatchedNS
	}
	if service < slowest {
		service = slowest
	}
	if service < 1 {
		service = 1
	}
	return service
}

// generate pre-computes every tenant's seeded arrival stream and merges them
// into one globally ordered sequence. Each tenant forks two independent RNG
// streams off its seed: one for exponential inter-arrival gaps, one for
// drawing requests from the pool.
func generate(cfg Config, pool []*pilot.Example, gpuMem int64) ([]*request, error) {
	need := make([]int64, len(pool))
	for i, ex := range pool {
		info := ex.Ctx.PathByKey(ex.TruthKey)
		if info == nil {
			return nil, fmt.Errorf("serve: pool example %d has no truth path", i)
		}
		need[i] = info.Analysis.PeakResidentBytes()
		// The engine migrates, so a request never needs more than half the
		// device resident at once to make progress.
		if half := gpuMem / 2; need[i] > half {
			need[i] = half
		}
	}

	var all []*request
	var id int64
	for t, tc := range cfg.Tenants {
		if tc.Requests <= 0 {
			continue
		}
		if tc.RatePerSec <= 0 {
			return nil, fmt.Errorf("serve: tenant %q needs a positive rate", tc.Name)
		}
		gaps := mathx.NewRNG(tc.Seed).Fork(1)
		picks := mathx.NewRNG(tc.Seed).Fork(2)
		var clock int64
		for seq := 0; seq < tc.Requests; seq++ {
			u := gaps.Float64()
			gapNS := int64(-math.Log(1-u) / tc.RatePerSec * 1e9)
			if gapNS < 1 {
				gapNS = 1
			}
			clock += gapNS
			pick := picks.Intn(len(pool))
			id++
			r := &request{
				tenant: t, seq: seq, id: id, arrivalNS: clock,
				deadlineNS: math.MaxInt64,
				ex:         pool[pick], needBytes: need[pick],
			}
			if tc.SLONS > 0 {
				r.deadlineNS = clock + tc.SLONS
			}
			all = append(all, r)
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.arrivalNS != b.arrivalNS {
			return a.arrivalNS < b.arrivalNS
		}
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		return a.seq < b.seq
	})
	return all, nil
}
