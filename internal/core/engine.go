// Package core is the DyNN-Offload runtime (§IV-E, §V): pilot-guided tensor
// prefetch over double-buffered GPU memory, an operator counter for CPU/GPU
// synchronization, evict-then-prefetch migration ordering, on-demand fallback
// on mis-prediction, and the mis-prediction cache that avoids repeated
// mis-predictions (§VI-H).
package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"dynnoffload/internal/faults"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// Typed sentinel errors so callers can errors.Is instead of matching message
// strings.
var (
	// ErrPilotNotTrained is returned when the runtime is asked to execute a
	// sample without a trained pilot model. It wraps pilot.ErrNotTrained so
	// errors.Is matches against either sentinel.
	ErrPilotNotTrained = fmt.Errorf("core: pilot not trained: %w", pilot.ErrNotTrained)
	// ErrUnknownPath is returned when a sample's path key does not resolve
	// in its model context.
	ErrUnknownPath = errors.New("core: unknown resolution path")
	// ErrCapacityExceeded is returned when a path cannot run under the
	// platform's CPU+GPU memory or the double-buffer work budget.
	ErrCapacityExceeded = errors.New("core: capacity exceeded")
)

// Config tunes the runtime.
type Config struct {
	Platform gpusim.Platform
	// HandleMispredictions enables the §IV-E mis-prediction cache: identical
	// pilot outputs that previously mis-predicted reuse the corrected blocks.
	HandleMispredictions bool
	// ExactOutputKeys additionally keys the mis-prediction cache on the
	// quantized pilot output (the paper's literal "if the two outputs are
	// exactly the same"). Off by default: the matched-path key alone is the
	// noise-robust variant evaluated in §VI-H.
	ExactOutputKeys bool
	// FaultLatencyNS is charged per execution block when a sample falls back
	// to on-demand fetching (the tensor-fault handler round trip).
	FaultLatencyNS int64
	// Faults, when non-nil and enabled, injects deterministic transfer and
	// allocation faults into the simulated device; the engine recovers via
	// the Retry policy and the degradation ladder. Nil means fault-free.
	Faults *faults.Injector
	// Retry bounds the recovery ladder's re-issue loop. Zero fields take the
	// defaults in NewEngine.
	Retry RetryPolicy
	// ForceOnDemand routes every sample through the on-demand path,
	// regardless of prediction outcome — the FaultSweep baseline.
	ForceOnDemand bool
	// MemoizeSamples remembers the resolved path of every mis-predicted
	// sample by its sample ID, so a re-submitted identical request prefetches
	// the recorded path instead of repeating the mis-prediction — the online
	// analog of the §IV-E cache for serving, where the same request recurs
	// (the cache's output keys cannot help there when the pilot is
	// confidently wrong: an exact-but-wrong match never engages it). Off by
	// default: training epochs measure pilot quality, and a sample memo would
	// hide every mis-prediction after the first epoch.
	MemoizeSamples bool
	// Plans, when non-nil, is a shared resolved-plan cache (L2): engines
	// built for different sweep grid points reuse each other's compiled
	// plans when path signature, context fingerprint, and GPU capacity
	// match. Each engine always keeps its own pointer-keyed L1 regardless.
	Plans *PlanCache
}

// RetryPolicy bounds retry-with-exponential-backoff: a faulted operation is
// re-issued at most MaxAttempts times in total, waiting BackoffNS of
// simulated time before the first retry and doubling each subsequent one.
// After the budget is exhausted the ladder degrades instead of failing:
// transfers fall back to a fault-blind blocking copy, allocations to
// evict-and-retry — ErrCapacityExceeded surfaces only when eviction cannot
// free enough space.
type RetryPolicy struct {
	MaxAttempts int
	BackoffNS   int64
}

// Default retry policy applied by NewEngine for zero fields.
const (
	DefaultRetryAttempts  = 4
	DefaultRetryBackoffNS = 2_000
)

// DefaultConfig returns the runtime defaults for a platform.
func DefaultConfig(p gpusim.Platform) Config {
	return Config{
		Platform:             p,
		HandleMispredictions: true,
		FaultLatencyNS:       25_000,
		Retry:                RetryPolicy{MaxAttempts: DefaultRetryAttempts, BackoffNS: DefaultRetryBackoffNS},
	}
}

// Engine simulates DyNN training under DyNN-Offload. The cost model and the
// trained pilot are read-only at run time, and the mis-prediction cache is
// sharded, so one Engine may execute many samples concurrently (RunSample
// from several goroutines, or ParallelRunEpoch).
type Engine struct {
	Cfg   Config
	CM    gpusim.CostModel
	Pilot *pilot.Pilot

	// mis-prediction cache: cache key -> corrected path key.
	cache *shardedCache
	// sample memo (Config.MemoizeSamples): sample ID -> resolved path key of
	// a previously executed mis-predicted request.
	memo *shardedCache
	// resolved-plan L1s (see plan.go): paths by PathInfo identity, custom
	// partitions by (analysis ID, partition digest).
	pathPlans planL1[*pilot.PathInfo, *ResolvedPlan]
	partPlans planL1[partPlanKey, *ResolvedPlan]
	// fwdNS memoizes each path's sequential forward time under CM, the
	// per-path half of SimulateDynamicBatch (batching.go).
	fwdNS planL1[*pilot.PathInfo, int64]
}

// NewEngine builds a runtime around a trained pilot.
func NewEngine(cfg Config, p *pilot.Pilot) *Engine {
	if cfg.Retry.MaxAttempts <= 0 {
		cfg.Retry.MaxAttempts = DefaultRetryAttempts
	}
	if cfg.Retry.BackoffNS <= 0 {
		cfg.Retry.BackoffNS = DefaultRetryBackoffNS
	}
	return &Engine{
		Cfg: cfg, CM: gpusim.NewCostModel(cfg.Platform), Pilot: p,
		cache: newShardedCache(), memo: newShardedCache(),
	}
}

// SampleResult reports one simulated training iteration of one sample.
type SampleResult struct {
	Breakdown    gpusim.Breakdown
	Mispredicted bool
	CacheHit     bool
	PilotNS      int64
	MappingNS    int64
	// FaultCounters tallies injected faults and recovery work for this
	// sample (zero when injection is disabled).
	FaultCounters faults.Counters
}

// EpochReport aggregates sample results.
type EpochReport struct {
	Breakdown      gpusim.Breakdown
	Samples        int
	Mispredictions int
	CacheHits      int
	PilotNS        int64
	MappingNS      int64
	FaultCounters  faults.Counters
}

// Add folds one sample result into the report. All fields are commutative
// sums (Breakdown.Add takes a max only for the peak), so folding in any
// order yields the same report — what makes parallel aggregation exact.
func (rep *EpochReport) Add(r SampleResult) {
	rep.Breakdown = rep.Breakdown.Add(r.Breakdown)
	rep.Samples++
	if r.Mispredicted {
		rep.Mispredictions++
	}
	if r.CacheHit {
		rep.CacheHits++
	}
	rep.PilotNS += r.PilotNS
	rep.MappingNS += r.MappingNS
	rep.FaultCounters = rep.FaultCounters.Add(r.FaultCounters)
}

// outputKey quantizes a pilot output vector to the nearest integer per
// dimension; near-identical outputs collide. math.Round (not int64(v+0.5),
// which truncates negatives toward zero) keeps negative outputs on their own
// keys: -0.7 rounds to -1, not to the same bucket as +0.3.
func outputKey(out []float64) string {
	var sb strings.Builder
	for _, v := range out {
		sb.WriteString(strconv.FormatInt(int64(math.Round(v)), 10))
		sb.WriteByte(',')
	}
	return sb.String()
}

// decision is the cache-dependent part of one sample's execution: which path
// the runtime prefetches for, and whether that was a mis-prediction. It is
// computed serially in sample order so cache evolution — and therefore every
// epoch aggregate — is identical at any worker count.
type decision struct {
	truth        *pilot.PathInfo
	mispredicted bool
	cacheHit     bool
}

// decide consults and updates the mis-prediction cache for one resolved
// sample and validates capacity. It is the only stage of a sample's
// execution whose outcome depends on the samples before it.
func (e *Engine) decide(ex *pilot.Example, resolution *pilot.Resolution) (decision, error) {
	var d decision
	predKey := ""
	if resolution.Path != nil {
		predKey = resolution.Path.Key
	}
	// The §IV-E mis-prediction cache: when a pilot output does not match any
	// path's bookkeeping record exactly (the suspicious case) and an output
	// like it previously mis-predicted, reuse the recorded correct blocks.
	// Keying on the (matched path, inexact) pair is the noise-robust analog
	// of the paper's "if the two outputs are exactly the same"; Config.
	// ExactOutputKeys appends the quantized output for the literal variant.
	cacheKey := ""
	if e.Cfg.HandleMispredictions && !resolution.Exact && predKey != "" {
		cacheKey = predKey
		if e.Cfg.ExactOutputKeys {
			cacheKey = predKey + "|" + outputKey(resolution.Output)
		}
		if corrected, ok := e.cache.Lookup(cacheKey); ok {
			predKey = corrected
			d.cacheHit = true
		}
	}
	// The sample memo (serving): a request seen before reuses its recorded
	// resolution, overriding the pilot even on an exact-but-wrong match.
	memoKey := ""
	if e.Cfg.MemoizeSamples && ex.Sample != nil {
		memoKey = strconv.Itoa(ex.Sample.ID)
		if resolved, ok := e.memo.Lookup(memoKey); ok {
			predKey = resolved
			d.cacheHit = true
		}
	}

	d.truth = ex.Ctx.PathByKey(ex.TruthKey)
	if d.truth == nil {
		return d, fmt.Errorf("core: truth path %q: %w", ex.TruthKey, ErrUnknownPath)
	}
	if err := e.checkCapacity(d.truth); err != nil {
		return d, err
	}

	d.mispredicted = predKey != ex.TruthKey
	if d.mispredicted {
		if cacheKey != "" {
			// Record the corrected resolution for future identical outputs
			// and for the next offline pilot-training round.
			e.cache.Insert(cacheKey, ex.TruthKey)
		}
		if memoKey != "" {
			e.memo.Insert(memoKey, ex.TruthKey)
		}
	}
	return d, nil
}

// faultStream derives the sample's fault stream. The scope is the sample ID,
// not its epoch position, so a sample draws the same fault schedule on every
// run at any worker count — the determinism the acceptance bar requires.
// Returns nil (no injection) when faults are disabled.
func (e *Engine) faultStream(ex *pilot.Example) *faults.Stream {
	if !e.Cfg.Faults.Enabled() {
		return nil
	}
	var scope uint64
	if ex.Sample != nil {
		scope = uint64(ex.Sample.ID)
	}
	return e.Cfg.Faults.Stream(scope)
}

// simulate executes the decided sample: double-buffered prefetch on a correct
// prediction, on-demand fallback on a mis-prediction. Read-only on the
// engine; safe to run concurrently (each call gets its own fault stream and
// trace collector). The error is non-nil only when the degradation ladder is
// genuinely stuck (ErrCapacityExceeded) — never in fault-free runs.
func (e *Engine) simulate(d decision, fs *faults.Stream, st *obsv.SampleTrace) (gpusim.Breakdown, error) {
	plan := e.planFor(d.truth)
	if d.mispredicted || e.Cfg.ForceOnDemand {
		return e.simulateOnDemand(plan, fs, st), nil
	}
	return e.simulatePipelined(plan, fs, st)
}

// RunSample simulates one training iteration: pilot inference, output→path
// mapping, mis-prediction check, and double-buffered (or on-demand) execution
// of the sample's ground-truth iteration. Safe for concurrent use; note that
// under concurrency the cache interleaving (and so individual CacheHit flags)
// depends on scheduling — use ParallelRunEpoch for deterministic epoch
// aggregates.
func (e *Engine) RunSample(ex *pilot.Example) (SampleResult, error) {
	return e.RunSampleTraced(ex, nil)
}

// RunSampleTraced is RunSample with span tracing: the sample's pilot
// prediction, block prefetches, compute intervals, evictions, on-demand
// fetches, and fault retries are recorded into st on the simulated clock.
// A nil st disables tracing (all trace methods are nil-safe no-ops), so
// RunSample pays nothing for the instrumentation.
func (e *Engine) RunSampleTraced(ex *pilot.Example, st *obsv.SampleTrace) (SampleResult, error) {
	var res SampleResult
	if e.Pilot == nil {
		return res, ErrPilotNotTrained
	}

	resolution, err := e.Pilot.Resolve(ex)
	if err != nil {
		if errors.Is(err, pilot.ErrNotTrained) {
			return res, ErrPilotNotTrained
		}
		return res, fmt.Errorf("core: resolve: %w", err)
	}
	res.PilotNS = resolution.InferNS
	res.MappingNS = resolution.MapNS
	// Pilot inference and mapping run on the host in wall time, outside the
	// DES clocks — they trace as simulated-time instants (see SpanPilot).
	st.Instant(obsv.SpanPilot, res.PilotNS)
	st.Instant(obsv.SpanMapping, res.MappingNS)

	d, err := e.decide(ex, &resolution)
	if err != nil {
		return res, err
	}
	res.Mispredicted = d.mispredicted
	res.CacheHit = d.cacheHit
	st.Outcome(d.mispredicted, d.cacheHit)
	fs := e.faultStream(ex)
	res.Breakdown, err = e.simulate(d, fs, st)
	if err != nil {
		return res, err
	}
	res.FaultCounters = fs.Counters()
	res.Breakdown.OverheadNS += res.PilotNS + res.MappingNS
	return res, nil
}

// checkCapacity enforces the offloading feasibility bound: all tensors must
// fit in CPU+GPU memory, and the largest single-operator working set must fit
// in the work buffer.
func (e *Engine) checkCapacity(info *pilot.PathInfo) error {
	total := info.Analysis.TotalBytes()
	avail := e.Cfg.Platform.CPUMemBytes + e.Cfg.Platform.GPU.MemBytes
	if total > avail {
		return fmt.Errorf("core: model needs %d bytes, CPU+GPU have %d: %w", total, avail, ErrCapacityExceeded)
	}
	if maxOp := info.Analysis.MaxSingleOpBytes(); maxOp > e.workBufferBytes() {
		return fmt.Errorf("core: op working set %d exceeds work buffer %d: %w", maxOp, e.workBufferBytes(), ErrCapacityExceeded)
	}
	return nil
}

// workBufferBytes is half of GPU memory: the double-buffer split (§IV-E,
// "GPU memory is partitioned into two equal-sized buffers").
func (e *Engine) workBufferBytes() int64 { return e.Cfg.Platform.GPU.MemBytes / 2 }

// RunEpoch simulates one epoch (one iteration per example) serially and
// aggregates. ParallelRunEpoch produces the same report on any worker count.
func (e *Engine) RunEpoch(examples []*pilot.Example) (EpochReport, error) {
	var rep EpochReport
	for _, ex := range examples {
		r, err := e.RunSample(ex)
		if err != nil {
			return rep, err
		}
		rep.Add(r)
	}
	return rep, nil
}

// ResetCache clears the mis-prediction cache (between experiments).
func (e *Engine) ResetCache() { e.cache.Reset() }

// CacheSize returns the number of recorded mis-prediction outputs.
func (e *Engine) CacheSize() int { return e.cache.Len() }

// CacheStats reports mis-prediction cache hit/miss/insert counters since the
// last ResetCache.
func (e *Engine) CacheStats() CacheStats { return e.cache.Stats() }
