package core

import (
	"strconv"
	"sync"
	"sync/atomic"

	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/pilot"
	"dynnoffload/internal/sentinel"
)

// This file is the resolved-plan cache — the DyCL-style generalization of
// Config.MemoizeSamples from exact sample identity to control-flow identity.
// Every sample whose dynamic path renders the same canonical signature
// (graph.PathSignature, carried on pilot.PathInfo) executes from one shared
// immutable ResolvedPlan: the per-block fetch/evict/working tables, the
// iteration aggregates, and the replayed residency peak. A plan is a pure
// function of the path, the model-context parameters, and the GPU capacity,
// so sharing one across samples, ParallelRunEpoch workers, engines, and
// sweep grid points cannot change any simulated result — it only removes the
// per-sample liveness walks and allocations from the hot path.
//
// Lookup is layered:
//
//   - L1, per engine: pointer-keyed maps (PathInfo identity; analysis ID +
//     partition digest for custom partitions) behind atomic.Pointer — reads
//     are lock-free, inserts copy-on-write under a mutex. ParallelRunEpoch
//     workers share hits without contending.
//   - L2, optional and shared (Config.Plans): the sharded PlanCache keyed by
//     PathInfo.PlanKey + GPU capacity, so ServeSweep/ClusterSweep engines
//     built per grid point amortize plan construction across the sweep.

// ResolvedPlan is one immutable compiled execution plan: the block query
// table plus the context-dependent values the simulator needs per sample.
type ResolvedPlan struct {
	// Plan is the per-block query table (read-only, shared).
	Plan *sentinel.BlockPlan
	// PipelinedPeakBytes is the fault-free double-buffer residency peak at
	// the GPU capacity the plan was built for, obtained by replaying the
	// pipelined residency schedule once against a real MemPool at plan-build
	// time. It is capacity-dependent (a full pool silently rejects adds on
	// the fault-free path), which is why plans are keyed per GPU capacity.
	PipelinedPeakBytes int64
}

// buildResolvedPlan compiles a plan for one (analysis, partition) pair at a
// GPU capacity.
func buildResolvedPlan(an *sentinel.Analysis, blocks []sentinel.Block, capacity int64) *ResolvedPlan {
	bp := sentinel.NewBlockPlan(an, blocks)
	rp := &ResolvedPlan{Plan: bp}
	if bp.PeakResidentBytes > capacity {
		rp.PipelinedPeakBytes = replayPipelinedPeak(bp, capacity)
	}
	return rp
}

// replayPipelinedPeak replays the residency schedule of simulatePipelined
// without faults — add block 0's working set, then per block retire i-1 and
// admit i+1, with over-capacity adds silently skipped — and returns the pool
// peak. simulatePipelined materializes residency only under injection, so
// this replay is where its fault-free peak comes from.
func replayPipelinedPeak(bp *sentinel.BlockPlan, capacity int64) int64 {
	pool := gpusim.AcquireMemPool(capacity)
	add := func(i int) {
		ids := bp.WorkingIDs[i]
		sizes := bp.WorkingIDBytes[i]
		for j, id := range ids {
			_ = pool.Add(id, sizes[j]) // full pool: fault-free path ignores it
		}
	}
	drop := func(i int) {
		for _, id := range bp.WorkingIDs[i] {
			pool.Remove(id)
		}
	}
	n := bp.NumBlocks()
	add(0)
	for i := 0; i < n; i++ {
		if i+1 < n {
			if i > 0 {
				drop(i - 1)
			}
			add(i + 1)
		}
	}
	peak := pool.Peak()
	gpusim.ReleaseMemPool(pool)
	return peak
}

// planShards stripes the shared cache; see cacheShards for the sizing
// rationale.
const planShards = 32

type planShard struct {
	mu sync.Mutex // serializes inserts; lookups never take it
	m  atomic.Pointer[map[string]*ResolvedPlan]
}

// PlanCache is the shared resolved-plan cache: sharded maps behind atomic
// pointers, so lookups are lock-free reads of immutable snapshots and
// inserts copy-on-write under a per-shard mutex. One PlanCache may back any
// number of engines concurrently.
type PlanCache struct {
	shards  [planShards]planShard
	hits    atomic.Int64
	misses  atomic.Int64
	inserts atomic.Int64
}

// NewPlanCache returns an empty shared plan cache.
func NewPlanCache() *PlanCache {
	c := &PlanCache{}
	empty := map[string]*ResolvedPlan{}
	for i := range c.shards {
		c.shards[i].m.Store(&empty)
	}
	return c
}

func (c *PlanCache) shardOf(key string) *planShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%planShards]
}

// Lookup returns the cached plan for a key. The read is lock-free.
func (c *PlanCache) Lookup(key string) (*ResolvedPlan, bool) {
	p, ok := (*c.shardOf(key).m.Load())[key]
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return p, ok
}

// Insert publishes a plan under a key and returns the cache's plan for that
// key — the existing entry if another goroutine published first (both built
// the same pure function of the key, so either is correct; keeping the first
// lets every caller converge on one shared pointer).
func (c *PlanCache) Insert(key string, plan *ResolvedPlan) *ResolvedPlan {
	s := c.shardOf(key)
	s.mu.Lock()
	old := *s.m.Load()
	if existing, ok := old[key]; ok {
		s.mu.Unlock()
		return existing
	}
	next := make(map[string]*ResolvedPlan, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = plan
	s.m.Store(&next)
	s.mu.Unlock()
	c.inserts.Add(1)
	return plan
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.shards {
		n += len(*c.shards[i].m.Load())
	}
	return n
}

// PlanCacheStats reports shared-cache behavior since construction.
type PlanCacheStats struct {
	Hits    int64
	Misses  int64
	Inserts int64
	Entries int
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Inserts: c.inserts.Load(),
		Entries: c.Len(),
	}
}

// partPlanKey identifies a custom partition of one analysis — the
// SimulatePartition entry point, where callers bring their own blocks
// (partition-quality heuristics, the ZeRO baseline) rather than a PathInfo.
type partPlanKey struct {
	analysis uint64
	blocks   uint64
}

// planL1 is the engine-local pointer-keyed index behind the plan L1s and the
// per-path forward-time memo: lock-free reads via atomic.Pointer snapshots,
// copy-on-write inserts under mu.
type planL1[K comparable, V any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[K]V]
}

func (l *planL1[K, V]) lookup(k K) (V, bool) {
	if m := l.m.Load(); m != nil {
		v, ok := (*m)[k]
		return v, ok
	}
	var zero V
	return zero, false
}

// insert publishes k→v, keeping an existing entry if one raced in first, and
// returns the map's value for k.
func (l *planL1[K, V]) insert(k K, v V) V {
	l.mu.Lock()
	var old map[K]V
	if p := l.m.Load(); p != nil {
		old = *p
	}
	if existing, ok := old[k]; ok {
		l.mu.Unlock()
		return existing
	}
	next := make(map[K]V, len(old)+1)
	for k2, v2 := range old {
		next[k2] = v2
	}
	next[k] = v
	l.m.Store(&next)
	l.mu.Unlock()
	return v
}

// PlanCacheKey is the shared-cache (L2) key an engine with the given GPU
// capacity files info's resolved plan under, or "" when info carries no
// PlanKey (hand-built PathInfos, which cache per engine by pointer identity
// only). PathInfo.PlanKey is already a fixed-width 128-bit digest of the
// signature and context fingerprint, so the composed key stays ~50 bytes
// regardless of model depth — every L2 probe compares a short constant-size
// string instead of walking the full path signature. Exported so benchmarks
// and tools can probe or warm a PlanCache with the exact keys engines use.
func PlanCacheKey(info *pilot.PathInfo, capacityBytes int64) string {
	if info.PlanKey == "" {
		return ""
	}
	return info.PlanKey + "\x00cap:" + strconv.FormatInt(capacityBytes, 10)
}

// planFor resolves the plan for a path: engine L1 by PathInfo identity, then
// the shared L2 by PlanKey + capacity, building and publishing on a miss.
// Safe for concurrent use; concurrent misses build duplicate (identical)
// plans and converge on the first published.
func (e *Engine) planFor(info *pilot.PathInfo) *ResolvedPlan {
	if plan, ok := e.pathPlans.lookup(info); ok {
		return plan
	}
	capacity := e.Cfg.Platform.GPU.MemBytes
	key := ""
	var plan *ResolvedPlan
	if e.Cfg.Plans != nil {
		if key = PlanCacheKey(info, capacity); key != "" {
			plan, _ = e.Cfg.Plans.Lookup(key)
		}
	}
	if plan == nil {
		plan = buildResolvedPlan(info.Analysis, info.Blocks, capacity)
		if key != "" {
			plan = e.Cfg.Plans.Insert(key, plan)
		}
	}
	return e.pathPlans.insert(info, plan)
}

// partitionPlan resolves the plan for a caller-supplied partition, keyed by
// analysis identity and partition digest. Engine-local only: custom
// partitions have no canonical signature to share under.
func (e *Engine) partitionPlan(an *sentinel.Analysis, blocks []sentinel.Block) *ResolvedPlan {
	k := partPlanKey{analysis: an.ID(), blocks: sentinel.BlocksDigest(blocks)}
	if plan, ok := e.partPlans.lookup(k); ok {
		return plan
	}
	return e.partPlans.insert(k, buildResolvedPlan(an, blocks, e.Cfg.Platform.GPU.MemBytes))
}
