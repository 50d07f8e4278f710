package sentinel

import "sync/atomic"

// This file precomputes the per-block quantities the runtime's DES inner loop
// queries while simulating one training iteration. Asking the Analysis for
// fetch/evict/working sets costs a liveness walk (with map-backed dedup) per
// block; a BlockPlan pays that walk once per (analysis, partition) and serves
// every subsequent sample from immutable arrays. A plan is a pure function of
// its inputs, so sharing one across samples, engines, and sweep grid points
// cannot change results.

// BlockPlan is the immutable per-block query table of one partition of one
// analyzed iteration. All slices are indexed by block position and must be
// treated as read-only by consumers — plans are shared across goroutines
// without locks.
type BlockPlan struct {
	Blocks []Block

	// ComputeNS[i] is the summed compute time of block i.
	ComputeNS []int64
	// FetchBytes[i] is the prefetch volume of block i given its predecessor
	// (block i-1; for block 0 the zero Block, matching both the pipelined
	// initial fetch and the on-demand walk, which use the same convention).
	FetchBytes []int64
	// PipeEvictBytes[i] is the write-back volume of retiring block i-1 when
	// block i starts under the pipelined schedule, where the liveness horizon
	// is the *next* prefetched block (blocks[i+1].Start). Valid for
	// 1 <= i <= len(Blocks)-2; other entries are zero.
	PipeEvictBytes []int64
	// OnDemandEvictBytes[i] is the write-back volume of retiring block i-1
	// under the on-demand schedule, where the horizon is block i itself
	// (blocks[i].Start). Valid for 1 <= i <= len(Blocks)-1.
	OnDemandEvictBytes []int64
	// WorkingIDs[i] lists the distinct tensors block i touches, in first-
	// reference order; WorkingIDBytes[i] carries their sizes positionally.
	WorkingIDs     [][]int64
	WorkingIDBytes [][]int64
	// WorkingBytes[i] is the summed distinct tensor volume of block i.
	WorkingBytes []int64

	// Iteration-level aggregates, hoisted so per-sample paths stop re-walking
	// the trace: total compute and the liveness peak.
	TotalComputeNS    int64
	PeakResidentBytes int64
}

// NewBlockPlan walks the analysis once and materializes the block query
// table for a partition.
func NewBlockPlan(a *Analysis, blocks []Block) *BlockPlan {
	n := len(blocks)
	p := &BlockPlan{
		Blocks:             append([]Block(nil), blocks...),
		ComputeNS:          make([]int64, n),
		FetchBytes:         make([]int64, n),
		PipeEvictBytes:     make([]int64, n),
		OnDemandEvictBytes: make([]int64, n),
		WorkingIDs:         make([][]int64, n),
		WorkingIDBytes:     make([][]int64, n),
		WorkingBytes:       make([]int64, n),
		TotalComputeNS:     a.TotalComputeNS(),
		PeakResidentBytes:  a.PeakResidentBytes(),
	}
	prev := Block{}
	for i, b := range blocks {
		p.ComputeNS[i] = a.ComputeNS(b)
		p.FetchBytes[i] = a.FetchBytes(b, prev)
		ids := a.WorkingIDs(b)
		sizes := make([]int64, len(ids))
		var total int64
		for j, id := range ids {
			sizes[j] = a.BytesOf(id)
			total += sizes[j]
		}
		p.WorkingIDs[i] = ids
		p.WorkingIDBytes[i] = sizes
		p.WorkingBytes[i] = total
		if i >= 1 {
			if i+1 < n {
				p.PipeEvictBytes[i] = a.EvictBytes(blocks[i-1], blocks[i+1].Start)
			}
			p.OnDemandEvictBytes[i] = a.EvictBytes(blocks[i-1], b.Start)
		}
		prev = b
	}
	return p
}

// NumBlocks returns the partition length.
func (p *BlockPlan) NumBlocks() int { return len(p.Blocks) }

// BlocksDigest fingerprints a partition's boundaries (FNV-1a over the
// start/end pairs) so plan caches can key custom partitions of one analysis
// — e.g. the partition-quality study's heuristic splits — without hashing
// the whole trace.
func BlocksDigest(blocks []Block) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(len(blocks)))
	for _, b := range blocks {
		mix(uint64(b.Start))
		mix(uint64(b.End))
	}
	return h
}

// analysisIDs hands every Analysis a process-unique identity, used only as a
// cache-key component (never in simulated results, so run-to-run variation
// of the numbering cannot perturb any output).
var analysisIDs atomic.Uint64

// ID returns the analysis's process-unique identity.
func (a *Analysis) ID() uint64 { return a.id }
