// Package sentinel implements the offline dataflow-graph partitioner the
// paper adopts from Sentinel [57] (§IV-D "Labeling"): given an execution
// trace, GPU memory capacity, and the interconnect cost model, it partitions
// the training iteration into execution blocks that maximize the overlap
// between tensor migration and computation without exceeding the
// double-buffer budget. Block descriptors in the pilot model's ten-element
// output format are derived here, so this package is both the label
// generator for pilot training and the block analyzer the runtime shares.
package sentinel

import (
	"fmt"
	"sort"

	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/tensor"
	"dynnoffload/internal/trace"
)

// Block is a half-open operator index range [Start, End) of one execution
// block.
type Block struct {
	Start, End int
}

// Len returns the number of operators in the block.
func (b Block) Len() int { return b.End - b.Start }

// DescriptorLen is the pilot-model output row width (§IV-B): operator count,
// six idiom sums, three input/output dimension sums.
const DescriptorLen = 10

// Analysis precomputes per-operator tensor liveness and timing over one
// training iteration's trace, supporting block cost queries in O(block size).
type Analysis struct {
	Trace *trace.Trace
	CM    gpusim.CostModel

	bytesOf  map[int64]int64
	firstUse map[int64]int // op index of first reference
	lastUse  map[int64]int // op index of last reference
	producer map[int64]int // op index of first production (-1 if none)
	timePfx  []int64       // prefix sums of op times

	// id is a process-unique identity for plan-cache keying (see plan.go).
	id uint64
	// Iteration-level aggregates are pure functions of the trace; they are
	// computed once here because the runtime consults them on every sample
	// (capacity checks, the fits-GPU fast path) and a per-sample liveness
	// walk would dominate the simulation itself.
	peakResident int64
	maxSingleOp  int64
	totalBytes   int64
}

// NewAnalysis builds the liveness/timing index for a trace.
func NewAnalysis(tr *trace.Trace, cm gpusim.CostModel) *Analysis {
	a := &Analysis{
		Trace:    tr,
		CM:       cm,
		bytesOf:  tr.TensorBytes(),
		firstUse: map[int64]int{},
		lastUse:  map[int64]int{},
		producer: map[int64]int{},
		timePfx:  make([]int64, len(tr.Records)+1),
		id:       analysisIDs.Add(1),
	}
	for i, r := range tr.Records {
		a.timePfx[i+1] = a.timePfx[i] + r.TimeNS
		for _, id := range r.Inputs {
			if _, ok := a.firstUse[id]; !ok {
				a.firstUse[id] = i
			}
			a.lastUse[id] = i
		}
		for _, id := range r.Outputs {
			if _, ok := a.firstUse[id]; !ok {
				a.firstUse[id] = i
			}
			a.lastUse[id] = i
			if _, ok := a.producer[id]; !ok {
				a.producer[id] = i
			}
		}
	}
	a.peakResident = a.computePeakResidentBytes()
	a.maxSingleOp = a.computeMaxSingleOpBytes()
	a.totalBytes = tr.TotalBytes()
	return a
}

// TotalBytes returns the trace's distinct tensor footprint, precomputed at
// construction (the runtime's capacity check reads it per sample).
func (a *Analysis) TotalBytes() int64 { return a.totalBytes }

// NumOps returns the trace length.
func (a *Analysis) NumOps() int { return len(a.Trace.Records) }

// ComputeNS returns the summed compute time of a block.
func (a *Analysis) ComputeNS(b Block) int64 {
	return a.timePfx[b.End] - a.timePfx[b.Start]
}

// TotalComputeNS returns the pure compute time of the whole iteration.
func (a *Analysis) TotalComputeNS() int64 { return a.timePfx[len(a.timePfx)-1] }

// forEachTensor visits each distinct tensor referenced in the block once.
func (a *Analysis) forEachTensor(b Block, fn func(id int64)) {
	seen := map[int64]bool{}
	for i := b.Start; i < b.End; i++ {
		r := &a.Trace.Records[i]
		for _, id := range r.Inputs {
			if !seen[id] {
				seen[id] = true
				fn(id)
			}
		}
		for _, id := range r.Outputs {
			if !seen[id] {
				seen[id] = true
				fn(id)
			}
		}
	}
}

// WorkingBytes returns the distinct tensor bytes a block touches — what must
// fit in the double-buffer budget while the block runs.
func (a *Analysis) WorkingBytes(b Block) int64 {
	var total int64
	a.forEachTensor(b, func(id int64) { total += a.bytesOf[id] })
	return total
}

// FetchBytes returns the bytes that must be prefetched from CPU memory
// before the block runs: distinct tensors read by the block that are neither
// produced inside it before their use nor produced in the immediately
// preceding block (whose buffer is still on the GPU).
func (a *Analysis) FetchBytes(b, prev Block) int64 {
	var total int64
	a.forEachTensor(b, func(id int64) {
		p, produced := a.producer[id]
		if produced && p >= prev.Start && p < b.End && p <= a.firstUse[id] {
			return // materialized on-GPU in this or the previous block
		}
		total += a.bytesOf[id]
	})
	return total
}

// EvictBytes returns the write-back bytes when a block's buffer is retired:
// tensors the block produced or modified that are still needed at or after
// op index `after`.
func (a *Analysis) EvictBytes(b Block, after int) int64 {
	var total int64
	seen := map[int64]bool{}
	for i := b.Start; i < b.End; i++ {
		for _, id := range a.Trace.Records[i].Outputs {
			if seen[id] {
				continue
			}
			seen[id] = true
			if a.lastUse[id] >= after {
				total += a.bytesOf[id]
			}
		}
	}
	return total
}

// Descriptor builds the ten-element execution-block vector of §IV-B.
func (a *Analysis) Descriptor(b Block) [DescriptorLen]float64 {
	var d [DescriptorLen]float64
	d[0] = float64(b.Len())
	for i := b.Start; i < b.End; i++ {
		sig := a.Trace.Records[i].Sig
		for k := 0; k < 6; k++ {
			d[1+k] += sig[k]
		}
		for k := 0; k < 3; k++ {
			d[7+k] += sig[6+k]
		}
	}
	return d
}

// Descriptors returns the descriptor rows of a partition.
func (a *Analysis) Descriptors(blocks []Block) [][DescriptorLen]float64 {
	out := make([][DescriptorLen]float64, len(blocks))
	for i, b := range blocks {
		out[i] = a.Descriptor(b)
	}
	return out
}

// Validate checks that blocks tile [0, NumOps) contiguously.
func Validate(blocks []Block, numOps int) error {
	if len(blocks) == 0 {
		return fmt.Errorf("sentinel: empty partition")
	}
	if blocks[0].Start != 0 || blocks[len(blocks)-1].End != numOps {
		return fmt.Errorf("sentinel: partition does not cover [0,%d)", numOps)
	}
	for i, b := range blocks {
		if b.Len() <= 0 {
			return fmt.Errorf("sentinel: block %d empty", i)
		}
		if i > 0 && blocks[i-1].End != b.Start {
			return fmt.Errorf("sentinel: gap before block %d", i)
		}
	}
	return nil
}

// PersistentBytes returns the bytes of tensors that live across iterations
// on an unmodified framework: weights, optimizer state, constants, and
// weight-gradient buffers (PyTorch keeps gradient buffers allocated between
// iterations). These are resident at every point of the iteration.
func (a *Analysis) PersistentBytes() int64 {
	var total int64
	for _, id := range sortedIDs(a.persistentIDs()) {
		total += a.bytesOf[id]
	}
	return total
}

// sortedIDs returns the set's keys in ascending order so every iteration
// over it is reproducible (map range order is randomized per run).
func sortedIDs(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for id := range m {
		out = append(out, id) //dynnlint:ignore determinism keys are sorted before any order-dependent use
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// persistentIDs identifies cross-iteration tensors: Weight/OptState/Constant
// kinds, plus Gradient tensors consumed by the optimizer phase (weight
// gradients, as opposed to transient activation gradients).
func (a *Analysis) persistentIDs() map[int64]bool {
	kinds := a.Trace.TensorKinds()
	out := map[int64]bool{}
	for _, t := range a.Trace.Tensors {
		switch t.Kind {
		case tensor.Weight, tensor.OptState, tensor.Constant:
			out[t.ID] = true
		}
	}
	for _, r := range a.Trace.Records {
		if r.Phase != trace.Optimizer {
			continue
		}
		for _, id := range r.Inputs {
			if kinds[id] == tensor.Gradient {
				out[id] = true
			}
		}
	}
	return out
}

// PeakResidentBytes returns the liveness-based peak memory of running the
// whole iteration on an infinite-capacity device: persistent state (weights,
// optimizer moments, weight-gradient buffers) is always resident; every
// other tensor is resident from its first to its last reference. This is the
// "unmodified PyTorch" footprint a GPU must hold. The value is precomputed at
// construction, so the call is free on the per-sample path.
func (a *Analysis) PeakResidentBytes() int64 { return a.peakResident }

func (a *Analysis) computePeakResidentBytes() int64 {
	persistent := a.persistentIDs()
	var base int64
	for _, id := range sortedIDs(persistent) {
		base += a.bytesOf[id]
	}
	n := a.NumOps()
	allocAt := make([][]int64, n)
	freeAfter := make([][]int64, n)
	for id, first := range a.firstUse {
		if !persistent[id] {
			allocAt[first] = append(allocAt[first], id)
		}
	}
	for id, last := range a.lastUse {
		if !persistent[id] {
			freeAfter[last] = append(freeAfter[last], id)
		}
	}
	var cur, peak int64
	for i := 0; i < n; i++ {
		for _, id := range allocAt[i] {
			cur += a.bytesOf[id]
		}
		if cur > peak {
			peak = cur
		}
		for _, id := range freeAfter[i] {
			cur -= a.bytesOf[id]
		}
	}
	return base + peak
}

// MaxSingleOpBytes returns the largest single-operator working set — the
// floor below which no double-buffer budget is feasible. Precomputed at
// construction (the runtime checks it per sample).
func (a *Analysis) MaxSingleOpBytes() int64 { return a.maxSingleOp }

func (a *Analysis) computeMaxSingleOpBytes() int64 {
	var m int64
	for i := 0; i < a.NumOps(); i++ {
		if w := a.WorkingBytes(Block{Start: i, End: i + 1}); w > m {
			m = w
		}
	}
	return m
}

// BytesOf returns a tensor's size.
func (a *Analysis) BytesOf(id int64) int64 { return a.bytesOf[id] }

// WorkingIDs lists the distinct tensors a block touches.
func (a *Analysis) WorkingIDs(b Block) []int64 {
	var out []int64
	a.forEachTensor(b, func(id int64) { out = append(out, id) })
	return out
}

// LastUse returns the op index of a tensor's final reference (-1 if never).
func (a *Analysis) LastUse(id int64) int {
	if v, ok := a.lastUse[id]; ok {
		return v
	}
	return -1
}

// Producer returns the op index producing a tensor, or -1 for persistent
// tensors (weights, inputs, optimizer state).
func (a *Analysis) Producer(id int64) int {
	if v, ok := a.producer[id]; ok {
		return v
	}
	return -1
}

// PersistentIDs lists cross-iteration tensors (weights, optimizer state,
// constants, weight-gradient buffers) — see PersistentBytes.
func (a *Analysis) PersistentIDs() []int64 {
	return sortedIDs(a.persistentIDs())
}
