package core

import (
	"dynnoffload/internal/graph"
	"dynnoffload/internal/pilot"
)

// This file implements dynamic batching (§IV-E "Impact of dynamic batching
// in DyNN"): training samples with different resolved dataflow graphs are
// batched by merging operators at the same depth with the same signature
// (TensorFlow-Fold-style depth batching [35]). The paper's two observations
// hold by construction here and are verified in tests:
//
//  1. batching does not change the execution order of each graph's
//     execution blocks, so pilot-guided prefetch remains valid;
//  2. batched operators run longer on the GPU, giving migration *more* room
//     to hide — batching does not compromise DyNN-Offload's effectiveness.

// BatchInterference inflates the arithmetic portion of a batched kernel:
// the paper notes batched operators run longer due to extra cache misses
// from thread-block scheduling [77] and TLB misses [13].
const BatchInterference = 1.1

// BatchedKernelTimeNS models one batched launch: the kernel-launch overhead
// is paid once instead of count times (the benefit of batching), while the
// arithmetic runs count times with interference (the cost, §IV-E).
func BatchedKernelTimeNS(singleNS, launchNS int64, count int) int64 {
	if count <= 1 {
		return singleNS
	}
	arith := float64(singleNS-launchNS) * float64(count) * BatchInterference
	return launchNS + int64(arith)
}

// BatchingReport compares batched vs sequential execution of a set of
// samples' graphs under this engine's cost model.
type BatchingReport struct {
	Graphs          int
	SequentialOps   int
	BatchedLaunches int
	SequentialNS    int64
	BatchedNS       int64
}

// SimulateDynamicBatch evaluates the batching benefit for a set of samples
// of one model context (forward pass, which is where graphs differ). The
// forward graphs merge by (depth, operator name): operators of the same kind
// at the same position of their forward sequence fuse into one launch
// (TensorFlow-Fold-style depth batching [35]).
//
// The serving scheduler calls this on every dispatch, so it allocates
// nothing on a warm engine: each path's sequential forward time is computed
// once per engine (fwdNS, keyed by PathInfo identity), and the merge groups
// each depth's operators by pairwise scan over the batch — a group is counted
// at its first member — instead of building a per-batch map.
func (e *Engine) SimulateDynamicBatch(infos []*pilot.PathInfo) BatchingReport {
	rep := BatchingReport{Graphs: len(infos)}
	depth := 0
	for _, info := range infos {
		fwd := info.Iteration.Forward
		rep.SequentialOps += len(fwd)
		rep.SequentialNS += e.forwardNS(info)
		depth = max(depth, len(fwd))
	}
	launch := e.CM.Dev.LaunchNS
	for d := 0; d < depth; d++ {
		for i, info := range infos {
			fwd := info.Iteration.Forward
			if d >= len(fwd) || opAtDepth(infos[:i], d, fwd[d].Name) {
				continue // no op here, or fused into an earlier member's group
			}
			count, flops := 1, fwd[d].FLOPs
			for _, other := range infos[i+1:] {
				if f := other.Iteration.Forward; d < len(f) && f[d].Name == fwd[d].Name {
					count++
					flops += f[d].FLOPs
				}
			}
			rep.BatchedLaunches++
			single := e.CM.OpTime(&graph.Op{Name: fwd[d].Name, FLOPs: flops / int64(count)})
			rep.BatchedNS += BatchedKernelTimeNS(single, launch, count)
		}
	}
	return rep
}

// opAtDepth reports whether any of infos runs an operator named name at
// forward depth d.
func opAtDepth(infos []*pilot.PathInfo, d int, name string) bool {
	for _, info := range infos {
		if f := info.Iteration.Forward; d < len(f) && f[d].Name == name {
			return true
		}
	}
	return false
}

// forwardNS returns info's sequential forward time under the engine's cost
// model, computing it on the path's first batch only.
func (e *Engine) forwardNS(info *pilot.PathInfo) int64 {
	if ns, ok := e.fwdNS.lookup(info); ok {
		return ns
	}
	var ns int64
	for _, op := range info.Iteration.Forward {
		ns += e.CM.OpTime(op)
	}
	return e.fwdNS.insert(info, ns)
}
