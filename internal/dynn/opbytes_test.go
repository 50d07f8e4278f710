package dynn

import (
	"testing"

	"dynnoffload/internal/graph"
	"dynnoffload/internal/tensor"
)

// setBytes is the set-based reference for Op.Bytes: inputs plus outputs,
// each tensor ID counted once.
func setBytes(op *graph.Op) int64 {
	seen := map[int64]bool{}
	var total int64
	for _, list := range [][]*tensor.Meta{op.Inputs, op.Outputs} {
		for _, t := range list {
			if t != nil && !seen[t.ID] {
				seen[t.ID] = true
				total += t.Bytes()
			}
		}
	}
	return total
}

// TestOpBytesMatchesSetDedup pins the allocation-free pairwise dedup behind
// Op.Bytes against a set-based sum on every operator of every zoo model's
// training iterations (forward, backward and optimizer), and pins that
// Op.Bytes does not allocate.
func TestOpBytesMatchesSetDedup(t *testing.T) {
	for _, entry := range Zoo() {
		m := entry.New(2, 9)
		paths, err := graph.EnumeratePaths(m.Static())
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		var widest *graph.Op // most operands, for the allocation pin
		for _, p := range paths {
			it := graph.ExpandTraining(m.Registry(), p.Resolved, m.WeightStates(), true)
			for _, op := range it.Ops() {
				if got, want := op.Bytes(), setBytes(op); got != want {
					t.Fatalf("%s path %v op %s: Bytes() = %d, set-based sum %d", entry.Name, p.Decisions, op, got, want)
				}
				if widest == nil || len(op.Inputs)+len(op.Outputs) > len(widest.Inputs)+len(widest.Outputs) {
					widest = op
				}
			}
		}
		if widest == nil {
			t.Fatalf("%s: no operators checked", entry.Name)
		}
		if allocs := testing.AllocsPerRun(10, func() { widest.Bytes() }); allocs != 0 {
			t.Errorf("%s op %s: Bytes() allocates %.0f times", entry.Name, widest, allocs)
		}
	}
}
