package sentinel

import (
	"reflect"
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/trace"
)

// checkPlanAgainstAnalysis re-derives every table entry of NewBlockPlan from
// direct Analysis queries. The runtime simulates from the plan alone, so this
// is what keeps the Analysis a live reference for the compile step.
func checkPlanAgainstAnalysis(t *testing.T, name string, an *Analysis, blocks []Block) {
	t.Helper()
	p := NewBlockPlan(an, blocks)
	if p.NumBlocks() != len(blocks) || !reflect.DeepEqual(p.Blocks, blocks) {
		t.Fatalf("%s: plan blocks %v, want %v", name, p.Blocks, blocks)
	}
	if p.TotalComputeNS != an.TotalComputeNS() || p.PeakResidentBytes != an.PeakResidentBytes() {
		t.Fatalf("%s: aggregates (%d, %d), want (%d, %d)", name,
			p.TotalComputeNS, p.PeakResidentBytes, an.TotalComputeNS(), an.PeakResidentBytes())
	}
	n := len(blocks)
	prev := Block{}
	for i, b := range blocks {
		if got, want := p.ComputeNS[i], an.ComputeNS(b); got != want {
			t.Fatalf("%s block %d: ComputeNS %d, want %d", name, i, got, want)
		}
		if got, want := p.FetchBytes[i], an.FetchBytes(b, prev); got != want {
			t.Fatalf("%s block %d: FetchBytes %d, want %d", name, i, got, want)
		}
		if got, want := p.WorkingBytes[i], an.WorkingBytes(b); got != want {
			t.Fatalf("%s block %d: WorkingBytes %d, want %d", name, i, got, want)
		}
		var pipe, onDemand int64
		if i >= 1 {
			if i+1 < n {
				pipe = an.EvictBytes(blocks[i-1], blocks[i+1].Start)
			}
			onDemand = an.EvictBytes(blocks[i-1], b.Start)
		}
		if p.PipeEvictBytes[i] != pipe {
			t.Fatalf("%s block %d: PipeEvictBytes %d, want %d", name, i, p.PipeEvictBytes[i], pipe)
		}
		if p.OnDemandEvictBytes[i] != onDemand {
			t.Fatalf("%s block %d: OnDemandEvictBytes %d, want %d", name, i, p.OnDemandEvictBytes[i], onDemand)
		}
		ids := an.WorkingIDs(b)
		if !reflect.DeepEqual(p.WorkingIDs[i], ids) {
			t.Fatalf("%s block %d: WorkingIDs %v, want %v", name, i, p.WorkingIDs[i], ids)
		}
		if len(p.WorkingIDBytes[i]) != len(ids) {
			t.Fatalf("%s block %d: %d sizes for %d ids", name, i, len(p.WorkingIDBytes[i]), len(ids))
		}
		for j, id := range ids {
			if p.WorkingIDBytes[i][j] != an.BytesOf(id) {
				t.Fatalf("%s block %d: tensor %d size %d, want %d", name, i, id, p.WorkingIDBytes[i][j], an.BytesOf(id))
			}
		}
		prev = b
	}
}

// TestBlockPlanMatchesAnalysis checks the compiled block tables against the
// Analysis for resolved paths of every zoo model — branches, recursion, and
// expert routing give liveness horizons a linear chain never has — at the
// double-buffer floor and at a looser budget, plus a chain trace.
func TestBlockPlanMatchesAnalysis(t *testing.T) {
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	samples := dynn.GenerateSamples(5, 3, 4, 24)
	var checked, multiBlock int
	for _, entry := range dynn.Zoo() {
		m := entry.New(1, 7)
		for _, s := range samples {
			r, err := m.Resolve(s)
			if err != nil {
				t.Fatalf("%s: %v", entry.Name, err)
			}
			it := graph.ExpandTraining(m.Registry(), r, m.WeightStates(), true)
			an := NewAnalysis(trace.FromIteration(m.Name(), it, cm), cm)
			floor := 9 * an.MaxSingleOpBytes() / 4
			for _, budget := range []int64{floor, 3 * floor} {
				blocks := an.Partition(budget)
				if blocks == nil {
					t.Fatalf("%s: partition infeasible at budget %d", entry.Name, budget)
				}
				checkPlanAgainstAnalysis(t, entry.Name, an, blocks)
				checked++
				if len(blocks) >= 3 {
					multiBlock++
				}
			}
		}
	}
	tr, ccm := chainTrace(t, 16, 4096, 4096)
	an := NewAnalysis(tr, ccm)
	checkPlanAgainstAnalysis(t, "chain", an, an.Partition(max64(tr.TotalBytes()/4, an.MaxSingleOpBytes())))
	if multiBlock == 0 {
		t.Fatalf("none of %d partitions has three blocks — the evict horizons were never exercised", checked)
	}
}
