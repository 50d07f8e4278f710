package core

import (
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/mathx"
	"dynnoffload/internal/pilot"
)

func TestDynamicBatchMergesByDepthAndKind(t *testing.T) {
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 1, Seed: 4})
	samples := dynn.GenerateSamples(6, 12, 8, 40)
	ctx, err := pilot.NewModelContext(m, gpusim.NewCostModel(gpusim.RTXPlatform()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var infos []*pilot.PathInfo
	for _, s := range samples {
		info, err := ctx.TruthPath(s)
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}

	eng := NewEngine(DefaultConfig(gpusim.RTXPlatform()), nil)
	rep := eng.SimulateDynamicBatch(infos)
	if rep.Graphs != len(infos) {
		t.Errorf("graphs = %d", rep.Graphs)
	}
	// Batching must reduce launches and not increase total time.
	if rep.BatchedLaunches >= rep.SequentialOps {
		t.Errorf("no merging: %d launches for %d ops", rep.BatchedLaunches, rep.SequentialOps)
	}
	if rep.BatchedNS > rep.SequentialNS {
		t.Errorf("batched %d ns slower than sequential %d ns", rep.BatchedNS, rep.SequentialNS)
	}
}

func TestBatchedKernelTime(t *testing.T) {
	if BatchedKernelTimeNS(100, 20, 1) != 100 {
		t.Error("single instance must be unchanged")
	}
	k4 := BatchedKernelTimeNS(100, 20, 4)
	// Longer than one instance (paper: batched ops run longer), but cheaper
	// than four sequential launches... per-op interference keeps it below 4x
	// plus scheduling slack.
	if k4 <= 100 {
		t.Error("batched kernel must run longer than a single instance")
	}
	if k4 >= 4*100*2 {
		t.Error("batched kernel time unreasonably large")
	}
}

// refSimulateDynamicBatch is the map-based depth merge SimulateDynamicBatch
// replaced, kept as its oracle: every forward op's time recomputed, groups
// keyed by (depth, name) in a per-batch map.
func refSimulateDynamicBatch(e *Engine, infos []*pilot.PathInfo) BatchingReport {
	type key struct {
		depth int
		name  string
	}
	type group struct {
		count int
		flops int64
	}
	rep := BatchingReport{Graphs: len(infos)}
	var order []key
	merged := map[key]*group{}
	for _, info := range infos {
		for depth, op := range info.Iteration.Forward {
			rep.SequentialOps++
			rep.SequentialNS += e.CM.OpTime(op)
			k := key{depth, op.Name}
			g, ok := merged[k]
			if !ok {
				g = &group{}
				merged[k] = g
				order = append(order, k)
			}
			g.count++
			g.flops += op.FLOPs
		}
	}
	rep.BatchedLaunches = len(order)
	for _, k := range order {
		g := merged[k]
		single := e.CM.OpTime(&graph.Op{Name: k.name, FLOPs: g.flops / int64(g.count)})
		rep.BatchedNS += BatchedKernelTimeNS(single, e.CM.Dev.LaunchNS, g.count)
	}
	return rep
}

// TestSimulateDynamicBatchMatchesMapMerge pins the memoized, map-free merge
// to the map-based oracle over seeded random batches (repeats included) of
// every zoo model with more than one path, on a cold and then a warm engine,
// and pins that a warm call allocates nothing.
func TestSimulateDynamicBatchMatchesMapMerge(t *testing.T) {
	rng := mathx.NewRNG(17)
	for _, entry := range dynn.DynamicZoo() {
		m := entry.New(1, 3)
		paths, err := graph.EnumeratePaths(m.Static())
		if err != nil {
			t.Fatal(err)
		}
		pool := make([]*pilot.PathInfo, len(paths))
		for i, p := range paths {
			pool[i] = &pilot.PathInfo{Iteration: graph.ExpandTraining(m.Registry(), p.Resolved, m.WeightStates(), true)}
		}
		eng := NewEngine(DefaultConfig(gpusim.A100Platform()), nil)
		for trial := 0; trial < 40; trial++ {
			infos := make([]*pilot.PathInfo, 1+rng.Intn(8))
			for i := range infos {
				infos[i] = pool[rng.Intn(len(pool))]
			}
			if got, want := eng.SimulateDynamicBatch(infos), refSimulateDynamicBatch(eng, infos); got != want {
				t.Fatalf("%s trial %d: got %+v, want %+v", entry.Name, trial, got, want)
			}
			if trial == 0 {
				allocs := testing.AllocsPerRun(20, func() { eng.SimulateDynamicBatch(infos) })
				if allocs != 0 {
					t.Errorf("%s: warm SimulateDynamicBatch allocates %.0f times", entry.Name, allocs)
				}
			}
		}
	}
}
