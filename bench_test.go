// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§VI). Each benchmark regenerates its artifact through
// the shared drivers in internal/expt and logs the resulting rows, so
//
//	go test -bench=. -benchmem
//
// reproduces every experiment at CI scale. Paper-scale runs use
// cmd/dynnbench with -train/-test/-neurons flags; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package dynnoffload

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dynnoffload/internal/core"
	"dynnoffload/internal/expt"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/serve"
)

// benchOpts are deliberately small: the benchmarks exist to regenerate every
// artifact end-to-end, not to reach paper-scale sample counts.
func benchOpts() expt.Options {
	o := expt.DefaultOptions()
	o.TrainSamples = 300
	o.TestSamples = 100
	o.Epochs = 8
	o.Neurons = 96
	return o
}

var (
	wbOnce sync.Once
	wb     *expt.Workbench
	wbErr  error
)

// workbench builds the shared fixture (model contexts + trained pilot) once
// across all benchmarks.
func workbench(b *testing.B) *expt.Workbench {
	b.Helper()
	wbOnce.Do(func() {
		wb, wbErr = expt.NewWorkbench(benchOpts())
	})
	if wbErr != nil {
		b.Fatal(wbErr)
	}
	return wb
}

// logTable renders a driver's output into the benchmark log.
func logTable(b *testing.B, t *expt.Table) {
	b.Helper()
	var sb strings.Builder
	t.Fprint(&sb)
	b.Log("\n" + sb.String())
}

func BenchmarkTableI(b *testing.B) {
	var t *expt.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = expt.TableI(2000, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

func BenchmarkTableII(b *testing.B) {
	var t *expt.Table
	for i := 0; i < b.N; i++ {
		t = expt.TableII()
	}
	logTable(b, t)
}

func BenchmarkHeuristicStudy(b *testing.B) {
	var t *expt.Table
	for i := 0; i < b.N; i++ {
		t = expt.HeuristicStudy(1000, 42)
	}
	logTable(b, t)
}

func BenchmarkLargestModel(b *testing.B) {
	var t *expt.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = expt.LargestModel(256, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

func BenchmarkTableIII(b *testing.B) {
	var t *expt.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = expt.TableIII(24, 1024, 256)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

func BenchmarkFig7(b *testing.B) {
	w := workbench(b)
	b.ResetTimer()
	var t *expt.Table
	for i := 0; i < b.N; i++ {
		t = expt.Fig7(w)
	}
	logTable(b, t)
}

func BenchmarkFig8(b *testing.B) {
	w := workbench(b)
	b.ResetTimer()
	var t *expt.Table
	for i := 0; i < b.N; i++ {
		t = expt.Fig8(w)
	}
	logTable(b, t)
}

func BenchmarkFig9(b *testing.B) {
	w := workbench(b)
	b.ResetTimer()
	var t *expt.Table
	for i := 0; i < b.N; i++ {
		t = expt.Fig9(w)
	}
	logTable(b, t)
}

func BenchmarkFig10(b *testing.B) {
	w := workbench(b)
	b.ResetTimer()
	var t *expt.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = expt.Fig10(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

func BenchmarkTableIV(b *testing.B) {
	opts := benchOpts()
	opts.TrainSamples = 250
	opts.TestSamples = 80
	var t *expt.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = expt.TableIV(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

func BenchmarkFig11(b *testing.B) {
	opts := benchOpts()
	opts.TrainSamples = 250
	opts.TestSamples = 80
	var t *expt.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = expt.Fig11(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

func BenchmarkFig12(b *testing.B) {
	w := workbench(b)
	b.ResetTimer()
	var t *expt.Table
	for i := 0; i < b.N; i++ {
		t = expt.Fig12(w)
	}
	logTable(b, t)
}

func BenchmarkMispredictions(b *testing.B) {
	w := workbench(b)
	b.ResetTimer()
	var t *expt.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = expt.Mispredictions(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

func BenchmarkMispredHandling(b *testing.B) {
	w := workbench(b)
	b.ResetTimer()
	var t *expt.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = expt.MispredHandling(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

func BenchmarkOverhead(b *testing.B) {
	w := workbench(b)
	b.ResetTimer()
	var t *expt.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = expt.Overhead(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// --- Ablation benches (DESIGN.md §5.6): micro-costs of the runtime pieces ---

func BenchmarkPilotInference(b *testing.B) {
	w := workbench(b)
	mb := w.Bench("Tree-LSTM")
	ex := mb.Test[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Pilot.Resolve(ex); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSentinelPartition(b *testing.B) {
	w := workbench(b)
	mb := w.Bench("var-BERT")
	info := mb.Ctx.Paths[0]
	budget := mb.Ctx.Budget
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info.Analysis.Partition(budget)
	}
}

func BenchmarkGraphResolve(b *testing.B) {
	w := workbench(b)
	mb := w.Bench("var-BERT")
	static := mb.Model.Static()
	decisions := make([][]int, 0, len(mb.Test))
	for _, ex := range mb.Test {
		decisions = append(decisions, mb.Model.Decide(ex.Sample))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Resolve(static, decisions[i%len(decisions)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOffloadIteration(b *testing.B) {
	w := workbench(b)
	mb := w.Bench("var-BERT")
	eng := w.Engine(mb)
	info := mb.Ctx.Paths[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SimulatePartition(info.Analysis, info.Blocks)
	}
}

// BenchmarkPlanCacheMiss pays plan compilation on every iteration: each run
// hits a cold engine, so the measured op is the liveness walks plus the first
// simulation — what a sweep grid point costs per path without the shared
// cache.
func BenchmarkPlanCacheMiss(b *testing.B) {
	w := workbench(b)
	mb := w.Bench("var-BERT")
	info := mb.Ctx.Paths[0]
	engines := make([]*core.Engine, b.N)
	for i := range engines {
		engines[i] = core.NewEngine(core.DefaultConfig(mb.Platform), w.Pilot)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engines[i].SimulatePartition(info.Analysis, info.Blocks)
	}
}

// BenchmarkPlanCacheHit times the shared L2 lookup by the engines' own cache
// keys on a warmed cache — the per-sample cost of skipping compilation.
func BenchmarkPlanCacheHit(b *testing.B) {
	w := workbench(b)
	mb := w.Bench("var-BERT")
	eng := w.Engine(mb)
	if _, err := eng.RunBatch(mb.Test, core.EpochOptions{}); err != nil {
		b.Fatal(err)
	}
	capacity := mb.Platform.GPU.MemBytes
	keys := make([]string, 0, len(mb.Test))
	for _, ex := range mb.Test {
		if k := core.PlanCacheKey(ex.Ctx.PathByKey(ex.TruthKey), capacity); k != "" {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		b.Fatal("no plan-cache keys to probe")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := w.Plans.Lookup(keys[i%len(keys)]); !ok {
			b.Fatal("plan cache cold after warmup")
		}
	}
}

// BenchmarkServeStep measures the mean cost per served request through the
// multi-tenant front end (admission, EDF batching, reservation, dispatch)
// under a saturating single-tenant stream; one op is one completed request.
func BenchmarkServeStep(b *testing.B) {
	w := workbench(b)
	mb := w.Bench("var-BERT")
	cfg := core.DefaultConfig(mb.Platform)
	cfg.Plans = w.Plans
	eng := core.NewEngine(cfg, w.Pilot)
	b.ResetTimer()
	rep, err := serve.Run(&serve.Backend{Engine: eng, Pool: mb.Test}, serve.Config{
		Tenants: []serve.TenantConfig{{
			Name: "bench", Requests: b.N, RatePerSec: 1e6,
			Seed: benchOpts().Seed + 7, MaxQueue: b.N,
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if int(rep.Total.Completed) != b.N {
		b.Fatalf("completed %d of %d requests", rep.Total.Completed, b.N)
	}
}

// BenchmarkServeStepDepth is BenchmarkServeStep at fixed stream lengths of
// 250, 1000 and 4000 requests, each stream queued whole at once: one op is
// one serve.Run, and ns/request stays flat only if a dispatch costs the same
// at every queue depth.
func BenchmarkServeStepDepth(b *testing.B) {
	w := workbench(b)
	mb := w.Bench("var-BERT")
	cfg := core.DefaultConfig(mb.Platform)
	cfg.Plans = w.Plans
	for _, n := range []int{250, 1000, 4000} {
		b.Run(fmt.Sprintf("requests=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := serve.Run(&serve.Backend{Engine: core.NewEngine(cfg, w.Pilot), Pool: mb.Test}, serve.Config{
					Tenants: []serve.TenantConfig{{
						Name: "bench", Requests: n, RatePerSec: 1e6,
						Seed: benchOpts().Seed + 7, MaxQueue: n,
					}},
				})
				if err != nil {
					b.Fatal(err)
				}
				if int(rep.Total.Completed) != n {
					b.Fatalf("completed %d of %d requests", rep.Total.Completed, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/request")
		})
	}
}
