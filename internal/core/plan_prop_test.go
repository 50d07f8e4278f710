package core

import (
	"reflect"
	"testing"

	"dynnoffload/internal/faults"
	"dynnoffload/internal/obsv"
)

// planSchedule runs one fresh-engine traced epoch, optionally attached to a
// shared L2, and returns the epoch report (wall-measured overhead stripped)
// plus the canonical span set.
func planSchedule(t *testing.T, b *propBench, fc faults.Config, workers int, plans *PlanCache) (EpochReport, []obsv.Span) {
	t.Helper()
	cfg := DefaultConfig(b.plat)
	cfg.Plans = plans
	if fc.Rate > 0 {
		cfg.Faults = faults.New(fc)
	}
	eng := NewEngine(cfg, b.p)
	tracer := obsv.NewTracer()
	rep, err := eng.ParallelRunEpoch(b.test, EpochOptions{Workers: workers, Tracer: tracer})
	if err != nil {
		t.Fatalf("%s: %+v workers=%d: %v", b.name, fc, workers, err)
	}
	rep.PilotNS, rep.MappingNS, rep.Breakdown.OverheadNS = 0, 0, 0
	return rep, tracer.Spans()
}

// TestPlanCacheBitIdentical is the plan-sharing acceptance property: every
// epoch aggregate — Samples, Mispredictions, CacheHits, the full virtual-time
// Breakdown, the fault counters — and the entire simulated-time span set are
// bit-identical to a fresh engine with no shared cache at one worker, when
// plans are shared through an L2 and across 1/2/4/8 workers, fault-free and
// faulted. Plans are pure functions of their inputs; this pins that sharing
// them changes nothing. TestScheduleGolden pins the arithmetic itself.
func TestPlanCacheBitIdentical(t *testing.T) {
	for _, b := range propModels(t) {
		for _, fc := range []faults.Config{{}, {Seed: 11, Rate: 0.2}} {
			refRep, refSpans := planSchedule(t, b, fc, 1, nil)
			if len(refSpans) == 0 {
				t.Fatalf("%s: %+v: empty reference span set", b.name, fc)
			}
			if refRep.Breakdown.H2DBytes == 0 {
				t.Fatalf("%s: no migration traffic — the property would be vacuous", b.name)
			}
			shared := NewPlanCache()
			for _, workers := range []int{1, 2, 4, 8} {
				rep, spans := planSchedule(t, b, fc, workers, shared)
				if rep != refRep {
					t.Fatalf("%s: %+v: shared plans changed the epoch report at %d workers:\n got %+v\nwant %+v",
						b.name, fc, workers, rep, refRep)
				}
				if !reflect.DeepEqual(spans, refSpans) {
					i := 0
					for i < len(spans) && i < len(refSpans) && spans[i] == refSpans[i] {
						i++
					}
					t.Fatalf("%s: %+v: span set diverges with shared plans at %d workers (len %d vs %d, first diff at span %d)",
						b.name, fc, workers, len(spans), len(refSpans), i)
				}
			}
			if st := shared.Stats(); st.Hits == 0 || st.Entries == 0 {
				t.Fatalf("%s: %+v: shared L2 never hit (%+v) — the equivalence never exercised sharing", b.name, fc, st)
			}
		}
	}
}

// TestPlanCacheSharedAcrossEngines pins the sweep-amortization contract:
// engines built per grid cell against one shared PlanCache produce the same
// results as isolated engines, and the second engine serves its plans from
// the first engine's inserts (hits, no new entries).
func TestPlanCacheSharedAcrossEngines(t *testing.T) {
	b := propModels(t)[0]
	shared := NewPlanCache()
	rep1, _ := planSchedule(t, b, faults.Config{}, 2, shared)
	entries := shared.Stats().Entries
	if entries == 0 {
		t.Fatal("first engine inserted no plans")
	}
	hitsBefore := shared.Stats().Hits
	rep2, _ := planSchedule(t, b, faults.Config{}, 2, shared)
	if rep1 != rep2 {
		t.Fatalf("shared plans changed results across engines:\n got %+v\nwant %+v", rep2, rep1)
	}
	st := shared.Stats()
	if st.Entries != entries {
		t.Fatalf("second engine grew the cache: %d -> %d entries", entries, st.Entries)
	}
	if st.Hits <= hitsBefore {
		t.Fatalf("second engine never hit the shared cache: %+v", st)
	}
}

// TestPartitionPlanEquivalence pins the SimulatePartition cache: repeated
// calls (plan compiled once, then served from the partition L1) return the
// same breakdown as the pipelined schedule run from the path's own plan (the
// path L1), for four sampled paths of every fixture model.
func TestPartitionPlanEquivalence(t *testing.T) {
	for _, b := range propModels(t) {
		eng := NewEngine(DefaultConfig(b.plat), b.p)
		for _, ex := range b.test[:4] {
			info := ex.Ctx.PathByKey(ex.TruthKey)
			want, err := eng.simulatePipelined(eng.planFor(info), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				if got := eng.SimulatePartition(info.Analysis, info.Blocks); got != want {
					t.Fatalf("%s %s rep %d: cached partition diverges:\n got %+v\nwant %+v",
						b.name, info.Key, rep, got, want)
				}
			}
		}
	}
}
