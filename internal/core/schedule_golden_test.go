package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dynnoffload/internal/faults"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// scheduleLine is one golden line: one schedule run over every path of one
// model on one platform under one fault config.
type scheduleLine struct {
	model, platform, faultLabel, schedule string

	bd       gpusim.Breakdown
	counters faults.Counters
	errors   int
	spans    int
	digest   uint64
}

// rawBreakdown formats a Breakdown field by field at full precision;
// Breakdown's own String rounds to milliseconds and megabytes.
type rawBreakdown gpusim.Breakdown

func (l scheduleLine) String() string {
	return fmt.Sprintf("%s %s %s %s errors=%d spans=%d digest=%016x bd=%+v counters=%+v",
		l.model, l.platform, l.faultLabel, l.schedule, l.errors, l.spans, l.digest, rawBreakdown(l.bd), l.counters)
}

// appendFields appends every field of a flat struct of integers, strings and
// bools to buf in declaration order — a canonical encoding for the digest
// that, unlike fmt, costs no more than the fields themselves.
func appendFields(buf []byte, v reflect.Value) []byte {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Int()))
		case reflect.String:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Len()))
			buf = append(buf, f.String()...)
		case reflect.Bool:
			b := byte(0)
			if f.Bool() {
				b = 1
			}
			buf = append(buf, b)
		default:
			panic("appendFields: unsupported field kind " + f.Kind().String())
		}
	}
	return buf
}

// scheduleRun runs one schedule over every path of a context, each path with
// its own fault stream scoped by the path index and its own trace, and folds
// the per-path results into one line. The digest covers the ordered per-path
// breakdowns, counters, error flags, and span sets, so any per-path
// divergence changes it even where the sums happen to agree.
func scheduleRun(eng *Engine, ctx *pilot.ModelContext, fc faults.Config, pipelined bool) scheduleLine {
	inj := faults.New(fc)
	h := fnv.New64a()
	var buf []byte
	var l scheduleLine
	for i, info := range ctx.Paths {
		fs := inj.Stream(uint64(i))
		tr := obsv.NewTracer()
		var bd gpusim.Breakdown
		var err error
		if pipelined {
			bd, err = eng.simulatePipelined(eng.planFor(info), fs, tr.Sample(0))
		} else {
			bd = eng.simulateOnDemand(eng.planFor(info), fs, tr.Sample(0))
		}
		spans := tr.Spans()
		c := fs.Counters()
		l.bd = l.bd.Add(bd)
		l.counters = l.counters.Add(c)
		l.spans += len(spans)
		failed := byte(0)
		if err != nil {
			l.errors++
			failed = 1
		}
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(i))
		buf = appendFields(buf, reflect.ValueOf(bd))
		buf = appendFields(buf, reflect.ValueOf(c))
		buf = append(buf, failed)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(spans)))
		for _, sp := range spans {
			buf = appendFields(buf, reflect.ValueOf(sp))
		}
		h.Write(buf)
	}
	l.digest = h.Sum64()
	return l
}

// TestScheduleGolden pins the arithmetic of both runtime schedules per path:
// every path of the five fixture models, pipelined and on-demand, fault-free
// and under three fault configs on the pressure-scaled platform, plus
// fault-free on the unconstrained RTX platform (the in-memory fast path the
// constrained fixture never reaches). The golden was recorded from the
// pre-plan reference schedules, which re-derived every block quantity from
// the Analysis per sample; the plan tables themselves are checked against
// the Analysis in sentinel's TestBlockPlanMatchesAnalysis. Regenerate with
// -update only for an intended change to the schedule arithmetic.
func TestScheduleGolden(t *testing.T) {
	faultCfgs := []faults.Config{{}, {Seed: 11, Rate: 0.2}, {Seed: 41, Rate: 0.25}, {Seed: 7, Rate: 1.0}}
	faultLabel := func(fc faults.Config) string {
		if fc.Rate == 0 {
			return "fault-free"
		}
		return fmt.Sprintf("seed=%d,rate=%g", fc.Seed, fc.Rate)
	}
	type platRun struct {
		name string
		plat gpusim.Platform
		fcs  []faults.Config
	}
	var lines []scheduleLine
	for _, b := range propModels(t) {
		ctx := b.test[0].Ctx
		for _, pr := range []platRun{
			{"pressure", b.plat, faultCfgs},
			{"rtx", gpusim.RTXPlatform(), faultCfgs[:1]},
		} {
			// Fault streams are passed per path, so one engine (and one
			// set of compiled plans) serves every fault config.
			eng := NewEngine(DefaultConfig(pr.plat), nil)
			for _, fc := range pr.fcs {
				for _, pipelined := range []bool{true, false} {
					l := scheduleRun(eng, ctx, fc, pipelined)
					l.model, l.platform, l.faultLabel = b.name, pr.name, faultLabel(fc)
					l.schedule = "ondemand"
					if pipelined {
						l.schedule = "pipelined"
					}
					lines = append(lines, l)
				}
			}
		}
	}

	// Non-vacuity: every recovery rung is reached somewhere, and each
	// schedule takes the in-memory fast path on at least one line.
	var total faults.Counters
	fast := map[string]bool{}
	for _, l := range lines {
		total = total.Add(l.counters)
		if l.bd.ComputeNS > 0 && l.bd.H2DBytes == 0 && l.bd.D2HBytes == 0 {
			fast[l.schedule] = true
		}
	}
	tv := reflect.ValueOf(total)
	for i := 0; i < tv.NumField(); i++ {
		if tv.Field(i).Int() == 0 {
			t.Errorf("counter %s is zero over the whole golden — its code path is unpinned", tv.Type().Field(i).Name)
		}
	}
	for _, s := range []string{"pipelined", "ondemand"} {
		if !fast[s] {
			t.Errorf("no %s line takes the in-memory fast path", s)
		}
	}

	var sb strings.Builder
	for _, l := range lines {
		sb.WriteString(l.String())
		sb.WriteByte('\n')
	}
	got := sb.String()
	path := filepath.Join("testdata", "golden", "schedules.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("schedule golden drifted at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("schedule golden drifted: %d lines, want %d", len(gotLines), len(wantLines))
	}
}
