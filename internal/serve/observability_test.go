package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynnoffload/internal/core"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/obsv"
)

// TestServeAttributionSumsToLatency is the attribution layer's acceptance
// property: the per-run decomposition's total equals the exact sum of the
// completed requests' end-to-end latencies — every nanosecond of latency is
// explained by exactly one named cause. The sum of e2e latencies comes from
// the flight recorder's complete events (DurNS is the e2e latency), recorded
// independently of the attribution path.
func TestServeAttributionSumsToLatency(t *testing.T) {
	b := testServeBench(t)
	cfg := twoTenants(b, 4000, 30)
	cfg.Flight = obsv.FlightConfig{Events: 4096} // big enough that nothing wraps
	rep, err := Run(b.backend(core.DefaultConfig(b.plat)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := rep.Total.Attribution
	if at == nil {
		t.Fatal("no run-level attribution")
	}

	var e2eSum int64
	var completes int64
	for _, snap := range rep.Flights {
		if snap.Reason != "final" {
			continue
		}
		if snap.Dropped != 0 {
			t.Fatalf("ring wrapped (%d dropped); grow Events", snap.Dropped)
		}
		for _, ev := range snap.Events {
			if ev.Kind == obsv.FlightComplete {
				e2eSum += ev.DurNS
				completes++
			}
		}
	}
	if completes != rep.Total.Completed {
		t.Fatalf("flight complete events = %d, report completed = %d", completes, rep.Total.Completed)
	}
	if got := at.All.TotalNS(); got != e2eSum {
		t.Errorf("attribution total = %dns, summed e2e latency = %dns (off by %d)", got, e2eSum, got-e2eSum)
	}

	// Tenant decompositions are exact too, and they partition the run total.
	var tenantSum int64
	for _, tr := range rep.Tenants {
		ta := tr.Stats.Attribution
		if ta == nil {
			t.Fatalf("tenant %s has no attribution", tr.Name)
		}
		tenantSum += ta.All.TotalNS()
		if ta.TailCount <= 0 || ta.TailCount > tr.Stats.Completed {
			t.Errorf("tenant %s tail count %d out of range", tr.Name, ta.TailCount)
		}
		if ta.All.QueueNS < 0 || ta.All.QuotaNS < 0 || ta.All.ComputeNS <= 0 {
			t.Errorf("tenant %s components implausible: %+v", tr.Name, ta.All)
		}
	}
	if tenantSum != at.All.TotalNS() {
		t.Errorf("tenant attributions sum to %dns, run total is %dns", tenantSum, at.All.TotalNS())
	}
	if at.TailCount <= 0 || at.Tail.TotalNS() > at.All.TotalNS() {
		t.Errorf("tail slice inconsistent: %+v", at)
	}
}

// TestServeFlightRecorder: an enabled recorder leaves a final snapshot whose
// ring tells the request lifecycle story, and an unmeetable SLO triggers an
// slo-breach snapshot within the trigger budget.
func TestServeFlightRecorder(t *testing.T) {
	b := testServeBench(t)
	cfg := twoTenants(b, 4000, 10)
	cfg.Tenants[0].SLONS = 1 // unmeetable: every completion breaches
	cfg.Flight = obsv.FlightConfig{Events: 64, MaxSnapshots: 2}
	rep, err := Run(b.backend(core.DefaultConfig(b.plat)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	kinds := map[string]bool{}
	for _, snap := range rep.Flights {
		reasons = append(reasons, snap.Reason)
		for _, ev := range snap.Events {
			kinds[ev.Kind] = true
		}
	}
	if len(reasons) == 0 {
		t.Fatal("no flight snapshots in the report")
	}
	if reasons[len(reasons)-1] != "final" {
		t.Errorf("last snapshot reason %q, want final", reasons[len(reasons)-1])
	}
	found := false
	for _, r := range reasons {
		if r == obsv.FlightSLOBreach {
			found = true
		}
	}
	if !found {
		t.Errorf("1ns SLO produced no slo-breach snapshot: %v", reasons)
	}
	for _, want := range []string{obsv.FlightAdmit, obsv.FlightDispatch, obsv.FlightComplete, obsv.FlightSLOBreach} {
		if !kinds[want] {
			t.Errorf("flight rings never recorded %q", want)
		}
	}
	// Disabled recording leaves the report clean.
	cfg.Flight = obsv.FlightConfig{}
	rep2, err := Run(b.backend(core.DefaultConfig(b.plat)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Flights != nil {
		t.Errorf("disabled flight recorder still produced snapshots: %d", len(rep2.Flights))
	}
}

// TestClusterPrometheusAttribution: the registry exposes the attribution
// families under cluster serving, with tenant label values escaped per the
// Prometheus text exposition rules.
func TestClusterPrometheusAttribution(t *testing.T) {
	b := testServeBench(t)
	cfg := ClusterConfig{Config: twoTenants(b, 4000, 15)}
	cfg.Tenants[1].Name = `be"ta\x` + "\n"
	cfg.Registry = obsv.NewRegistry()
	if _, err := RunCluster(b.clusterBackend(2, core.DefaultConfig(b.plat)), cfg); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	cfg.Registry.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`dynn_serve_attribution_seconds_total{run="serve",component="queue"}`,
		`dynn_serve_attribution_seconds_total{run="serve",component="compute"}`,
		`dynn_serve_tail_attribution_seconds_total{run="serve",component="exposed"}`,
		`dynn_serve_tail_requests_total{run="serve"}`,
		`dynn_serve_attribution_seconds_total{run="serve/alpha",tenant="alpha",component="batch"}`,
		`tenant="be\"ta\\x\n"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The exposed families themselves obey the sum invariant: per tenant, the
	// ten component samples of attribution_seconds_total are emitted (one per
	// taxonomy name).
	if got := strings.Count(out, `dynn_serve_attribution_seconds_total{run="serve/alpha"`); got != 10 {
		t.Errorf("alpha attribution family has %d samples, want 10", got)
	}
}

// TestClusterObservabilityDeterminism is the PR's acceptance property: with
// causal tracing, SLO attribution, and the flight recorder all enabled, a
// cluster serve replay with identical (seed, config) produces bit-identical
// reports (attribution and flight-recorder contents included) and
// bit-identical request-stamped traces at 1, 2, 4, and 8 workers, fault-free
// and under deterministic fault injection.
func TestClusterObservabilityDeterminism(t *testing.T) {
	b := testServeBench(t)
	for _, fc := range []faults.Config{{}, {Seed: 41, Rate: 0.25}} {
		type outcome struct {
			rep   *ClusterReport
			trace string
		}
		run := func(workers int) outcome {
			ecfg := core.DefaultConfig(b.plat)
			if fc.Rate > 0 {
				ecfg.Faults = faults.New(fc)
			}
			cfg := ClusterConfig{
				Config:         twoTenants(b, 20000, 30),
				MinReplicas:    1,
				ScaleUpQueueNS: 1e5,
				ScaleWindow:    4,
			}
			cfg.Workers = workers
			cfg.Flight = obsv.FlightConfig{Events: 512}
			cfg.Tracer = obsv.NewTracer(obsv.WithAbsoluteTime())
			rep, err := RunCluster(b.clusterBackend(4, ecfg), cfg)
			if err != nil {
				t.Fatalf("rate=%v workers=%d: %v", fc.Rate, workers, err)
			}
			var sb strings.Builder
			for _, sp := range cfg.Tracer.Spans() {
				fmt.Fprintf(&sb, "%d %s %s %d %d %d %d %d %d %s %d\n",
					sp.Sample, sp.Kind, sp.Lane, sp.Block, sp.StartNS, sp.DurNS,
					sp.Bytes, sp.Attempt, sp.Request, sp.Tenant, sp.Replica)
			}
			return outcome{rep: rep, trace: sb.String()}
		}
		want := run(1)
		if len(want.rep.Flights) == 0 {
			t.Fatalf("rate=%v: no flight snapshots to compare", fc.Rate)
		}
		if want.rep.Total.Attribution == nil {
			t.Fatalf("rate=%v: no attribution to compare", fc.Rate)
		}
		if !strings.Contains(want.trace, " alpha ") {
			t.Fatalf("rate=%v: trace is not request-stamped", fc.Rate)
		}
		if again := run(1); !reflect.DeepEqual(want.rep, again.rep) || want.trace != again.trace {
			t.Errorf("rate=%v: repeated run diverged", fc.Rate)
		}
		for _, workers := range []int{2, 4, 8} {
			got := run(workers)
			if !reflect.DeepEqual(want.rep, got.rep) {
				t.Errorf("rate=%v workers=%d: report diverged:\nwant %+v\ngot  %+v", fc.Rate, workers, want.rep, got.rep)
			}
			if want.trace != got.trace {
				t.Errorf("rate=%v workers=%d: trace diverged", fc.Rate, workers)
			}
		}
	}
}

// TestSerialTraceEnvelopesWithinLatency: under the serial-equivalent tracer
// layout each sample starts at its own origin, so its envelope (queue wait
// plus engine spans) can never outlast the request's end-to-end latency. The
// dispatch time must not leak into the sample's offsets at any replica count.
func TestSerialTraceEnvelopesWithinLatency(t *testing.T) {
	b := testServeBench(t)
	for _, replicas := range []int{1, 2} {
		cfg := ClusterConfig{Config: twoTenants(b, 4000, 15)}
		cfg.Tracer = obsv.NewTracer()
		rep, err := RunCluster(b.clusterBackend(replicas, core.DefaultConfig(b.plat)), cfg)
		if err != nil {
			t.Fatalf("replicas=%d: %v", replicas, err)
		}
		if rep.Total.Attribution == nil {
			t.Fatalf("replicas=%d: nothing completed", replicas)
		}
		// Attribution sums exactly to the e2e latencies.
		e2eSum := rep.Total.Attribution.All.TotalNS()
		var envSum int64
		var samples int
		for _, sp := range cfg.Tracer.Spans() {
			if sp.Kind == obsv.SpanSample {
				envSum += sp.DurNS
				samples++
			}
		}
		if samples != int(rep.Total.Completed) {
			t.Fatalf("replicas=%d: %d sample envelopes for %d completions", replicas, samples, rep.Total.Completed)
		}
		if envSum > e2eSum {
			t.Errorf("replicas=%d: sample envelopes sum to %dns, above the %dns e2e latency sum",
				replicas, envSum, e2eSum)
		}
	}
}
