package serve

import (
	"sort"

	"dynnoffload/internal/obsv"
)

// tenantAcc accumulates one tenant's serving outcomes. Latencies are kept
// whole so the report's quantiles are exact order statistics, not histogram
// bucket bounds — SLO attainment is the quantity under test.
type tenantAcc struct {
	maxQueue int
	inQueue  int

	arrivals   int64
	shed       int64
	quotaShed  int64
	completed  int64
	violations int64
	queueSumNS int64
	latencies  []int64 // e2e, in completion order
	// attribs holds each completed request's latency decomposition, aligned
	// with latencies (attribs[i].TotalNS() == latencies[i] exactly).
	attribs []obsv.AttributionComponents
}

func (a *tenantAcc) complete(e2eNS, waitNS int64, violated bool, comp obsv.AttributionComponents) {
	a.completed++
	a.queueSumNS += waitNS
	a.latencies = append(a.latencies, e2eNS)
	a.attribs = append(a.attribs, comp)
	if violated {
		a.violations++
	}
}

// foldAttribution folds per-request decompositions into a tenant- or run-level
// aggregate: every completion, plus the slice of requests whose latency
// reached the given exact p99 (the tail under explanation). Nil when nothing
// completed.
func foldAttribution(attribs []obsv.AttributionComponents, p99NS int64) *obsv.LatencyAttribution {
	if len(attribs) == 0 {
		return nil
	}
	at := &obsv.LatencyAttribution{}
	for _, c := range attribs {
		at.All.Add(c)
		if c.TotalNS() >= p99NS {
			at.Tail.Add(c)
			at.TailCount++
		}
	}
	return at
}

// exactQuantile returns the q-th order statistic of sorted (the smallest
// value v with at least ceil(q*n) observations <= v). Zero for empty input.
func exactQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(float64(n)*q+0.999999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// serveReport folds the per-tenant accumulators into the serving report,
// attaches the stats to the live recorders, and finalizes the flight
// recorders. Reservation high-waters are maxima across the replica ledgers.
func (s *loop) serveReport() Report {
	rep := Report{MakespanNS: s.makespanNS}
	for _, l := range s.ledgers {
		rep.DeviceHighWater = max(rep.DeviceHighWater, l.HighWater())
	}
	var allLat []int64
	var allAttribs []obsv.AttributionComponents
	var queueSum int64
	for t, tc := range s.cfg.Tenants {
		a := &s.acc[t]
		sorted := append([]int64(nil), a.latencies...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		st := reduce(a, sorted)
		st.Tenant = tc.Name
		st.SLONS = tc.SLONS
		st.QuotaBytes = tc.QuotaBytes
		for _, l := range s.ledgers {
			st.QuotaPeakBytes = max(st.QuotaPeakBytes, l.OwnerHighWater(tc.Name))
		}
		s.tenantRecs[t].SetServe(st)
		rep.Tenants = append(rep.Tenants, TenantReport{Name: tc.Name, Stats: st})
		allLat = append(allLat, a.latencies...)
		allAttribs = append(allAttribs, a.attribs...)
		queueSum += a.queueSumNS

		rep.Total.Arrivals += st.Arrivals
		rep.Total.Shed += st.Shed
		rep.Total.QuotaShed += st.QuotaShed
		rep.Total.Completed += st.Completed
		rep.Total.SLOViolations += st.SLOViolations
	}
	sort.Slice(allLat, func(i, j int) bool { return allLat[i] < allLat[j] })
	if n := int64(len(allLat)); n > 0 {
		var sum int64
		for _, v := range allLat {
			sum += v
		}
		rep.Total.MeanNS = sum / n
		rep.Total.QueueMeanNS = queueSum / n
		rep.Total.P50NS = exactQuantile(allLat, 0.50)
		rep.Total.P99NS = exactQuantile(allLat, 0.99)
		rep.Total.P999NS = exactQuantile(allLat, 0.999)
		rep.Total.MaxNS = allLat[n-1]
		rep.Total.Attribution = foldAttribution(allAttribs, rep.Total.P99NS)
	}
	rep.Total.Batches = s.batches
	rep.Total.QuotaPeakBytes = rep.DeviceHighWater
	rep.Total.Online = s.learner.Stats()
	if s.batches > 0 {
		rep.MeanBatchSize = float64(rep.Total.Completed) / float64(s.batches)
	}
	s.rec.SetServe(rep.Total)
	rep.Flights = collectFlights(s.flights, s.makespanNS)
	return rep
}

// reduce folds one tenant's counters and its sorted latency set into a
// ServeStats block.
func reduce(a *tenantAcc, sorted []int64) obsv.ServeStats {
	st := obsv.ServeStats{
		Arrivals: a.arrivals, Shed: a.shed, QuotaShed: a.quotaShed,
		Completed: a.completed, SLOViolations: a.violations,
	}
	if n := int64(len(sorted)); n > 0 {
		var sum int64
		for _, v := range sorted {
			sum += v
		}
		st.MeanNS = sum / n
		st.QueueMeanNS = a.queueSumNS / n
		st.P50NS = exactQuantile(sorted, 0.50)
		st.P99NS = exactQuantile(sorted, 0.99)
		st.P999NS = exactQuantile(sorted, 0.999)
		st.MaxNS = sorted[n-1]
		st.Attribution = foldAttribution(a.attribs, st.P99NS)
	}
	return st
}
