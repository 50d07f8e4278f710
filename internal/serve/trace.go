package serve

import "dynnoffload/internal/obsv"

// annotateRequestTrace tags a dispatched request's engine trace (registered
// by RunBatch at the given slot) with its causal identity — request id,
// tenant, replica — and lays its queue-wait span. Nil-safe throughout: with
// tracing off it is a no-op.
//
// The queue span's placement depends on the tracer's clock layout:
//   - Absolute (WithAbsoluteTime): the engine spans already sit at the
//     dispatch time via ClockBaseNS, so the wait lands just before them,
//     starting at the request's arrival on the shared clock. Replicas
//     genuinely overlap on it.
//   - Serial-equivalent (the default): each sample's spans start at its own
//     t=0, so the engine spans shift past the wait and the queue span sits at
//     the origin (queue spans then always start at >= 0).
func annotateRequestTrace(tr *obsv.Tracer, slot int, r *request, tenant string, replica int, waitNS int64) {
	st := tr.At(slot)
	if st == nil {
		return
	}
	st.SetRequest(r.id, tenant)
	st.SetReplica(replica)
	if tr.AbsoluteTime() {
		st.Span(obsv.SpanQueue, obsv.LaneHost, -1, -waitNS, waitNS, 0)
		return
	}
	st.Shift(waitNS)
	st.Span(obsv.SpanQueue, obsv.LaneHost, -1, 0, waitNS, 0)
}
