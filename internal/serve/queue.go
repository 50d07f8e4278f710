package serve

import (
	"errors"
	"math"

	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/pilot"
)

// queue is the admitted-but-unserved request index the serving loop
// dispatches from. Dispatch order (before) puts starving requests — queued
// longer than starveAge — first, oldest first, then the rest by earliest
// deadline, ties broken by arrival, tenant and per-tenant sequence.
//
// The index never sorts or scans the queue, so a dispatch costs the same
// however deep the queue is, provided requests come in few reservation sizes
// (see the refusal bound below):
//
//   - Within one tenant, dispatch order is arrival order: its deadlines are
//     arrival plus one SLO, and its starving requests are its oldest. So the
//     requests of one tenant for one model context (a lane) form a FIFO, and
//     dispatch order is a merge of the lanes.
//   - Within one dispatch, reservation refusals are monotone: the ledger
//     only fills. A quota refusal at size s refuses every later request of
//     that tenant of size >= s; a no-space refusal at size s (first-fit fails
//     exactly when s exceeds the largest free extent) refuses every later
//     request of size >= s. A min-tree over each lane's needBytes jumps to
//     the next request that can fit, so a dispatch reserves its batch and
//     probes at most one refusal per size bound it lowers.
//   - Each refusal strictly lowers one of tenants+1 bounds (one quota bound
//     per tenant, one device bound), and a bound only takes needBytes
//     values. So refusals per dispatch are at most distinct sizes ×
//     (tenants+1). Sizes are per pool truth path, capped at half the
//     device, so they are few. A stream with many distinct sizes that
//     shrink along dispatch order would probe about once per request.
//
// A request that was a candidate — the batch had room and its model context
// matched the anchor (first member) — and was refused starts its quota wait
// at that dispatch (quotaSinceNS). The candidates left unbatched are exactly
// the queued requests ordered before the batch's stop point (its last member
// when it filled, otherwise none) and, in lanes of another context, before
// the anchor. In each lane they run from its first unstamped request, so
// stamping visits only requests it stamps.
type queue struct {
	tenants   []TenantConfig
	starveAge int64
	maxBatch  int
	lanes     []lane
	// bound is the smallest size refused on each tenant's quota in the
	// current dispatch (MaxInt64 when none).
	bound []int64
	n     int // queued requests
	// batch is the dispatch buffer selectBatch fills, reused across
	// dispatches: the loop is done with a batch before the next one.
	batch []*request
}

// lane is one tenant's requests for one model context, in arrival order.
type lane struct {
	tenant int
	ctx    *pilot.ModelContext
	reqs   []*request // by slot; nil until admitted and once dispatched
	need   minTree    // queued requests' needBytes by slot
	end    int        // one past the last admitted slot
	// stamped: every queued request in reqs[:stamped] is quota-waiting.
	stamped int
	// next is the dispatch merge's cursor: no slot below it fits.
	next int
}

// newQueue lays out one lane slot per request of the arrival stream (sorted
// by arrival), so admission and dispatch never grow the index.
func newQueue(arrivals []*request, tenants []TenantConfig, starveAge int64, maxBatch int) *queue {
	q := &queue{tenants: tenants, starveAge: starveAge, maxBatch: maxBatch, bound: make([]int64, len(tenants))}
	type laneKey struct {
		tenant int
		ctx    *pilot.ModelContext
	}
	index := map[laneKey]int{}
	for _, r := range arrivals {
		k := laneKey{r.tenant, r.ex.Ctx}
		li, ok := index[k]
		if !ok {
			li = len(q.lanes)
			index[k] = li
			q.lanes = append(q.lanes, lane{tenant: r.tenant, ctx: r.ex.Ctx})
		}
		l := &q.lanes[li]
		r.lane, r.slot = li, len(l.reqs)
		l.reqs = append(l.reqs, nil)
	}
	for i := range q.lanes {
		q.lanes[i].need = newMinTree(len(q.lanes[i].reqs))
	}
	return q
}

// push queues an admitted request. Requests arrive in arrival order.
func (q *queue) push(r *request) {
	l := &q.lanes[r.lane]
	l.reqs[r.slot] = r
	l.need.set(r.slot, r.needBytes)
	l.end = r.slot + 1
	q.n++
}

// before reports whether a dispatches ahead of b at now.
func (q *queue) before(a, b *request, now int64) bool {
	as, bs := now-a.arrivalNS > q.starveAge, now-b.arrivalNS > q.starveAge
	if as != bs {
		return as
	}
	if as { // both starving: oldest first
		if a.arrivalNS != b.arrivalNS {
			return a.arrivalNS < b.arrivalNS
		}
	} else if a.deadlineNS != b.deadlineNS {
		return a.deadlineNS < b.deadlineNS
	}
	if a.arrivalNS != b.arrivalNS {
		return a.arrivalNS < b.arrivalNS
	}
	if a.tenant != b.tenant {
		return a.tenant < b.tenant
	}
	return a.seq < b.seq
}

// selectBatch forms one continuous batch at now: in dispatch order, each
// request whose memory reserves on ledger against its tenant quota joins and
// leaves the queue, up to maxBatch; after the anchor only requests of its
// model context qualify. Refused candidates start their quota wait. The
// caller owns the reservations and releases them with Free; ledger is the
// chosen replica's.
func (q *queue) selectBatch(now int64, ledger *gpusim.Allocator) []*request {
	batch := q.batch[:0]
	for t := range q.bound {
		q.bound[t] = math.MaxInt64
	}
	device := int64(math.MaxInt64) // smallest no-space refusal
	for i := range q.lanes {
		q.lanes[i].next = 0
	}
	var anchor *request
	for len(batch) < q.maxBatch {
		var r *request // first request in dispatch order that can fit
		for i := range q.lanes {
			l := &q.lanes[i]
			if anchor != nil && l.ctx != anchor.ex.Ctx {
				continue
			}
			l.next = l.need.first(l.next, min(q.bound[l.tenant], device))
			if l.next < l.end && (r == nil || q.before(l.reqs[l.next], r, now)) {
				r = l.reqs[l.next]
			}
		}
		if r == nil {
			break
		}
		if err := ledger.Reserve(q.tenants[r.tenant].Name, r.id, r.needBytes); err != nil {
			if errors.Is(err, gpusim.ErrAllocNoSpace) {
				device = r.needBytes
			} else {
				q.bound[r.tenant] = r.needBytes
			}
			continue
		}
		// Close out any quota-blocked stretch: the request waited on its
		// memory reservation from the first refusal until now.
		if r.quotaSinceNS > 0 {
			r.quotaNS += now - r.quotaSinceNS
			r.quotaSinceNS = 0
		}
		batch = append(batch, r)
		q.remove(r)
		if anchor == nil {
			anchor = r
		}
	}
	var stop *request
	if len(batch) == q.maxBatch {
		stop = batch[len(batch)-1]
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		if anchor != nil && l.ctx != anchor.ex.Ctx {
			q.stamp(l, now, anchor)
		} else {
			q.stamp(l, now, stop)
		}
	}
	q.batch = batch
	return batch
}

// remove drops a dispatched request from its lane.
func (q *queue) remove(r *request) {
	l := &q.lanes[r.lane]
	l.reqs[r.slot] = nil
	l.need.set(r.slot, math.MaxInt64)
	q.n--
}

// stamp starts the quota wait, at now, of every queued request in l ordered
// before limit (all of them when limit is nil) that is not already waiting.
func (q *queue) stamp(l *lane, now int64, limit *request) {
	for i := l.stamped; i < l.end; i++ {
		r := l.reqs[i]
		if r == nil {
			continue
		}
		if limit != nil && !q.before(r, limit, now) {
			break
		}
		if r.quotaSinceNS == 0 {
			r.quotaSinceNS = now
		}
	}
	for l.stamped < l.end && (l.reqs[l.stamped] == nil || l.reqs[l.stamped].quotaSinceNS != 0) {
		l.stamped++
	}
}

// front returns the queued request first in dispatch order at now, nil when
// the queue is empty.
func (q *queue) front(now int64) *request {
	var f *request
	for i := range q.lanes {
		l := &q.lanes[i]
		if j := l.need.first(0, math.MaxInt64); j < l.end && (f == nil || q.before(l.reqs[j], f, now)) {
			f = l.reqs[j]
		}
	}
	return f
}

// minTree is a segment tree of minima over a lane's slots: a queued
// request's needBytes, MaxInt64 for an empty slot (so needs must stay below
// MaxInt64). Leaves sit at len/2+slot; node k covers its children 2k, 2k+1.
type minTree []int64

func newMinTree(n int) minTree {
	size := 1
	for size < n {
		size <<= 1
	}
	t := make(minTree, 2*size)
	for i := range t {
		t[i] = math.MaxInt64
	}
	return t
}

func (t minTree) set(slot int, v int64) {
	k := len(t)/2 + slot
	t[k] = v
	for k >>= 1; k > 0; k >>= 1 {
		t[k] = min(t[2*k], t[2*k+1])
	}
}

// first returns the smallest slot >= from holding a value below bound, or
// len(t)/2 when there is none.
func (t minTree) first(from int, bound int64) int {
	size := len(t) / 2
	if from >= size {
		return size
	}
	k := size + from
	for t[k] >= bound {
		// Step right: climb while k is a right child, then take the
		// sibling covering the range just past k's.
		for k&1 == 1 {
			k >>= 1
		}
		if k == 0 {
			return size
		}
		k++
	}
	for k < size { // descend to the leftmost leaf below bound
		k <<= 1
		if t[k] >= bound {
			k++
		}
	}
	return k - size
}
