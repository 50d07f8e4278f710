package serve

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"dynnoffload/internal/core"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/mathx"
	"dynnoffload/internal/pilot"
)

// refSelectBatch is the sort-and-scan batch selection the queue index
// replaced, kept as its oracle: stable-sort the whole queue into dispatch
// order, then probe Reserve on every same-context request while the batch
// has room, stamping each refused candidate's quota wait.
func refSelectBatch(queued []*request, now, starveAge int64, maxBatch int, ledger *gpusim.Allocator, tenants []TenantConfig) (batch, rest []*request) {
	q := queued
	sort.SliceStable(q, func(i, j int) bool {
		a, b := q[i], q[j]
		as, bs := now-a.arrivalNS > starveAge, now-b.arrivalNS > starveAge
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
	})

	rest = queued[:0]
	for _, r := range q {
		if len(batch) < maxBatch && (len(batch) == 0 || r.ex.Ctx == batch[0].ex.Ctx) {
			if ledger.Reserve(tenants[r.tenant].Name, r.id, r.needBytes) == nil {
				if r.quotaSinceNS > 0 {
					r.quotaNS += now - r.quotaSinceNS
					r.quotaSinceNS = 0
				}
				batch = append(batch, r)
				continue
			}
			if r.quotaSinceNS == 0 {
				r.quotaSinceNS = now
			}
		}
		rest = append(rest, r)
	}
	return batch, rest
}

// order lists the queued requests in dispatch order at now by merging the
// lanes' FIFOs — correct only because each lane is in dispatch order.
func (q *queue) order(now int64) []*request {
	pos := make([]int, len(q.lanes))
	var out []*request
	for {
		var best *request
		bl := -1
		for i := range q.lanes {
			l := &q.lanes[i]
			for pos[i] < l.end && l.reqs[pos[i]] == nil {
				pos[i]++
			}
			if pos[i] < l.end && (best == nil || q.before(l.reqs[pos[i]], best, now)) {
				best, bl = l.reqs[pos[i]], i
			}
		}
		if best == nil {
			return out
		}
		out = append(out, best)
		pos[bl]++
	}
}

func requestIDs(rs []*request) []int64 {
	ids := make([]int64, len(rs))
	for i, r := range rs {
		ids[i] = r.id
	}
	return ids
}

// selectScenario is one seeded random serving queue: tenants with or
// without quotas and SLOs (sometimes sharing a ledger owner name), requests
// over several model contexts, starvation on or off, and a ledger that may
// start partly filled and fragmented by foreign blocks.
type selectScenario struct {
	tenants   []TenantConfig
	arrivals  []*request
	starveAge int64
	maxBatch  int
	capacity  int64
	foreign   [][3]int64 // id, size, owner index (-1: no owner)
}

func newSelectScenario(rng *mathx.RNG) selectScenario {
	sc := selectScenario{capacity: 1 << 20, maxBatch: 1 + rng.Intn(8), starveAge: math.MaxInt64}
	if rng.Intn(2) == 0 {
		sc.starveAge = int64(1 + rng.Intn(2000))
	}
	nt := 1 + rng.Intn(4)
	for t := 0; t < nt; t++ {
		tc := TenantConfig{Name: fmt.Sprintf("t%d", t)}
		if t > 0 && rng.Intn(6) == 0 {
			tc.Name = "t0" // shares t0's ledger owner and quota
		}
		if rng.Intn(3) > 0 {
			tc.QuotaBytes = sc.capacity / int64(1+rng.Intn(4))
		}
		if rng.Intn(4) > 0 {
			tc.SLONS = int64(1 + rng.Intn(3000))
		}
		sc.tenants = append(sc.tenants, tc)
	}
	ctxs := make([]*pilot.ModelContext, 1+rng.Intn(3))
	for i := range ctxs {
		ctxs[i] = &pilot.ModelContext{}
	}
	var id int64
	for t, tc := range sc.tenants {
		var clock int64
		for seq, n := 0, rng.Intn(40); seq < n; seq++ {
			clock += int64(1 + rng.Intn(150))
			id++
			need := sc.capacity / int64(2+rng.Intn(16))
			if quota := tc.QuotaBytes; quota > 0 && need > quota {
				need = quota // admission sheds anything larger
			}
			r := &request{
				tenant: t, seq: seq, id: id, arrivalNS: clock,
				deadlineNS: math.MaxInt64, needBytes: need,
				ex: &pilot.Example{Ctx: ctxs[rng.Intn(len(ctxs))]},
			}
			if tc.SLONS > 0 {
				r.deadlineNS = clock + tc.SLONS
			}
			sc.arrivals = append(sc.arrivals, r)
		}
	}
	sort.SliceStable(sc.arrivals, func(i, j int) bool {
		a, b := sc.arrivals[i], sc.arrivals[j]
		if a.arrivalNS != b.arrivalNS {
			return a.arrivalNS < b.arrivalNS
		}
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		return a.seq < b.seq
	})
	for i, n := 0, rng.Intn(4); i < n; i++ {
		sc.foreign = append(sc.foreign, [3]int64{-1 - int64(i), sc.capacity / int64(3+rng.Intn(6)), int64(rng.Intn(len(sc.tenants)+1)) - 1})
	}
	return sc
}

// ledger builds the scenario's reservation ledger: quotas set, foreign
// blocks placed and every other one freed again to fragment the space.
func (sc selectScenario) ledger() *gpusim.Allocator {
	a := gpusim.NewAllocator(sc.capacity)
	for _, tc := range sc.tenants {
		a.SetQuota(tc.Name, tc.QuotaBytes)
	}
	for _, f := range sc.foreign {
		owner := "foreign"
		if f[2] >= 0 {
			owner = sc.tenants[f[2]].Name
		}
		_ = a.Reserve(owner, f[0], f[1]) // a refused foreign block is simply absent
	}
	for i, f := range sc.foreign {
		if i%2 == 1 {
			a.Free(f[0])
		}
	}
	return a
}

// TestSelectBatchMatchesSortAndScan is the equivalence property of the
// queue index: over seeded random queues replayed dispatch by dispatch —
// admissions (some shed), pre-stamped quota waits, dispatches, releases —
// the index selects the same batch, leaves the same remainder in the same
// order (and the same front), and leaves the same quotaSinceNS/quotaNS on
// every request and the same ledger usage as the sort-and-scan oracle.
func TestSelectBatchMatchesSortAndScan(t *testing.T) {
	rng := mathx.NewRNG(2024)
	for trial := 0; trial < 400; trial++ {
		sc := newSelectScenario(rng)
		if len(sc.arrivals) == 0 {
			continue
		}
		// Two worlds over identical request copies.
		mirror := make(map[int64]*request, len(sc.arrivals))
		for _, r := range sc.arrivals {
			c := *r
			mirror[r.id] = &c
		}
		q := newQueue(sc.arrivals, sc.tenants, sc.starveAge, sc.maxBatch)
		refLedger, ledger := sc.ledger(), sc.ledger()
		var refQueued []*request
		next := 0
		now := sc.arrivals[0].arrivalNS
		for round := 0; round < 200 && (next < len(sc.arrivals) || q.n > 0); round++ {
			for next < len(sc.arrivals) && sc.arrivals[next].arrivalNS <= now {
				r := sc.arrivals[next]
				next++
				if rng.Intn(8) == 0 {
					continue // shed: never queued
				}
				if rng.Intn(5) == 0 {
					r.quotaSinceNS = 1 + int64(rng.Intn(int(now)))
					r.quotaNS = int64(rng.Intn(500))
					*mirror[r.id] = *r
				}
				q.push(r)
				refQueued = append(refQueued, mirror[r.id])
			}
			if q.n != len(refQueued) {
				t.Fatalf("trial %d round %d: %d queued, oracle %d", trial, round, q.n, len(refQueued))
			}
			var refBatch []*request
			refBatch, refQueued = refSelectBatch(refQueued, now, sc.starveAge, sc.maxBatch, refLedger, sc.tenants)
			batch := q.selectBatch(now, ledger)
			where := fmt.Sprintf("trial %d round %d (now %d, maxBatch %d, starve %d)", trial, round, now, sc.maxBatch, sc.starveAge)
			if got, want := requestIDs(batch), requestIDs(refBatch); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: batch %v, oracle %v", where, got, want)
			}
			if got, want := requestIDs(q.order(now)), requestIDs(refQueued); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: remainder %v, oracle %v", where, got, want)
			}
			if f := q.front(now); (f == nil) != (len(refQueued) == 0) || (f != nil && f.id != refQueued[0].id) {
				t.Fatalf("%s: front %v, oracle remainder %v", where, f, requestIDs(refQueued))
			}
			for _, r := range sc.arrivals {
				m := mirror[r.id]
				if r.quotaSinceNS != m.quotaSinceNS || r.quotaNS != m.quotaNS {
					t.Fatalf("%s: request %d quota wait (since %d, %d ns), oracle (since %d, %d ns)",
						where, r.id, r.quotaSinceNS, r.quotaNS, m.quotaSinceNS, m.quotaNS)
				}
			}
			if ledger.UsedBytes() != refLedger.UsedBytes() || ledger.HighWater() != refLedger.HighWater() {
				t.Fatalf("%s: ledger used %d (peak %d), oracle %d (peak %d)", where,
					ledger.UsedBytes(), ledger.HighWater(), refLedger.UsedBytes(), refLedger.HighWater())
			}
			for _, r := range batch {
				ledger.Free(r.id)
				refLedger.Free(r.id)
			}
			now += int64(1 + rng.Intn(400))
		}
	}
}

// TestMinTreeFirst checks the index's next-fit query against a linear scan.
func TestMinTreeFirst(t *testing.T) {
	rng := mathx.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		tree := newMinTree(n)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = math.MaxInt64
			if rng.Intn(3) > 0 {
				vals[i] = int64(rng.Intn(100))
				tree.set(i, vals[i])
			}
		}
		for k := 0; k < 20; k++ {
			from, bound := rng.Intn(n+2), int64(rng.Intn(110))
			want := len(tree) / 2
			for i := from; i < n; i++ {
				if vals[i] < bound {
					want = i
					break
				}
			}
			if got := tree.first(from, bound); got != want {
				t.Fatalf("n=%d first(%d, %d) = %d, want %d (vals %v)", n, from, bound, got, want, vals)
			}
		}
	}
}

// TestServeAllocsFlatInRequests pins that serving cost per request does not
// grow with queue depth: one saturated tenant whose whole stream queues at
// once, at 250 and 4000 requests, allocates within 1.5x per served request.
func TestServeAllocsFlatInRequests(t *testing.T) {
	b := testServeBench(t)
	perRequest := func(n int) float64 {
		backend := b.backend(core.DefaultConfig(b.plat))
		cfg := Config{Tenants: []TenantConfig{{
			Name: "sat", Requests: n, RatePerSec: 1e7, Seed: 3,
			QuotaBytes: b.plat.GPU.MemBytes / 2, MaxQueue: n,
		}}, Workers: 1}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Run(backend, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if int(rep.Total.Completed) != n {
			t.Fatalf("completed %d of %d", rep.Total.Completed, n)
		}
		return float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	small, large := perRequest(250), perRequest(4000)
	t.Logf("allocations per served request: %.1f at 250, %.1f at 4000", small, large)
	if large > 1.5*small {
		t.Errorf("allocations per request grow with queue depth: %.1f at 250, %.1f at 4000", small, large)
	}
}
