package serve

import (
	"errors"
	"fmt"
	"math"

	"dynnoffload/internal/core"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/online"
	"dynnoffload/internal/pilot"
)

// DefaultScaleWindow is the dispatch-wait window the elastic scaler averages
// over when ClusterConfig.ScaleWindow is zero.
const DefaultScaleWindow = 16

// ClusterConfig extends the serving config with replica placement and
// elastic scaling.
type ClusterConfig struct {
	Config
	// Replicas is the GPU replica count; 0 means one per backend engine.
	Replicas int
	// MinReplicas floors the active set when elastic scaling is on; <= 0
	// means 1. Ignored when ScaleUpQueueNS is zero (all replicas active).
	MinReplicas int
	// ScaleUpQueueNS turns on elastic scaling: starting from MinReplicas,
	// one more replica activates whenever the windowed mean queue wait of
	// dispatched requests exceeds this threshold. 0 keeps every replica
	// active for the whole run.
	ScaleUpQueueNS int64
	// ScaleWindow is how many recent dispatch waits the scaler averages;
	// <= 0 means DefaultScaleWindow.
	ScaleWindow int
	// ScaleDownIdleNS retires the highest-indexed active replica (beyond the
	// floor) once it has sat idle this long. 0 disables scale-down.
	ScaleDownIdleNS int64
}

// ClusterBackend is what the cluster scheduler runs requests against: one
// engine per GPU replica sharing a request pool.
type ClusterBackend struct {
	Engines []*core.Engine
	// Pool is the request population, shared by all replicas.
	Pool []*pilot.Example
	// GPUMemBytes sizes each replica's reservation ledger; 0 takes the
	// engine platform's device memory.
	GPUMemBytes int64
}

// Placement records where a tenant is homed and how its completions landed.
// Homes are assigned round-robin by tenant index; the scheduler prefers a
// request's home replica when several replicas are free, so quota-heavy
// tenants mostly stay on their own ledger.
type Placement struct {
	Tenant string
	Home   int
	// Requests is the tenant's completed request count.
	Requests int64
	// HomeServed is how many of those completed on the home replica.
	HomeServed int64
}

// ReplicaStats summarizes one replica's share of the run.
type ReplicaStats struct {
	Replica    int
	Dispatches int64
	Completed  int64
	BusyNS     int64
	// Util is BusyNS over the cluster makespan.
	Util float64
}

// ScaleEvent is one elastic-scaling transition.
type ScaleEvent struct {
	AtNS   int64
	Active int
	Reason string // "scale-up" or "scale-down"
}

// ClusterReport extends the serving report with placement, per-replica, and
// scaling outcomes. Total/Tenants aggregate across every replica.
type ClusterReport struct {
	Report
	Placements  []Placement
	Replicas    []ReplicaStats
	ScaleEvents []ScaleEvent
	// PeakActive is the largest concurrently active replica count.
	PeakActive int
}

// RunCluster plays cfg's request streams against a pool of GPU replicas on
// one simulated clock. The loop is serial and deterministic: arrivals admit
// through per-tenant gates into one shared queue; each dispatch picks a
// replica — the queue front's home if it is free, otherwise the earliest-free
// (fewest-dispatches, lowest-index) active replica — forms a continuous batch
// against that replica's own reservation ledger, and occupies the replica for
// the batch's simulated service time. Replicas overlap in virtual time; the
// event loop itself never races. With ScaleUpQueueNS set, the active set
// grows from MinReplicas under sustained queue-delay pressure and shrinks on
// idleness.
func RunCluster(b *ClusterBackend, cfg ClusterConfig) (*ClusterReport, error) {
	if len(cfg.Tenants) == 0 {
		return nil, ErrNoTenants
	}
	if b == nil || len(b.Engines) == 0 || len(b.Pool) == 0 {
		return nil, errors.New("serve: cluster backend needs engines and a non-empty pool")
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = len(b.Engines)
	}
	if replicas != len(b.Engines) {
		return nil, fmt.Errorf("serve: %d engines for %d replicas", len(b.Engines), replicas)
	}
	for i, e := range b.Engines {
		if e == nil {
			return nil, fmt.Errorf("serve: cluster engine %d is nil", i)
		}
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	starveAge := cfg.StarvationAgeNS
	if starveAge == 0 {
		var maxSLO int64
		for _, tc := range cfg.Tenants {
			if tc.SLONS > maxSLO {
				maxSLO = tc.SLONS
			}
		}
		starveAge = 4 * maxSLO
	}
	if starveAge <= 0 {
		starveAge = math.MaxInt64
	}

	// Per-replica ledgers; admission caps requests at the smallest replica,
	// so an admitted request is schedulable anywhere.
	ledgers := make([]*gpusim.Allocator, replicas)
	minMem := int64(math.MaxInt64)
	for r, e := range b.Engines {
		mem := b.GPUMemBytes
		if mem <= 0 {
			mem = e.Cfg.Platform.GPU.MemBytes
		}
		if mem < minMem {
			minMem = mem
		}
		ledgers[r] = gpusim.NewAllocator(mem)
		for _, tc := range cfg.Tenants {
			ledgers[r].SetQuota(tc.Name, tc.QuotaBytes)
		}
	}

	arrivals, err := generate(cfg.Config, b.Pool, minMem)
	if err != nil {
		return nil, err
	}

	rec := obsv.NewRecorder("serve", cfg.Workers, nil)
	cfg.Registry.Register(rec)
	tenantRecs := make([]*obsv.Recorder, len(cfg.Tenants))
	for t, tc := range cfg.Tenants {
		tenantRecs[t] = obsv.NewRecorder("serve/"+tc.Name, cfg.Workers, nil)
		cfg.Registry.Register(tenantRecs[t])
	}

	minActive := 1
	if cfg.MinReplicas > 0 {
		minActive = cfg.MinReplicas
	}
	if minActive > replicas {
		minActive = replicas
	}
	scaleWindow := cfg.ScaleWindow
	if scaleWindow <= 0 {
		scaleWindow = DefaultScaleWindow
	}

	var learner *online.Learner
	if cfg.Online.Enabled {
		// The replicas share one pilot (the facade hands every engine the
		// same trained instance), so the learner adapts one shared clone and
		// every replica's dispatches resolve through it.
		learner, err = online.New(cfg.Online, b.Engines[0].Pilot, len(cfg.Tenants))
		if err != nil {
			return nil, err
		}
	}

	flights := make([]*obsv.FlightRecorder, replicas)
	for r := range flights {
		flights[r] = obsv.NewFlightRecorder(r, cfg.Flight)
	}
	s := &loop{
		cfg: cfg, backend: b, ledgers: ledgers,
		q:   newQueue(arrivals, cfg.Tenants, starveAge, maxBatch),
		rec: rec, tenantRecs: tenantRecs,
		acc:         make([]tenantAcc, len(cfg.Tenants)),
		homes:       make([]int, len(cfg.Tenants)),
		free:        make([]int64, replicas),
		dispatches:  make([]int64, replicas),
		completed:   make([]int64, replicas),
		busyNS:      make([]int64, replicas),
		homeServed:  make([]int64, len(cfg.Tenants)),
		flights:     flights,
		active:      replicas,
		minActive:   minActive,
		scaleWindow: scaleWindow,
		learner:     learner,
	}
	if cfg.ScaleUpQueueNS > 0 {
		s.active = minActive
	}
	s.peakActive = s.active
	for t := range s.acc {
		mq := cfg.Tenants[t].MaxQueue
		if mq <= 0 {
			mq = DefaultMaxQueue
		}
		s.acc[t].maxQueue = mq
		s.homes[t] = t % replicas
	}
	if err := s.run(arrivals); err != nil {
		return nil, wrapFlightError(err, s.flights)
	}
	return s.report(), nil
}

// loop is the serving event loop's state.
type loop struct {
	cfg        ClusterConfig
	backend    *ClusterBackend
	ledgers    []*gpusim.Allocator
	q          *queue
	rec        *obsv.Recorder
	tenantRecs []*obsv.Recorder

	now     int64
	acc     []tenantAcc
	batches int64
	slots   int // next dispatch-order trace/recorder slot
	scratch dispatchScratch
	// front is the request the queue held first: first in dispatch order at
	// the last dispatch, else the earliest admitted since. Its tenant's home
	// replica is preferred for the next batch.
	front *request

	homes      []int   // tenant -> home replica
	free       []int64 // replica busy-until
	dispatches []int64
	completed  []int64
	busyNS     []int64
	homeServed []int64
	flights    []*obsv.FlightRecorder // per replica; nil entries when disabled
	makespanNS int64

	active      int
	minActive   int
	peakActive  int
	scaleWindow int
	waits       []int64 // recent dispatch queue waits (scale-up signal)
	events      []ScaleEvent

	// learner is the online feedback loop; nil when Config.Online is off.
	learner *online.Learner
	// retrainNS is the cumulative retrain stall charged to the host
	// timeline (see request.retrainMarkNS).
	retrainNS int64
}

// run consumes the sorted arrival stream.
func (s *loop) run(arrivals []*request) error {
	next := 0
	for next < len(arrivals) || s.q.n > 0 {
		if s.q.n == 0 {
			if s.now < arrivals[next].arrivalNS {
				s.now = arrivals[next].arrivalNS
			}
		}
		for next < len(arrivals) && arrivals[next].arrivalNS <= s.now {
			s.admit(arrivals[next])
			next++
		}
		if s.q.n == 0 {
			continue
		}
		s.scaleDown()
		r := s.pickReplica()
		if s.free[r] > s.now {
			// Every active replica is busy: advance to whichever comes
			// first — the next arrival (more admissions, maybe a scale-up)
			// or the earliest replica release.
			t := s.free[r]
			if next < len(arrivals) && arrivals[next].arrivalNS < t {
				t = arrivals[next].arrivalNS
			}
			s.now = t
			continue
		}
		if err := s.dispatch(r); err != nil {
			return err
		}
	}
	return nil
}

// admit applies the two admission gates: a request that can never fit its
// tenant's quota (or the smallest replica) is shed immediately; a request
// arriving at a full tenant queue is shed as backpressure.
func (s *loop) admit(r *request) {
	a := &s.acc[r.tenant]
	a.arrivals++
	name := s.cfg.Tenants[r.tenant].Name
	// Admission happens before placement, so its events land on the tenant's
	// home replica recorder — the replica most likely to serve the request.
	flight := s.flights[s.homes[r.tenant]]
	quota := s.cfg.Tenants[r.tenant].QuotaBytes
	if (quota > 0 && r.needBytes > quota) || r.needBytes > s.ledgers[0].Capacity {
		a.quotaShed++
		recordAdmission(flight, obsv.FlightQuotaShed, r, name)
		return
	}
	if a.inQueue >= a.maxQueue {
		a.shed++
		recordAdmission(flight, obsv.FlightShed, r, name)
		return
	}
	a.inQueue++
	r.retrainMarkNS = s.retrainNS
	s.q.push(r)
	if s.front == nil {
		s.front = r
	}
	recordAdmission(flight, obsv.FlightAdmit, r, name)
}

// pickReplica chooses where the next batch runs: among replicas free now,
// the queue front's home replica if it is one of them, else the one with
// the fewest dispatches (lowest index on ties). If none is free it returns
// the earliest-free active replica so the caller can advance the clock.
func (s *loop) pickReplica() int {
	earliest := 0
	for r := 1; r < s.active; r++ {
		if s.free[r] < s.free[earliest] {
			earliest = r
		}
	}
	if s.free[earliest] > s.now {
		return earliest
	}
	if home := s.homes[s.front.tenant]; home < s.active && s.free[home] <= s.now {
		return home
	}
	pick := -1
	for r := 0; r < s.active; r++ {
		if s.free[r] > s.now {
			continue
		}
		if pick < 0 || s.dispatches[r] < s.dispatches[pick] {
			pick = r
		}
	}
	return pick
}

// dispatch forms one continuous batch against replica r's ledger and
// occupies the replica for its service time.
func (s *loop) dispatch(r int) error {
	batch := s.q.selectBatch(s.now, s.ledgers[r])
	if len(batch) == 0 {
		// Unreachable: admission caps needBytes at the smallest replica and
		// r's ledger is empty between its batches — but fail loudly.
		return fmt.Errorf("serve: no request schedulable at t=%dns with %d queued", s.now, s.q.n)
	}
	s.front = s.q.front(s.now)

	// Slot base+i is the batch's i-th request, for both the tracer sample
	// index and ObserveSample.
	base := s.slots
	s.slots += len(batch)
	// Only a shared-clock tracer places spans at the dispatch time; the
	// serial layout lays each sample from its own origin.
	var clockBase int64
	if s.cfg.Tracer.AbsoluteTime() {
		clockBase = s.now
	}
	eng := s.backend.Engines[r]
	results, err := eng.RunBatch(s.scratch.examples(batch), core.EpochOptions{
		Workers:     s.cfg.Workers,
		Recorder:    s.rec,
		Tracer:      s.cfg.Tracer,
		TraceBase:   base,
		ClockBaseNS: clockBase,
		Pilots:      s.scratch.pilotsFor(batch, s.learner),
	})
	for _, req := range batch {
		s.ledgers[r].Free(req.id)
	}
	if err != nil {
		recordBatchError(s.flights[r], s.now, err)
		return fmt.Errorf("serve: replica %d batch at t=%dns: %w", r, s.now, err)
	}

	serviceNS := s.scratch.serviceTime(eng, batch, results)
	done := s.now + serviceNS
	s.free[r] = done
	s.batches++
	s.dispatches[r]++
	s.busyNS[r] += serviceNS
	if done > s.makespanNS {
		s.makespanNS = done
	}
	s.rec.ObservePhase(PhaseService, serviceNS)
	recordDispatch(s.flights[r], s.now, len(batch), serviceNS)

	for i, req := range batch {
		a := &s.acc[req.tenant]
		a.inQueue--
		name := s.cfg.Tenants[req.tenant].Name
		waitNS := s.now - req.arrivalNS
		e2e := done - req.arrivalNS
		a.complete(e2e, waitNS, req.deadlineNS < done,
			attribution(waitNS, req.quotaNS, s.retrainNS-req.retrainMarkNS, serviceNS, results[i].Breakdown))
		s.completed[r]++
		if s.homes[req.tenant] == r {
			s.homeServed[req.tenant]++
		}
		tr := s.tenantRecs[req.tenant]
		tr.ObservePhase(PhaseQueue, waitNS)
		tr.ObservePhase(PhaseE2E, e2e)
		tr.ObserveSample(req.seq, results[i].Mispredicted, results[i].CacheHit, e2e)
		annotateRequestTrace(s.cfg.Tracer, base+i, req, name, r, waitNS)
		recordCompletion(s.flights[r], done, req, name, e2e, results[i].FaultCounters)
		s.observeWait(waitNS)
	}
	if err := s.learn(batch, results); err != nil {
		return err
	}
	s.scaleUp()
	return nil
}

// learn feeds the just-dispatched batch's outcomes to the online learner in
// batch order (the run's deterministic serial order) and charges any retrain
// stall to the host timeline: the clock advances past the stall, so no new
// batch dispatches until the refit finishes, while the in-flight batch keeps
// computing on its replica. Every request still queued is credited the stall
// in its pilot_retrain attribution component through the cumulative stall its
// admission mark is measured against. (Requests arriving mid-stall see it as
// queue time — the decomposition stays exact either way.) No-op without a
// learner.
func (s *loop) learn(batch []*request, results []core.SampleResult) error {
	if s.learner == nil {
		return nil
	}
	var stallNS int64
	for i, req := range batch {
		ns, err := s.learner.Observe(req.tenant, req.ex, results[i].Mispredicted)
		if err != nil {
			return fmt.Errorf("serve: online retrain at t=%dns: %w", s.now, err)
		}
		stallNS += ns
	}
	s.now += stallNS
	s.retrainNS += stallNS
	return nil
}

// observeWait feeds the elastic scaler's dispatch-wait window.
func (s *loop) observeWait(waitNS int64) {
	if s.cfg.ScaleUpQueueNS <= 0 {
		return
	}
	s.waits = append(s.waits, waitNS)
	if len(s.waits) > s.scaleWindow {
		s.waits = s.waits[len(s.waits)-s.scaleWindow:]
	}
}

// scaleUp activates one more replica when the windowed mean queue wait shows
// sustained pressure. The window resets on activation, so one burst can't
// cascade straight to full width.
func (s *loop) scaleUp() {
	if s.cfg.ScaleUpQueueNS <= 0 || s.active >= len(s.free) || len(s.waits) < s.scaleWindow {
		return
	}
	var sum int64
	for _, w := range s.waits {
		sum += w
	}
	if sum/int64(len(s.waits)) <= s.cfg.ScaleUpQueueNS {
		return
	}
	// A newly activated replica is free from now on — not from virtual 0.
	s.free[s.active] = s.now
	s.active++
	if s.active > s.peakActive {
		s.peakActive = s.active
	}
	s.waits = s.waits[:0]
	s.events = append(s.events, ScaleEvent{AtNS: s.now, Active: s.active, Reason: "scale-up"})
	// The transition lands on the newly activated replica's recording.
	s.flights[s.active-1].Record(obsv.FlightEvent{
		AtNS: s.now, Kind: obsv.FlightScaleUp, N: s.active,
	})
}

// scaleDown retires idle replicas beyond the floor, highest index first.
// Only a replica whose last batch finished ScaleDownIdleNS ago goes away,
// so nothing in flight is ever dropped.
func (s *loop) scaleDown() {
	if s.cfg.ScaleUpQueueNS <= 0 || s.cfg.ScaleDownIdleNS <= 0 {
		return
	}
	for s.active > s.minActive {
		r := s.active - 1
		if s.free[r] > s.now-s.cfg.ScaleDownIdleNS {
			return
		}
		s.active--
		s.events = append(s.events, ScaleEvent{AtNS: s.now, Active: s.active, Reason: "scale-down"})
		// The retired replica records its own retirement.
		s.flights[r].Record(obsv.FlightEvent{
			AtNS: s.now, Kind: obsv.FlightScaleDown, N: s.active,
		})
	}
}

// report assembles the cluster summary: the serving report plus placement,
// per-replica, and scaling views.
func (s *loop) report() *ClusterReport {
	rep := &ClusterReport{
		Report:      s.serveReport(),
		ScaleEvents: s.events,
		PeakActive:  s.peakActive,
	}
	for t, tc := range s.cfg.Tenants {
		rep.Placements = append(rep.Placements, Placement{
			Tenant: tc.Name, Home: s.homes[t],
			Requests: s.acc[t].completed, HomeServed: s.homeServed[t],
		})
	}
	for r := range s.free {
		st := ReplicaStats{
			Replica: r, Dispatches: s.dispatches[r],
			Completed: s.completed[r], BusyNS: s.busyNS[r],
		}
		if s.makespanNS > 0 {
			st.Util = float64(s.busyNS[r]) / float64(s.makespanNS)
		}
		rep.Replicas = append(rep.Replicas, st)
	}
	return rep
}
