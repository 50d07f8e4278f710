package main

import (
	"bufio"
	"bytes"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"

	d "dynnoffload"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/online"
)

// spans records the CPU time of the benchmark's own calls into each layer, in
// memory, by layer name.
type spans struct {
	byName map[string][]int64
	order  []string
}

func newSpans() *spans { return &spans{byName: map[string][]int64{}} }

// time runs f as one span of the named layer.
func (s *spans) time(name string, f func() error) error {
	cpu0 := cpuNS()
	err := f()
	if _, ok := s.byName[name]; !ok {
		s.order = append(s.order, name)
	}
	s.byName[name] = append(s.byName[name], cpuNS()-cpu0)
	return err
}

// medianS is the median span of a layer in seconds (0 when never recorded).
func (s *spans) medianS(name string) float64 {
	return median(nsToFloat(s.byName[name])) / 1e9
}

func nsToFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

// timeCall runs one end-to-end call after a collection, recording its wall
// time, the process CPU time it used and the bytes it allocated.
func timeCall(f func() error) (outcome, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuNS()
	sw := obsv.StartTimer()
	err := f()
	wall := sw.ElapsedNS()
	cpu := cpuNS() - cpu0
	runtime.ReadMemStats(&after)
	return outcome{wallNS: wall, cpuNS: cpu, allocB: after.TotalAlloc - before.TotalAlloc}, err
}

// cpuNS is the CPU time the process has used, user plus system, across all
// its threads. Unlike wall time it leaves out time the host gave to other
// tenants, which on a shared machine moves wall time by 10-40% from minute
// to minute.
func cpuNS() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// refNode is one element of the reference kernel's list.
type refNode struct {
	key  int
	val  float64
	next *refNode
}

// refSink keeps the reference kernel's result live.
var refSink float64

// refKernel is fixed work in the benchmark's own code, run after every
// untraced call: small allocations, map inserts and lookups, a sort and a
// pointer walk, the kind of work the serve loop and the learner spend their
// host time on. Other tenants' load slows it much as it slows the call next
// to it, so a call's CPU time divided by the kernel's is far steadier than
// either (README.md, Host throughput). It starts after a collection and runs
// with the collector off: its ~25 MB of garbage is freed by the next call's
// collection, and collector cycles, whose CPU cost depends on when they
// start, stay out of its time. It returns the kernel's CPU ns.
func refKernel() int64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpu0 := cpuNS()
	for round := 0; round < 12; round++ {
		m := make(map[int]*refNode)
		var head *refNode
		for i := 0; i < 20000; i++ {
			n := &refNode{key: (i * 7919) % 20011, val: float64(i), next: head}
			head = n
			m[n.key] = n
		}
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for n := head; n != nil; n = n.next {
			refSink += m[keys[n.key%len(keys)]].val
		}
	}
	return cpuNS() - cpu0
}

// promSnapshot is a scraped Prometheus exposition, keyed by the series name
// with its labels exactly as the registry prints them.
type promSnapshot map[string]float64

func scrape(reg *d.MetricsRegistry) promSnapshot {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := promSnapshot{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sample is one series' value. The exposition prints six significant
// digits, so counts are exact below 10^6.
func (p promSnapshot) sample(series string) float64 { return p[series] }

// phaseNS is the serve loop's summed phase time in ns; the exposition prints
// seconds to six significant digits.
func (p promSnapshot) phaseNS(phase string) int64 {
	return int64(p.sample(`dynn_phase_seconds_sum{run="serve",phase="`+phase+`"}`) * 1e9)
}

// probeTargetNS is how long each probe loop runs at least, far above the
// timer's resolution.
const probeTargetNS = 50_000_000

// probeLoop doubles the batch of calls until one timed batch lasts
// probeTargetNS, and returns the calls in that batch and wall ns per call.
func probeLoop(body func(n int) error) (int64, float64, error) {
	for n := 16; ; n *= 2 {
		sw := obsv.StartTimer()
		if err := body(n); err != nil {
			return 0, 0, err
		}
		if ns := sw.ElapsedNS(); ns >= probeTargetNS || n >= 1<<26 {
			return int64(n), float64(ns) / float64(n), nil
		}
	}
}

// needBytes is a request's reservation size, as the serve loop computes it:
// the path's peak resident bytes, capped at half the device.
func needBytes(ex *d.PilotExample, gpuMem int64) int64 {
	need := int64(1)
	if info := ex.Ctx.PathByKey(ex.TruthKey); info != nil {
		need = info.Analysis.PeakResidentBytes()
	}
	if half := gpuMem / 2; need > half {
		need = half
	}
	return need
}

// probeReserve times Allocator.Reserve+Free on the workload's request sizes
// against a ledger with the workload's quotas: accepted reservations on an
// empty ledger, then reservations refused because the first tenant already
// holds its quota (or the device, when uncapped).
func probeReserve(exs []*d.PilotExample, tenants []d.ServeTenant, gpuMem int64) (okCalls int64, okNS float64, badCalls int64, badNS float64) {
	ledger := gpusim.NewAllocator(gpuMem)
	for _, tc := range tenants {
		ledger.SetQuota(tc.Name, tc.QuotaBytes)
	}
	owner := tenants[0].Name
	sizes := make([]int64, len(exs))
	for i, ex := range exs {
		sizes[i] = needBytes(ex, gpuMem)
	}
	okCalls, okNS, _ = probeLoop(func(n int) error {
		for i := 0; i < n; i++ {
			id := int64(i)
			if ledger.Reserve(owner, id, sizes[i%len(sizes)]) == nil {
				ledger.Free(id)
			}
		}
		return nil
	})

	// Fill the owner's allowance with the smallest request size, so every
	// probe size is refused.
	smallest := sizes[0]
	for _, s := range sizes {
		if s < smallest {
			smallest = s
		}
	}
	var held []int64
	for id := int64(1 << 40); ledger.Reserve(owner, id, smallest) == nil; id++ {
		held = append(held, id)
	}
	badCalls, badNS, _ = probeLoop(func(n int) error {
		for i := 0; i < n; i++ {
			id := int64(i)
			if ledger.Reserve(owner, id, sizes[i%len(sizes)]) == nil {
				ledger.Free(id)
			}
		}
		return nil
	})
	for _, id := range held {
		ledger.Free(id)
	}
	return okCalls, okNS, badCalls, badNS
}

// probeRetrain times online.Learner.Observe at TrainingInterval 1, so every
// timed call pays a retrain, on the workload's own pool. The pilot has the
// workload's architecture; its weights do not change the cost of Refine, so
// it is trained for a single epoch. It returns retrains made and wall ns per
// retrain.
func probeRetrain(exs []*d.PilotExample, cfg d.OnlineConfig, tenants int) (int64, float64, error) {
	pc := pilotConfig()
	pc.Epochs = 1
	p := d.NewPilot(pc)
	p.Train(exs)
	cfg.Enabled = true
	cfg.TrainingInterval = 1
	l, err := online.New(cfg, p, tenants)
	if err != nil {
		return 0, 0, err
	}
	observe := func(i int) error {
		_, err := l.Observe(i%tenants, exs[i%len(exs)], i%3 == 0)
		return err
	}
	// Fill the replay rings and warm every tenant's adapter, so each timed
	// retrain samples a full minibatch.
	for i := 0; i < 32*tenants; i++ {
		if err := observe(i); err != nil {
			return 0, 0, err
		}
	}
	var retrains, calls int64
	var nsPerCall float64
	calls, nsPerCall, err = probeLoop(func(n int) error {
		before := l.Stats().Retrains
		for i := 0; i < n; i++ {
			if err := observe(i); err != nil {
				return err
			}
		}
		retrains = l.Stats().Retrains - before
		return nil
	})
	if err != nil || retrains == 0 {
		return 0, 0, err
	}
	return retrains, nsPerCall * float64(calls) / float64(retrains), nil
}

// median of values (0 when empty).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

func frac(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func perOp(total float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}
