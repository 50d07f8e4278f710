package faults

import (
	"math"
	"testing"
)

func TestStreamDeterminism(t *testing.T) {
	inj := New(Config{Seed: 7, Rate: 0.3})
	replay := func(scope uint64) ([]TransferFault, []bool, Counters) {
		s := inj.Stream(scope)
		var tf []TransferFault
		var ab []bool
		for i := 0; i < 200; i++ {
			switch i % 3 {
			case 0:
				tf = append(tf, s.Transfer())
			case 1:
				ab = append(ab, s.Alloc())
			default:
				ab = append(ab, s.PrefetchDrop())
			}
		}
		return tf, ab, s.Counters()
	}
	tf1, ab1, c1 := replay(42)
	tf2, ab2, c2 := replay(42)
	if c1 != c2 {
		t.Fatalf("counters diverge: %+v vs %+v", c1, c2)
	}
	for i := range tf1 {
		if tf1[i] != tf2[i] {
			t.Fatalf("transfer decision %d diverges", i)
		}
	}
	for i := range ab1 {
		if ab1[i] != ab2[i] {
			t.Fatalf("bool decision %d diverges", i)
		}
	}
	// Distinct scopes must not replay the same schedule.
	_, _, c3 := replay(43)
	if c1 == c3 {
		t.Error("distinct scopes produced identical counters — schedule not scoped")
	}
}

func TestStreamRateIsHonored(t *testing.T) {
	for _, rate := range []float64{0.05, 0.25, 0.75} {
		inj := New(Config{Seed: 1, Rate: rate})
		var faulty, total int
		for scope := uint64(0); scope < 50; scope++ {
			s := inj.Stream(scope)
			for i := 0; i < 200; i++ {
				f := s.Transfer()
				if f.Abort || f.StallFactor > 1 {
					faulty++
				}
				total++
			}
		}
		got := float64(faulty) / float64(total)
		if math.Abs(got-rate) > 0.05 {
			t.Errorf("rate %.2f: observed fault fraction %.3f", rate, got)
		}
	}
}

func TestNilStreamIsNoop(t *testing.T) {
	var s *Stream
	if f := s.Transfer(); f.Abort || f.StallFactor != 1 {
		t.Errorf("nil stream injected a transfer fault: %+v", f)
	}
	if s.Alloc() || s.PrefetchDrop() {
		t.Error("nil stream injected an alloc/prefetch fault")
	}
	s.NoteRetry(10)
	s.NoteOnDemandFallback()
	s.NoteEvictRetry()
	s.NoteSyncFallback()
	if s.Counters() != (Counters{}) {
		t.Error("nil stream has nonzero counters")
	}
}

func TestDisabledInjectorReturnsNilStream(t *testing.T) {
	if New(Config{Seed: 5}).Stream(1) != nil {
		t.Error("rate-0 injector returned a live stream")
	}
	var inj *Injector
	if inj.Enabled() {
		t.Error("nil injector reports enabled")
	}
	if inj.Stream(0) != nil {
		t.Error("nil injector returned a stream")
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{TransferStalls: 1, AllocFaults: 2, Retries: 3, BackoffNS: 100}
	b := Counters{TransferAborts: 4, PrefetchDrops: 5, OnDemandFallbacks: 6, EvictRetries: 7, SyncFallbacks: 8}
	sum := a.Add(b)
	if sum.Injected() != 1+2+4+5 {
		t.Errorf("Injected = %d", sum.Injected())
	}
	if sum != b.Add(a) {
		t.Error("Add is not commutative")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=9,rate=0.25,stall=6")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 || cfg.Rate != 0.25 || cfg.StallFactor != 6 {
		t.Errorf("parsed %+v", cfg)
	}
	if cfg, err := ParseSpec(""); err != nil || cfg.Rate != 0 {
		t.Errorf("empty spec: %+v, %v", cfg, err)
	}
	if _, err := ParseSpec("rate=0.5, seed=3"); err != nil {
		t.Errorf("spaced spec rejected: %v", err)
	}
	// A stall factor of 1 is a valid input (stalls counted, not slowed) and
	// must survive New; only an unset (zero) factor takes the default.
	cfg, err = ParseSpec("rate=0.5,stall=1")
	if err != nil {
		t.Fatalf("stall=1 rejected: %v", err)
	}
	if got := New(cfg).Config().StallFactor; cfg.StallFactor != 1 || got != 1 {
		t.Errorf("stall=1: parsed %d, injector uses %d; want 1 and 1", cfg.StallFactor, got)
	}
	for _, bad := range []string{"rate=2", "rate=x", "rate=NaN", "rate=nan", "rate=-Inf", "seed=-1", "stall=0", "bogus=1", "rate"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestStallFactorDefaultAndClamp(t *testing.T) {
	inj := New(Config{Seed: 1, Rate: 1})
	if inj.Config().StallFactor != 4 {
		t.Errorf("default stall factor = %d, want 4", inj.Config().StallFactor)
	}
	if got := New(Config{Rate: 7}).Config().Rate; got != 1 {
		t.Errorf("rate clamp = %v, want 1", got)
	}
	if nan := New(Config{Rate: math.NaN()}); nan.Config().Rate != 0 || nan.Enabled() {
		t.Errorf("NaN rate normalized to %v (enabled %v), want 0 and disabled", nan.Config().Rate, nan.Enabled())
	}
	// At rate 1 every transfer faults, split between stall and abort.
	s := inj.Stream(3)
	var stalls, aborts int
	for i := 0; i < 100; i++ {
		f := s.Transfer()
		switch {
		case f.Abort:
			aborts++
		case f.StallFactor == 4:
			stalls++
		default:
			t.Fatalf("rate-1 draw %d injected nothing: %+v", i, f)
		}
	}
	if stalls == 0 || aborts == 0 {
		t.Errorf("fault flavor never varies: stalls=%d aborts=%d", stalls, aborts)
	}
	c := s.Counters()
	if c.TransferStalls != int64(stalls) || c.TransferAborts != int64(aborts) {
		t.Errorf("counters %+v disagree with observations (%d stalls, %d aborts)", c, stalls, aborts)
	}
}
