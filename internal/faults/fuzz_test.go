package faults

import (
	"math"
	"testing"
)

// FuzzParseSpec drives the CLI fault-spec parser with arbitrary strings. The
// contract: no panics; every accepted config has a Rate in [0, 1] (never
// NaN) and a StallFactor that is either unset (0) or at least 1; and New
// keeps an accepted config exactly as parsed, apart from filling an unset
// StallFactor with the default 4 — normalization never silently rewrites a
// value the user asked for.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"", "seed=7,rate=0.1", "rate=0.5, seed=3", "seed=9,rate=0.25,stall=6",
		"stall=1", "rate=NaN", "rate=1e-300", "rate=1", "stall=0", "seed=18446744073709551615",
		"rate", "bogus=1", ",", "rate=0x1p-2", "stall=9223372036854775807",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if math.IsNaN(cfg.Rate) || cfg.Rate < 0 || cfg.Rate > 1 {
			t.Fatalf("%q: accepted rate %v outside [0,1]", spec, cfg.Rate)
		}
		if cfg.StallFactor != 0 && cfg.StallFactor < 1 {
			t.Fatalf("%q: accepted stall factor %d", spec, cfg.StallFactor)
		}
		want := cfg
		if want.StallFactor == 0 {
			want.StallFactor = 4
		}
		if got := New(cfg).Config(); got != want {
			t.Fatalf("%q: New normalized %+v to %+v, want %+v", spec, cfg, got, want)
		}
	})
}
