package gpusim

import (
	"errors"
	"testing"

	"dynnoffload/internal/mathx"
)

func TestReserveEnforcesQuota(t *testing.T) {
	a := NewAllocator(100)
	a.SetQuota("a", 50)
	if err := a.Reserve("a", 1, 40); err != nil {
		t.Fatal(err)
	}
	err := a.Reserve("a", 2, 20)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("want ErrQuotaExceeded, got %v", err)
	}
	// Another tenant still fits: the device has space, only "a" is capped.
	if err := a.Reserve("b", 3, 20); err != nil {
		t.Fatal(err)
	}
	// Releasing "a"'s block restores its headroom.
	a.Free(1)
	if err := a.Reserve("a", 2, 20); err != nil {
		t.Fatal(err)
	}
	if got := a.OwnerUsed("a"); got != 20 {
		t.Errorf("OwnerUsed(a) = %d, want 20", got)
	}
	if got := a.OwnerHighWater("a"); got != 40 {
		t.Errorf("OwnerHighWater(a) = %d, want 40", got)
	}
}

func TestReserveDeviceExhaustion(t *testing.T) {
	a := NewAllocator(100)
	if err := a.Reserve("a", 1, 80); err != nil {
		t.Fatal(err)
	}
	err := a.Reserve("b", 2, 40)
	if !errors.Is(err, ErrAllocNoSpace) {
		t.Fatalf("want ErrAllocNoSpace, got %v", err)
	}
}

func TestQuotaRemovedBySetQuotaZero(t *testing.T) {
	a := NewAllocator(100)
	a.SetQuota("a", 10)
	if err := a.Reserve("a", 1, 20); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("want ErrQuotaExceeded, got %v", err)
	}
	a.SetQuota("a", 0)
	if err := a.Reserve("a", 1, 20); err != nil {
		t.Fatalf("uncapped reserve failed: %v", err)
	}
	if a.Quota("a") != 0 {
		t.Errorf("Quota(a) = %d after removal", a.Quota("a"))
	}
}

// checkAccounting asserts the allocator's global invariants: usage matches
// the sum of per-owner usage, nothing is negative, free space plus usage
// partitions capacity, the high-water marks bound current usage, and capped
// owners never exceed their quota.
func checkAccounting(t *testing.T, a *Allocator, owners []string) {
	t.Helper()
	var sum int64
	for _, o := range owners {
		u := a.OwnerUsed(o)
		if u < 0 {
			t.Fatalf("owner %q usage negative: %d", o, u)
		}
		if p := a.OwnerHighWater(o); u > p {
			t.Fatalf("owner %q usage %d above its high-water %d", o, u, p)
		}
		if q := a.Quota(o); q > 0 && u > q {
			t.Fatalf("owner %q usage %d above quota %d", o, u, q)
		}
		sum += u
	}
	if got := a.UsedBytes(); got != sum {
		t.Fatalf("UsedBytes %d != sum of owner usage %d", got, sum)
	}
	if a.UsedBytes() < 0 || a.UsedBytes() > a.Capacity {
		t.Fatalf("UsedBytes %d out of [0, %d]", a.UsedBytes(), a.Capacity)
	}
	if a.UsedBytes()+a.FreeBytes() != a.Capacity {
		t.Fatalf("used %d + free %d != capacity %d", a.UsedBytes(), a.FreeBytes(), a.Capacity)
	}
	if a.UsedBytes() > a.HighWater() {
		t.Fatalf("used %d above high-water %d", a.UsedBytes(), a.HighWater())
	}
}

// TestQuotaAccountingNeverLeaks drives seeded random reserve/alloc/free
// schedules — including rejected reservations and double frees — and checks
// after every operation that the accounting neither leaks nor goes negative
// (mirroring the faults property suite).
func TestQuotaAccountingNeverLeaks(t *testing.T) {
	owners := []string{"", "a", "b", "c"}
	for trial := 0; trial < 200; trial++ {
		rng := mathx.NewRNG(0x51A11CE).Fork(uint64(trial))
		a := NewAllocator(1000)
		a.SetQuota("a", 300)
		a.SetQuota("b", 150)
		var live []int64
		var highSeen int64
		nextID := int64(1)
		for op := 0; op < 120; op++ {
			switch rng.Intn(4) {
			case 0, 1: // reserve for a random owner (may be refused)
				owner := owners[rng.Intn(len(owners))]
				size := int64(1 + rng.Intn(200))
				id := nextID
				nextID++
				if err := a.Reserve(owner, id, size); err == nil {
					live = append(live, id)
				} else if !errors.Is(err, ErrQuotaExceeded) && !errors.Is(err, ErrAllocNoSpace) {
					t.Fatalf("unexpected reserve error: %v", err)
				}
			case 2: // plain Alloc under the empty owner
				size := int64(1 + rng.Intn(100))
				id := nextID
				nextID++
				if a.Alloc(id, size) {
					live = append(live, id)
				}
			case 3: // free a live block, or a bogus id (must be a no-op)
				if len(live) > 0 && rng.Intn(4) != 0 {
					i := rng.Intn(len(live))
					a.Free(live[i])
					a.Free(live[i]) // double free: no effect
					live = append(live[:i], live[i+1:]...)
				} else {
					a.Free(-7)
				}
			}
			if u := a.UsedBytes(); u > highSeen {
				highSeen = u
			}
			checkAccounting(t, a, owners)
		}
		if a.HighWater() != highSeen {
			t.Fatalf("trial %d: high-water %d != max observed usage %d", trial, a.HighWater(), highSeen)
		}
		for _, id := range live {
			a.Free(id)
		}
		if a.UsedBytes() != 0 || a.FreeBytes() != a.Capacity {
			t.Fatalf("trial %d: leak after freeing all: used=%d free=%d", trial, a.UsedBytes(), a.FreeBytes())
		}
		checkAccounting(t, a, owners)
	}
}

func TestAllocatorResetClearsAccounting(t *testing.T) {
	a := NewAllocator(100)
	a.SetQuota("a", 60)
	if err := a.Reserve("a", 1, 50); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	if a.UsedBytes() != 0 || a.HighWater() != 0 || a.OwnerUsed("a") != 0 || a.OwnerHighWater("a") != 0 {
		t.Errorf("Reset left accounting: used=%d hw=%d owner=%d ownerhw=%d",
			a.UsedBytes(), a.HighWater(), a.OwnerUsed("a"), a.OwnerHighWater("a"))
	}
	// Quotas persist across Reset.
	if a.Quota("a") != 60 {
		t.Errorf("Reset dropped quota: %d", a.Quota("a"))
	}
	if err := a.Reserve("a", 2, 70); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("quota not enforced after Reset: %v", err)
	}
}

// TestReserveRefusalAllocatesNothing pins that a refused reservation — quota
// or no-space — returns the bare sentinel without allocating: the serving
// scheduler probes Reserve against deep queues and discards every refusal.
func TestReserveRefusalAllocatesNothing(t *testing.T) {
	a := NewAllocator(100)
	a.SetQuota("a", 50)
	if err := a.Reserve("a", 1, 40); err != nil {
		t.Fatal(err)
	}
	if err := a.Reserve("b", 2, 50); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		owner string
		size  int64
		want  error
	}{
		{"a", 20, ErrQuotaExceeded},
		{"b", 20, ErrAllocNoSpace},
	}
	for _, c := range cases {
		var err error
		allocs := testing.AllocsPerRun(100, func() { err = a.Reserve(c.owner, 3, c.size) })
		if !errors.Is(err, c.want) {
			t.Fatalf("Reserve(%s, %d) = %v, want %v", c.owner, c.size, err, c.want)
		}
		if allocs != 0 {
			t.Errorf("refused Reserve(%s, %d) allocates %.0f times, want 0", c.owner, c.size, allocs)
		}
	}
}
