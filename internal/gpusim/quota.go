package gpusim

import (
	"errors"
	"sort"
)

// This file is the serving layer's reservation/quota view of the Allocator:
// placements are attributed to owners (tenants), owners may carry a byte
// quota, and usage plus high-water marks are tracked per owner and in total
// so quota pressure is observable rather than inferred. All accounting is
// updated inside alloc/Free, so the invariants hold for every entry point
// (Alloc, TryAlloc, Reserve) — see TestQuotaAccountingNeverLeaks.

// ErrQuotaExceeded means the owner's reservation would exceed its configured
// byte quota. Distinct from ErrAllocNoSpace: the device may have room, the
// tenant does not.
var ErrQuotaExceeded = errors.New("gpusim: tenant quota exceeded")

// SetQuota caps owner's total resident bytes. A non-positive quota removes
// the cap (the owner is then bounded only by device capacity).
func (a *Allocator) SetQuota(owner string, bytes int64) {
	if bytes <= 0 {
		delete(a.quotas, owner)
		return
	}
	a.quotas[owner] = bytes
}

// Quota returns the owner's configured cap, 0 when uncapped.
func (a *Allocator) Quota(owner string) int64 { return a.quotas[owner] }

// Reserve places a block of size bytes for owner, enforcing its quota before
// consuming space; release with Free(id). A refusal returns the bare sentinel
// — ErrQuotaExceeded when the tenant hit its own cap, ErrAllocNoSpace when
// the device lacks a contiguous extent (size > LargestExtent) — without
// formatting or allocating: the serving scheduler probes Reserve on deep
// queues and discards every refusal.
func (a *Allocator) Reserve(owner string, id, size int64) error {
	if _, dup := a.blocks[id]; dup {
		return nil
	}
	if q, capped := a.quotas[owner]; capped && a.ownerUsed[owner]+size > q {
		return ErrQuotaExceeded
	}
	if !a.alloc(owner, id, size) {
		return ErrAllocNoSpace
	}
	return nil
}

// UsedBytes returns the total resident bytes across all owners.
func (a *Allocator) UsedBytes() int64 { return a.used }

// HighWater returns the peak total resident bytes since the last Reset.
func (a *Allocator) HighWater() int64 { return a.highWater }

// OwnerUsed returns owner's current resident bytes.
func (a *Allocator) OwnerUsed(owner string) int64 { return a.ownerUsed[owner] }

// OwnerHighWater returns owner's peak resident bytes since the last Reset.
func (a *Allocator) OwnerHighWater(owner string) int64 { return a.ownerPeak[owner] }

// Owners lists every owner with recorded usage (current or peak), sorted, so
// callers can render per-tenant accounting deterministically.
func (a *Allocator) Owners() []string {
	var out []string
	for o := range a.ownerPeak {
		out = append(out, o) //dynnlint:ignore determinism keys are sorted before return
	}
	sort.Strings(out)
	return out
}

// account records size bytes becoming resident for owner.
func (a *Allocator) account(owner string, size int64) {
	a.used += size
	if a.used > a.highWater {
		a.highWater = a.used
	}
	a.ownerUsed[owner] += size
	if a.ownerUsed[owner] > a.ownerPeak[owner] {
		a.ownerPeak[owner] = a.ownerUsed[owner]
	}
}

// unaccount records size bytes leaving residency for owner.
func (a *Allocator) unaccount(owner string, size int64) {
	a.used -= size
	a.ownerUsed[owner] -= size
}
