// Package fixture mirrors the gpusim Allocator surface so the allocleak
// fixtures are hermetic: loaded at the gpusim import path, the analyzer
// treats this Allocator as the real one. It seeds every violation class —
// leak on an error return, leak on every path, leak on one branch, and
// accounting-funnel bypasses.
package fixture

import "errors"

var errNoSpace = errors.New("no space")

// Allocator is the fixture stand-in for gpusim.Allocator.
type Allocator struct {
	used, limit int64
}

func (a *Allocator) account(owner string, size int64)   { a.used += size }
func (a *Allocator) unaccount(owner string, size int64) { a.used -= size }

func (a *Allocator) alloc(owner string, id, size int64) bool {
	if a.used+size > a.limit {
		return false
	}
	a.account(owner, size)
	return true
}

// Alloc acquires with a bool success flag.
func (a *Allocator) Alloc(id, size int64) bool { return a.alloc("", id, size) }

// TryAlloc acquires with an error.
func (a *Allocator) TryAlloc(id, size int64) error {
	if !a.alloc("", id, size) {
		return errNoSpace
	}
	return nil
}

// Reserve acquires against an owner quota.
func (a *Allocator) Reserve(owner string, id, size int64) error {
	return a.TryAlloc(id, size)
}

// Free releases an acquisition.
func (a *Allocator) Free(id int64) { a.unaccount("", 0) }

// LeakOnError frees on success but forgets the block when the odd-id check
// bails out early.
func LeakOnError(a *Allocator, id, size int64) error {
	if !a.Alloc(id, size) {
		return errNoSpace
	}
	if id%2 != 0 {
		return errNoSpace
	}
	a.Free(id)
	return nil
}

// LeakAlways acquires and never frees at all.
func LeakAlways(a *Allocator, id, size int64) error {
	if err := a.TryAlloc(id, size); err != nil {
		return err
	}
	return nil
}

// LeakOneBranch frees only when the id clears the threshold.
func LeakOneBranch(a *Allocator, owner string, id, size int64) error {
	if err := a.Reserve(owner, id, size); err != nil {
		return err
	}
	if id > 10 {
		a.Free(id)
	}
	return nil
}

// EvictBypass unaccounts outside the alloc/Free funnel from a method.
func (a *Allocator) EvictBypass(size int64) {
	a.unaccount("evict", size)
}

// RebalanceBypass accounts outside the funnel from a free function.
func RebalanceBypass(a *Allocator, size int64) {
	a.account("rebalance", size)
}

type req struct {
	id int64
}

// Fill reserves pending requests while the allocator accepts them: the
// error-guarded probe skips a refusal, and the success path after it hands
// the reserved request to the returned batch.
func Fill(a *Allocator, owner string, pend []req) []req {
	var batch []req
	for i := 0; i < len(pend); i++ {
		r := pend[i]
		if err := a.Reserve(owner, r.id, 1); err != nil {
			continue
		}
		batch = append(batch, r)
	}
	return batch
}

// FillLeak takes Fill's reserved batch and never releases it.
func FillLeak(a *Allocator, owner string, pend []req) int {
	batch := Fill(a, owner, pend)
	return len(batch)
}
