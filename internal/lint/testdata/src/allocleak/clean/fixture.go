// Package fixture is the clean twin of the allocleak flagged fixture: every
// acquisition is released on all paths or ownership demonstrably transfers —
// deferred Free, per-branch Free, the admit/rest split idiom with a caller
// group-release, and an escape into a ledger.
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

// DeferredFree releases on every path through a defer.
func DeferredFree(a *Allocator, id, size int64) error {
	if err := a.TryAlloc(id, size); err != nil {
		return err
	}
	defer a.Free(id)
	if id%2 != 0 {
		return errNoSpace
	}
	return nil
}

// BranchedFree releases explicitly on each path.
func BranchedFree(a *Allocator, id, size int64) error {
	if !a.Alloc(id, size) {
		return errNoSpace
	}
	if id > 10 {
		a.Free(id)
		return nil
	}
	a.Free(id)
	return nil
}

type req struct {
	id int64
}

// Admit splits pending requests into admitted (reserved) and rest: ownership
// of the reserved ids transfers to the returned admitted slice.
func Admit(a *Allocator, owner string, pend []req) ([]req, []req) {
	var admitted, rest []req
	for _, r := range pend {
		if a.Reserve(owner, r.id, 1) == nil {
			admitted = append(admitted, r)
		} else {
			rest = append(rest, r)
		}
	}
	return admitted, rest
}

// Drain admits then group-releases every admitted request.
func Drain(a *Allocator, owner string, pend []req) int {
	admitted, rest := Admit(a, owner, pend)
	for _, r := range admitted {
		a.Free(r.id)
	}
	return len(rest)
}

type ledger struct {
	held []int64
}

// Hold transfers ownership of the block into the ledger.
func (l *ledger) Hold(a *Allocator, id, size int64) bool {
	if !a.Alloc(id, size) {
		return false
	}
	l.held = append(l.held, id)
	return true
}

// Release drains the ledger.
func (l *ledger) Release(a *Allocator) {
	for _, id := range l.held {
		a.Free(id)
	}
	l.held = nil
}

// Fill reserves pending requests while the allocator accepts them: the
// error-guarded probe skips a refusal, and the success path after it hands
// the reserved request (not a range variable) to the returned batch.
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

// DrainFill group-releases Fill's batch.
func DrainFill(a *Allocator, owner string, pend []req) int {
	batch := Fill(a, owner, pend)
	for _, r := range batch {
		a.Free(r.id)
	}
	return len(batch)
}
