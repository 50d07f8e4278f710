package expt

import (
	"sync"
	"testing"
)

var (
	onlineSweepOnce   sync.Once
	onlineSweepShared []onlineSweepRow
	onlineSweepErr    error
)

// testOnlineSweepRows plays the online sweep once per test binary: the golden
// table and the learning-beats-frozen claim read the same rows.
func testOnlineSweepRows(t *testing.T) []onlineSweepRow {
	t.Helper()
	wb := testWorkbench(t)
	onlineSweepOnce.Do(func() {
		onlineSweepShared, onlineSweepErr = wb.onlineSweepRows()
	})
	if onlineSweepErr != nil {
		t.Fatal(onlineSweepErr)
	}
	return onlineSweepShared
}

// TestOnlineSweepLearningBeatsFrozen pins the PR's headline claim: with
// memoization and the mis-prediction cache out of the way, in-loop learning
// ends every migrating dynamic model's windowed mispredict trajectory
// strictly below the frozen-pilot control, and the online arm itself declines
// on the tree/expert models whose path skew the replay memory can exploit.
func TestOnlineSweepLearningBeatsFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("workbench construction is expensive")
	}
	declineModels := map[string]bool{"Tree-CNN": true, "MoE": true}
	var migrating int
	for _, row := range testOnlineSweepRows(t) {
		if !row.migrating {
			continue
		}
		migrating++
		if row.retrains == 0 || row.retrainNS == 0 {
			t.Errorf("%s: online arm fired no retrains (retrains=%d retrainNS=%d)",
				row.name, row.retrains, row.retrainNS)
		}
		if row.onlineLast < 0 || row.frozenLast < 0 {
			t.Fatalf("%s: missing trajectory windows (online=%v frozen=%v)",
				row.name, row.onlineLast, row.frozenLast)
		}
		if row.onlineLast >= row.frozenLast {
			t.Errorf("%s: online last-window rate %.3f did not end below frozen %.3f",
				row.name, row.onlineLast, row.frozenLast)
		}
		if declineModels[row.name] && row.onlineLast >= row.onlineFirst {
			t.Errorf("%s: online trajectory did not decline (first %.3f, last %.3f)",
				row.name, row.onlineFirst, row.onlineLast)
		}
	}
	if migrating < 4 {
		t.Fatalf("only %d migrating dynamic models — sweep lost its subjects", migrating)
	}
}
