package analysis

import (
	"strings"
	"testing"
)

func TestReplayDetFixture(t *testing.T) {
	RunFixture(t, "testdata/replaydet", ReplayDet)
}

// TestReplayDetFixtureHasTeeth runs the same fixture tree with the
// analyzer disabled and demands that the expectations go unmatched —
// in particular the border package, which reproduces the PR-5
// nondeterministic-border-consumer bug. A fixture that still "passes"
// without its analyzer proves nothing.
func TestReplayDetFixtureHasTeeth(t *testing.T) {
	unmatched, unexpected, err := CheckFixture("testdata/replaydet", nil)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(unexpected) != 0 {
		t.Fatalf("no analyzers ran, yet diagnostics appeared: %v", unexpected)
	}
	if len(unmatched) == 0 {
		t.Fatalf("disabling replaydet left no unmatched expectations; the fixture is vacuous")
	}
	borderCaught := false
	for _, u := range unmatched {
		if strings.Contains(u, "border") && strings.Contains(u, "map iteration order escapes") {
			borderCaught = true
		}
	}
	if !borderCaught {
		t.Errorf("border-consumer regression fixture carries no map-iteration expectation; got %v", unmatched)
	}
}

func TestLockOrderFixture(t *testing.T) {
	RunFixture(t, "testdata/lockorder", NewLockOrder(LockOrderConfig{
		Ranks: map[string]int{
			"locks.engine.ddlMu":  1,
			"locks.engine.readMu": 2,
			"locks.store.latch":   3,
		},
		Leaf:     map[int]bool{3: true},
		OrderDoc: "ddlMu → readMu → latch",
	}))
}

func TestHotAllocFixture(t *testing.T) {
	RunFixture(t, "testdata/hotalloc", NewHotAlloc(HotAllocConfig{
		BoxedTypes: map[string]bool{"hot.value": true},
	}))
}

func TestAllocGateFixture(t *testing.T) {
	RunFixture(t, "testdata/allocgate", AllocGate)
}

func TestReplyExitFixture(t *testing.T) {
	RunFixture(t, "testdata/replyexit", NewReplyExit(ReplyExitConfig{
		Elem:    "reply.result",
		Senders: map[string]bool{"reply.site.replyTo": true},
	}))
}

func TestErrDropFixture(t *testing.T) {
	RunFixture(t, "testdata/errdrop", NewErrDrop(ErrDropConfig{
		MustUse: map[string]string{
			"errs.Txn.Commit": "a swallowed commit error leaves state diverged",
			"errs.Log.Append": "an unchecked log append breaks write-ahead durability",
		},
	}))
}

func TestUnusedFixture(t *testing.T) {
	RunFixture(t, "testdata/unused", Unused)
}
