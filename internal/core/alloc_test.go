package core

import (
	"testing"

	"repro/internal/op"
)

// TestInProcessPullAllocations pins the allocations of the two in-process
// sessions the steady state is made of: a "you-are-current" AntiEntropy and
// one shipping a single item (m = 1), with a fresh recipient request and
// reply each time.
func TestInProcessPullAllocations(t *testing.T) {
	src, dst := NewReplica(0, 2), NewReplica(1, 2)
	for i := 0; i < 100; i++ {
		src.Update(key(i), op.NewSet([]byte("initial")))
	}
	AntiEntropy(dst, src)
	noop := testing.AllocsPerRun(100, func() {
		if AntiEntropy(dst, src) {
			t.Fatal("a current recipient took data")
		}
	})
	val := op.NewSet([]byte("changed"))
	ship := testing.AllocsPerRun(100, func() {
		src.Update(key(7), val)
		if !AntiEntropy(dst, src) {
			t.Fatal("the session shipped nothing")
		}
	})
	// noop: the recipient's offer and DBVV copy, the source's replies.
	// m = 1 adds the update itself, the built propagation and its commit.
	// Before the pull stopped allocating its bookkeeping up front these
	// read 9 and 25.
	for _, row := range []struct {
		name      string
		got, want float64
	}{{"noop", noop, 3}, {"m=1", ship, 20}} {
		if row.got > row.want {
			t.Errorf("%s session: %.0f allocations, want at most %.0f", row.name, row.got, row.want)
		}
	}
}
