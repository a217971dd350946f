package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/op"
	"repro/internal/vv"
)

// streamPeer is a LocalPeer whose pulls announce an inline cap and whose
// streams cut chunks of chunkBytes (0: DefaultChunkBytes), as a TCP
// server's can.
type streamPeer struct {
	*LocalPeer
	maxBytes, chunkBytes uint64
}

func (p streamPeer) Limits() (int, uint64) { return 1, p.maxBytes }

func (p streamPeer) Stream(r *Replica, pid int, dbvv vv.VV, apply func(*Propagation) error) (bool, error) {
	cur, reconcile, err := p.OpenStream(r.ID(), pid, dbvv, p.chunkBytes)
	if err == nil {
		err = drainChunks(cur, apply)
	}
	return reconcile, err
}

// streamAntiEntropy drains source into recipient over a Local chunk stream
// of chunkBytes, whatever the payload's size.
func streamAntiEntropy(recipient, source *Replica, chunkBytes uint64) bool {
	shipped, _ := Drain(InMemory(recipient), 0, streamPeer{LocalPeer: localReplica(source), chunkBytes: chunkBytes})
	return shipped
}

// faultPeer wraps a Peer and fails on cue, with no socket and no goroutine
// of its own: shortRound answers every reconcile round with its last reply
// missing, and failFetch fails that (1-based) fetch call.
type faultPeer struct {
	Peer
	shortRound bool
	failFetch  int
	fetches    int
}

var errInjected = errors.New("injected fault")

func (f *faultPeer) Reconcile(r *Replica, pid int, ranges []ReconcileRange) ([]ReconcileReply, error) {
	replies, err := f.Peer.Reconcile(r, pid, ranges)
	if f.shortRound && len(replies) > 0 {
		replies = replies[:len(replies)-1]
	}
	return replies, err
}

func (f *faultPeer) Fetch(r *Replica, keys []string) ([]ItemPayload, error) {
	f.fetches++
	if f.fetches == f.failFetch {
		return nil, errInjected
	}
	return f.Peer.Fetch(r, keys)
}

// A pull diverted to reconciliation commits nothing past a fault: a short
// round adopts nothing and leaves the pruned watermark where it was, and a
// failed fetch batch keeps exactly the batches committed before it.
func TestPullStopsAtAPeerFault(t *testing.T) {
	const items = 2*ReconcileFetchBatch + 88
	for _, tc := range []struct {
		name        string
		peer        faultPeer
		wantFetches int
		wantAdopted uint64
	}{
		{name: "short round", peer: faultPeer{shortRound: true}, wantFetches: 0, wantAdopted: 0},
		{name: "second fetch batch fails", peer: faultPeer{failFetch: 2}, wantFetches: 2, wantAdopted: ReconcileFetchBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := NewPartitioned(0, 2, 1, 2), NewPartitioned(1, 2, 1, 2)
			for i := 0; i < items; i++ {
				if err := src.Update(fmt.Sprintf("item/%04d", i), op.NewSet([]byte{byte(i)})); err != nil {
					t.Fatal(err)
				}
			}
			src.Partition(0).SetLogCap(8)
			src.Prune()
			if !src.Partition(0).NeedsReconcile(dst.Partition(0).DBVV()) {
				t.Fatal("setup: the source log still covers the recipient")
			}
			peer := tc.peer
			peer.Peer = Local(src)
			_, err := Pull(dst, memSinks(dst), &peer)
			if err == nil || tc.peer.failFetch > 0 && !errors.Is(err, errInjected) {
				t.Fatalf("Pull error = %v, want the fault", err)
			}
			if peer.fetches != tc.wantFetches {
				t.Errorf("%d fetch calls, want %d", peer.fetches, tc.wantFetches)
			}
			got := dst.Partition(0)
			if adopted := got.Metrics().ItemsCopied; adopted != tc.wantAdopted || uint64(got.Items()) != tc.wantAdopted {
				t.Errorf("adopted %d items (%d held), want %d", adopted, got.Items(), tc.wantAdopted)
			}
			if raised := got.PrunedBefore().Sum() > 0; raised != (tc.wantAdopted > 0) {
				t.Errorf("pruned watermark %v after adopting %d items", got.PrunedBefore(), tc.wantAdopted)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
