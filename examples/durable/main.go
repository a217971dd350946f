// Durable: crash-recoverable replicas — checkpoints + write-ahead log.
//
// A replica's protocol state (DBVV, per-item version vectors, the bounded
// log vector) must survive restarts: a replica that forgot its vectors
// could not answer "what am I missing" nor keep the per-origin update
// ordering the protocol's correctness rests on. This example runs a
// durable replica against an in-memory peer, kills it without a clean
// shutdown ("crash"), reopens it from disk, and shows that it resumes
// anti-entropy exactly where it left off — no re-copying of the database.
//
// Run with: go run ./examples/durable
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/durable"
)

func main() {
	dir, err := os.MkdirTemp("", "epidemic-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	peer := repro.NewReplica(0, 2)
	for i := 0; i < 2000; i++ {
		must(peer.Update(fmt.Sprintf("doc/%04d", i), repro.Set([]byte("rev-1"))))
	}

	// First life: open, sync the full database, apply some local edits.
	node, err := durable.Open(dir, 1, 2, durable.Options{SnapshotEvery: 500})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := node.AntiEntropyFrom(peer); err != nil {
		log.Fatal(err)
	}
	must(node.Update("doc/0007", repro.Append([]byte(" +local-edit"))))
	fmt.Printf("first life: %d items, %d log records, %d unflushed WAL actions\n",
		node.Core().Items(), node.Core().LogRecords(), node.WALRecords())
	if err := node.CloseWithoutSnapshot(); err != nil { // crash!
		log.Fatal(err)
	}
	fmt.Println("crash (no clean shutdown)")

	// Meanwhile the peer keeps changing.
	must(peer.Update("doc/0042", repro.Set([]byte("rev-2"))))
	must(peer.Update("doc/0043", repro.Set([]byte("rev-2"))))

	// Second life: recover from checkpoints + WAL replay.
	node, err = durable.Open(dir, 1, 2, durable.Options{SnapshotEvery: 500})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	v, _ := node.Core().Read("doc/0007")
	fmt.Printf("recovered: %d items, doc/0007 = %q (local edit survived)\n",
		node.Core().Items(), v)
	if err := node.Core().CheckInvariants(); err != nil {
		log.Fatalf("recovered replica corrupt: %v", err)
	}

	// The recovered DBVV is exact, so the catch-up session ships only the
	// two documents edited while we were down — not the database.
	before := peer.Metrics()
	if _, err := node.AntiEntropyFrom(peer); err != nil {
		log.Fatal(err)
	}
	session := peer.Metrics().Diff(before)
	fmt.Printf("catch-up session after recovery: items-sent=%d (of %d total), bytes=%d\n",
		session.ItemsSent, node.Core().Items(), session.BytesSent)

	// Converge fully (push the local edit back) and verify.
	repro.AntiEntropy(peer, node.Core())
	if ok, why := repro.Converged(peer, node.Core()); !ok {
		log.Fatalf("diverged: %s", why)
	}
	fmt.Println("peer and recovered replica fully converged")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
