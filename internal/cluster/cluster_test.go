package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/op"
)

func TestManualPullCluster(t *testing.T) {
	nodes, err := StartCluster(3, 0) // no background loop
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(nodes)

	if err := nodes[0].Update("x", op.NewSet([]byte("v"))); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[1].PullFrom(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[2].PullFrom(nodes[1].Addr()); err != nil {
		t.Fatal(err)
	}
	if v, _ := nodes[2].Read("x"); string(v) != "v" {
		t.Errorf("relay over TCP failed: %q", v)
	}
	if ok, why := Converged(nodes); !ok {
		t.Errorf("not converged: %s", why)
	}
}

func TestBackgroundAntiEntropyConverges(t *testing.T) {
	nodes, err := StartCluster(4, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(nodes)

	for i, n := range nodes {
		if err := n.Update("key-"+string(rune('a'+i)), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ok, _ := Converged(nodes); ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, why := Converged(nodes)
	t.Fatalf("cluster did not converge: %s", why)
}

func TestOOBOverCluster(t *testing.T) {
	nodes, err := StartCluster(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(nodes)
	nodes[0].Update("hot", op.NewSet([]byte("now")))
	adopted, err := nodes[1].FetchOOB(nodes[0].Addr(), "hot")
	if err != nil || !adopted {
		t.Fatalf("FetchOOB = %v/%v", adopted, err)
	}
	if v, _ := nodes[1].Read("hot"); string(v) != "now" {
		t.Errorf("hot = %q", v)
	}
}

func TestPullOnceWithoutPeers(t *testing.T) {
	n, err := Start(Config{ID: 0, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	peer, err := n.PullOnce()
	if err != nil || peer != "" {
		t.Errorf("PullOnce = %q/%v, want no-op", peer, err)
	}
}

func TestPullOnceSelectsConfiguredPeer(t *testing.T) {
	nodes, err := StartCluster(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(nodes)
	nodes[0].Update("x", op.NewSet([]byte("v")))
	peer, err := nodes[1].PullOnce()
	if err != nil {
		t.Fatal(err)
	}
	if peer != nodes[0].Addr() {
		t.Errorf("pulled from %q, want %q", peer, nodes[0].Addr())
	}
	if v, _ := nodes[1].Read("x"); string(v) != "v" {
		t.Errorf("x = %q", v)
	}
}

func TestStartRejectsBadConfig(t *testing.T) {
	if _, err := Start(Config{ID: 5, Servers: 2}); err == nil {
		t.Error("bad id accepted")
	}
	if _, err := Start(Config{ID: 0, Servers: 0}); err == nil {
		t.Error("zero servers accepted")
	}
}

func TestSurvivesDeadPeer(t *testing.T) {
	nodes, err := StartCluster(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(func() []*Node {
		return []*Node{nodes[0], nodes[1]}
	}())
	// Kill node 2; the others' loops keep running and still converge.
	nodes[2].Close()
	nodes[0].Update("x", op.NewSet([]byte("v")))
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := nodes[1].Read("x"); ok && string(v) == "v" {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("survivors did not converge with a dead peer present")
}

func TestConcurrentSessionsOverPooledTransport(t *testing.T) {
	// >= 8 nodes pull concurrently through their pooled clients while the
	// source keeps taking writes: exercises the pool under -race and
	// proves sessions to distinct peers share warm connections.
	const n = 9
	nodes, err := StartCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(nodes)
	for i := 0; i < 40; i++ {
		if err := nodes[0].Update(fmt.Sprintf("k%d", i), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, n-1)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(node *Node) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := node.PullFrom(nodes[0].Addr()); err != nil {
					errs <- err
					return
				}
			}
		}(nodes[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ok, why := Converged(nodes); !ok {
		t.Fatalf("not converged: %s", why)
	}
	var reused uint64
	for i := 1; i < n; i++ {
		reused += nodes[i].PoolStats().Reused
	}
	if reused == 0 {
		t.Error("no connection reuse across 160 sessions")
	}
}

// The anti-entropy loop counts the pulls that fail and keeps the last
// error, so a node whose only peer is dead is visible.
func TestLoopCountsFailedPulls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	n, err := Start(Config{ID: 0, Servers: 2, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if failures, last := n.PullFailures(); failures != 0 || last != nil {
		t.Fatalf("before any peer: %d failures, last %v", failures, last)
	}
	n.SetPeers([]string{dead})
	deadline := time.Now().Add(5 * time.Second)
	for {
		failures, last := n.PullFailures()
		if failures >= 3 {
			if last == nil {
				t.Fatalf("%d failures counted without an error kept", failures)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d failed pulls counted against a dead peer", failures)
		}
		time.Sleep(time.Millisecond)
	}
}
