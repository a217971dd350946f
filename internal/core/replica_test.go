package core

import (
	"bytes"
	"testing"

	"repro/internal/op"
	"repro/internal/vv"
)

func mustUpdate(t *testing.T, r *Replica, key, val string) {
	t.Helper()
	if err := r.Update(key, op.NewSet([]byte(val))); err != nil {
		t.Fatalf("Update(%q, %q): %v", key, val, err)
	}
}

func checkAll(t *testing.T, replicas ...*Replica) {
	t.Helper()
	for _, r := range replicas {
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	}
}

func readString(t *testing.T, r *Replica, key string) string {
	t.Helper()
	v, ok := r.Read(key)
	if !ok {
		return ""
	}
	return string(v)
}

func TestNewReplicaInitialState(t *testing.T) {
	r := NewReplica(2, 5)
	if r.ID() != 2 || r.Servers() != 5 {
		t.Fatalf("ID/Servers = %d/%d", r.ID(), r.Servers())
	}
	if !r.DBVV().Equal(vv.New(5)) {
		t.Errorf("initial DBVV = %v, want zero", r.DBVV())
	}
	if r.Items() != 0 || r.LogRecords() != 0 || r.AuxRecords() != 0 {
		t.Errorf("initial replica not empty")
	}
	checkAll(t, r)
}

func TestNewReplicaPanicsOnBadID(t *testing.T) {
	for _, tc := range []struct{ id, n int }{{-1, 3}, {3, 3}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewReplica(%d, %d) did not panic", tc.id, tc.n)
				}
			}()
			NewReplica(tc.id, tc.n)
		}()
	}
}

func TestUpdateRegularCopy(t *testing.T) {
	r := NewReplica(0, 3)
	mustUpdate(t, r, "x", "v1")
	mustUpdate(t, r, "x", "v2")
	mustUpdate(t, r, "y", "w1")

	if got := readString(t, r, "x"); got != "v2" {
		t.Errorf("x = %q, want v2", got)
	}
	if !r.DBVV().Equal(vv.VV{3, 0, 0}) {
		t.Errorf("DBVV = %v, want <3,0,0>", r.DBVV())
	}
	ivv, _ := r.ReadIVV("x")
	if !ivv.Equal(vv.VV{2, 0, 0}) {
		t.Errorf("IVV(x) = %v, want <2,0,0>", ivv)
	}
	// Log keeps one record per item: 2 records despite 3 updates.
	if got := r.LogRecords(); got != 2 {
		t.Errorf("LogRecords = %d, want 2", got)
	}
	m := r.Metrics()
	if m.UpdatesRegular != 3 || m.UpdatesAuxiliary != 0 {
		t.Errorf("update counters = %d/%d", m.UpdatesRegular, m.UpdatesAuxiliary)
	}
	checkAll(t, r)
}

func TestUpdateInvalidOpRejected(t *testing.T) {
	r := NewReplica(0, 2)
	if err := r.Update("x", op.Op{Kind: op.Kind(99)}); err == nil {
		t.Fatal("invalid op accepted")
	}
	if r.DBVV().Sum() != 0 {
		t.Error("failed update mutated DBVV")
	}
	checkAll(t, r)
}

func TestReadMissingItem(t *testing.T) {
	r := NewReplica(0, 2)
	if _, ok := r.Read("nope"); ok {
		t.Error("Read of missing item reported ok")
	}
	if _, ok := r.ReadIVV("nope"); ok {
		t.Error("ReadIVV of missing item reported ok")
	}
}

func TestReadReturnsCopy(t *testing.T) {
	r := NewReplica(0, 2)
	mustUpdate(t, r, "x", "abc")
	v, _ := r.Read("x")
	v[0] = 'Z'
	if got := readString(t, r, "x"); got != "abc" {
		t.Errorf("Read leaked internal storage: %q", got)
	}
}

func TestBasicPropagationTwoNodes(t *testing.T) {
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, a, "x", "hello")
	mustUpdate(t, a, "y", "world")

	if !AntiEntropy(b, a) {
		t.Fatal("AntiEntropy reported no-op; expected data shipped")
	}
	if got := readString(t, b, "x"); got != "hello" {
		t.Errorf("b.x = %q", got)
	}
	if got := readString(t, b, "y"); got != "world" {
		t.Errorf("b.y = %q", got)
	}
	if ok, why := Converged(a, b); !ok {
		t.Errorf("not converged: %s", why)
	}
	checkAll(t, a, b)
}

func TestPropagationIdenticalReplicasIsConstantTime(t *testing.T) {
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	for i := 0; i < 100; i++ {
		mustUpdate(t, a, key(i), "v")
	}
	AntiEntropy(b, a)
	base := a.Metrics()

	// Second session between now-identical replicas: exactly one DBVV
	// comparison, zero per-item work of any kind.
	if AntiEntropy(b, a) {
		t.Fatal("second session shipped data between identical replicas")
	}
	d := a.Metrics().Diff(base)
	if d.DBVVComparisons != 1 {
		t.Errorf("DBVV comparisons = %d, want 1", d.DBVVComparisons)
	}
	if d.IVVComparisons != 0 || d.ItemsExamined != 0 || d.ItemsSent != 0 || d.LogRecordsSent != 0 {
		t.Errorf("identical-replica session did per-item work: %v", d)
	}
	if d.PropagationNoops != 1 {
		t.Errorf("noops = %d, want 1", d.PropagationNoops)
	}
	checkAll(t, a, b)
}

func TestPropagationCostLinearInCopiedItems(t *testing.T) {
	// N items exist; only m were updated since last propagation. The session
	// must touch only the m changed items.
	const N, m = 1000, 7
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	for i := 0; i < N; i++ {
		mustUpdate(t, a, key(i), "base")
	}
	AntiEntropy(b, a)
	for i := 0; i < m; i++ {
		mustUpdate(t, a, key(i*31), "changed")
	}
	base := a.Metrics()
	AntiEntropy(b, a)
	d := a.Metrics().Diff(base)
	if d.ItemsSent != m {
		t.Errorf("items sent = %d, want %d", d.ItemsSent, m)
	}
	if d.ItemsExamined != m {
		t.Errorf("items examined = %d, want %d (independent of N=%d)", d.ItemsExamined, m, N)
	}
	if d.LogRecordsSent != m {
		t.Errorf("log records sent = %d, want %d", d.LogRecordsSent, m)
	}
	if ok, why := Converged(a, b); !ok {
		t.Errorf("not converged: %s", why)
	}
	checkAll(t, a, b)
}

func TestBidirectionalPropagation(t *testing.T) {
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, a, "ax", "from-a")
	mustUpdate(t, b, "bx", "from-b")
	AntiEntropy(b, a) // b pulls a's updates
	AntiEntropy(a, b) // a pulls b's updates
	if ok, why := Converged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
	if got := readString(t, a, "bx"); got != "from-b" {
		t.Errorf("a.bx = %q", got)
	}
	checkAll(t, a, b)
}

func TestTransitivePropagationThroughRelay(t *testing.T) {
	// a -> b -> c: c must receive a's updates without ever talking to a,
	// and the records must keep a as origin.
	a, b, c := NewReplica(0, 3), NewReplica(1, 3), NewReplica(2, 3)
	mustUpdate(t, a, "x", "payload")
	AntiEntropy(b, a)
	AntiEntropy(c, b)
	if got := readString(t, c, "x"); got != "payload" {
		t.Fatalf("c.x = %q", got)
	}
	if !c.DBVV().Equal(vv.VV{1, 0, 0}) {
		t.Errorf("c DBVV = %v, want <1,0,0>", c.DBVV())
	}
	// After the relay, a and c are identical; a session between them must
	// be a constant-time no-op — the scenario where Lotus does Θ(N) work
	// (§8.1) and our protocol does O(1).
	base := a.Metrics()
	if AntiEntropy(c, a) {
		t.Error("session between identical replicas shipped data")
	}
	d := a.Metrics().Diff(base)
	if d.ItemsExamined != 0 || d.DBVVComparisons != 1 {
		t.Errorf("relay no-op did per-item work: %v", d)
	}
	checkAll(t, a, b, c)
}

func TestUpdateCountersSurviveMultipleHops(t *testing.T) {
	// Update sequence numbers (m values) assigned at the origin must be
	// preserved across hops so that DBVV filtering stays exact.
	n := 4
	reps := makeReplicas(n)
	for i := 0; i < 5; i++ {
		mustUpdate(t, reps[0], key(i), "v")
	}
	AntiEntropy(reps[1], reps[0])
	AntiEntropy(reps[2], reps[1])
	AntiEntropy(reps[3], reps[2])
	for _, r := range reps {
		if got := r.DBVV().Get(0); got != 5 {
			t.Errorf("node %d DBVV[0] = %d, want 5", r.ID(), got)
		}
	}
	checkAll(t, reps...)
}

func TestSupersededUpdatesShipOnlyLatest(t *testing.T) {
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	for i := 0; i < 50; i++ {
		mustUpdate(t, a, "hot", "v")
	}
	base := a.Metrics()
	AntiEntropy(b, a)
	d := a.Metrics().Diff(base)
	if d.LogRecordsSent != 1 {
		t.Errorf("log records sent = %d, want 1 (only the latest per item)", d.LogRecordsSent)
	}
	if d.ItemsSent != 1 {
		t.Errorf("items sent = %d, want 1", d.ItemsSent)
	}
	// b's DBVV still accounts for all 50 updates (rule 3 uses IVV deltas).
	if got := b.DBVV().Get(0); got != 50 {
		t.Errorf("b DBVV[0] = %d, want 50", got)
	}
	checkAll(t, a, b)
}

func TestConflictDetectionOnPropagation(t *testing.T) {
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, a, "x", "from-a")
	mustUpdate(t, b, "x", "from-b") // concurrent update: conflict

	AntiEntropy(b, a)
	conflicts := b.Conflicts()
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %d, want 1", len(conflicts))
	}
	c := conflicts[0]
	if c.Key != "x" || c.Stage != "accept" || c.Source != 0 {
		t.Errorf("conflict = %+v", c)
	}
	// Criterion 2: propagation must not overwrite either copy.
	if got := readString(t, b, "x"); got != "from-b" {
		t.Errorf("conflicting copy overwritten: b.x = %q", got)
	}
	if got := readString(t, a, "x"); got != "from-a" {
		t.Errorf("a.x = %q", got)
	}
	checkAll(t, a, b)
}

func TestConflictRecordsPurgedFromTails(t *testing.T) {
	// A conflicting item's records are removed from the tails; records for
	// other items still apply.
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, a, "bad", "a-version")
	mustUpdate(t, a, "good", "a-data")
	mustUpdate(t, b, "bad", "b-version")

	AntiEntropy(b, a)
	if got := readString(t, b, "good"); got != "a-data" {
		t.Errorf("good item not copied: %q", got)
	}
	if got := readString(t, b, "bad"); got != "b-version" {
		t.Errorf("conflicting item overwritten: %q", got)
	}
	// The record for "bad" must not be in b's log for origin 0.
	m := b.Metrics()
	if m.LogRecordsApplied != 1 {
		t.Errorf("log records applied = %d, want 1 (conflict purged)", m.LogRecordsApplied)
	}
}

func TestConflictHandlerOption(t *testing.T) {
	var got []Conflict
	b := NewReplica(1, 2, WithConflictHandler(func(c Conflict) { got = append(got, c) }))
	a := NewReplica(0, 2)
	mustUpdate(t, a, "x", "1")
	mustUpdate(t, b, "x", "2")
	AntiEntropy(b, a)
	if len(got) != 1 {
		t.Fatalf("custom handler received %d conflicts, want 1", len(got))
	}
	if len(b.Conflicts()) != 0 {
		t.Error("default recorder used despite custom handler")
	}
	if b.Metrics().ConflictsDetected != 1 {
		t.Error("conflict not counted")
	}
}

func TestConflictString(t *testing.T) {
	c := Conflict{Key: "k", Local: vv.VV{1, 0}, Remote: vv.VV{0, 1}, Source: 3, Stage: "accept"}
	want := `conflict on "k" at stage accept: local <1,0> vs remote <0,1> (source 3)`
	if got := c.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestStalePropagationIsIdempotent(t *testing.T) {
	// Apply the same propagation twice: the second apply must be a no-op
	// (items equal, records filtered by the pre-session DBVV).
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, a, "x", "v")
	req := b.PropagationRequest()
	p := a.BuildPropagation(req)
	b.ApplyPropagation(p)
	dbvv := b.DBVV()
	b.ApplyPropagation(p) // replay
	if !b.DBVV().Equal(dbvv) {
		t.Errorf("replayed propagation changed DBVV: %v -> %v", dbvv, b.DBVV())
	}
	if got := b.Metrics().LogRecordsApplied; got != 1 {
		t.Errorf("log records applied = %d, want 1", got)
	}
	checkAll(t, a, b)
}

func TestInterleavedSessionsFromTwoSources(t *testing.T) {
	// b starts sessions with a and c concurrently; the interleaving where c
	// delivers a newer copy before a's (now stale) reply lands must be
	// handled (the DominatedBy defensive branch).
	a, b, c := NewReplica(0, 3), NewReplica(1, 3), NewReplica(2, 3)
	mustUpdate(t, a, "x", "old")
	AntiEntropy(c, a)
	mustUpdate(t, c, "x", "newer") // c now strictly newer than a

	reqA := b.PropagationRequest()
	pA := a.BuildPropagation(reqA) // stale payload built first
	AntiEntropy(b, c)              // fresh copy lands
	b.ApplyPropagation(pA)         // stale payload arrives last

	if got := readString(t, b, "x"); got != "newer" {
		t.Errorf("stale payload overwrote fresh copy: %q", got)
	}
	if b.Metrics().AnomaliesIgnored == 0 {
		t.Error("expected the dominated payload to be counted as ignored")
	}
	checkAll(t, a, b, c)
}

func TestApplyNilPropagationIsNoop(t *testing.T) {
	b := NewReplica(1, 2)
	b.ApplyPropagation(nil)
	if b.Items() != 0 {
		t.Error("nil propagation mutated state")
	}
}

func TestPropagationWireSize(t *testing.T) {
	var nilProp *Propagation
	if nilProp.WireSize() != 16 {
		t.Errorf("nil WireSize = %d, want 16", nilProp.WireSize())
	}
	p := &Propagation{
		Tails: [][]TailRecord{{{Item: 0, Seq: 1}}},
		Items: []ItemPayload{{Key: "ab", Value: []byte("xyz"), IVV: vv.New(2)}},
	}
	// Exact codec terms: source varint (1) + item count (1) + slab header
	// (1+1) + item flags (1) + key (1+2) + value "xyz" (1+3) + IVV <0,0>
	// (3) + tail count (1) + per-tail count (1) + record position delta (1)
	// + seq delta (1) = 19.
	if got := p.WireSize(); got != 19 {
		t.Errorf("WireSize = %d, want 19", got)
	}
	if p.RecordCount() != 1 || nilProp.RecordCount() != 0 {
		t.Error("RecordCount wrong")
	}
}

func key(i int) string {
	return "item-" + string(rune('a'+i%26)) + "-" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

func makeReplicas(n int) []*Replica {
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = NewReplica(i, n)
	}
	return reps
}

func TestDBVVEqualsSumOfIVVsAfterManyExchanges(t *testing.T) {
	reps := makeReplicas(4)
	for round := 0; round < 10; round++ {
		for i, r := range reps {
			mustUpdate(t, r, key((round*7+i)%13), "v")
		}
		for i := range reps {
			AntiEntropy(reps[i], reps[(i+1)%4])
		}
	}
	checkAll(t, reps...) // includes the DBVV = Σ IVV invariant
}

func TestValuesConvergeByteExact(t *testing.T) {
	reps := makeReplicas(3)
	mustUpdate(t, reps[0], "doc", "alpha")
	if err := reps[0].Update("doc", op.NewAppend([]byte("-beta"))); err != nil {
		t.Fatal(err)
	}
	AntiEntropy(reps[1], reps[0])
	AntiEntropy(reps[2], reps[1])
	for _, r := range reps {
		v, _ := r.Read("doc")
		if !bytes.Equal(v, []byte("alpha-beta")) {
			t.Errorf("node %d doc = %q", r.ID(), v)
		}
	}
}
