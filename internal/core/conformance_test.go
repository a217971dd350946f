package core

// Paper-conformance tests: each test pins one exactly-stated behaviour of
// Rabinovich, Gehani & Kononov (EDBT 1996) to a hand-worked example, with
// the paper section it checks. These are deliberately concrete — specific
// vectors, sequence numbers and log contents — so a deviation from the
// paper's arithmetic fails loudly.

import (
	"testing"

	"repro/internal/op"
	"repro/internal/vv"
)

// §4.1 rule 2: "When node i performs an update to any data item in the
// database, it increments its component in the database version vector."
func TestConformanceDBVVRule2(t *testing.T) {
	r := NewReplica(1, 3)
	mustUpdate(t, r, "a", "1")
	mustUpdate(t, r, "b", "2")
	mustUpdate(t, r, "a", "3")
	if got := r.DBVV(); !got.Equal(vv.VV{0, 3, 0}) {
		t.Fatalf("V_1 = %v, want <0,3,0> after three updates at node 1", got)
	}
}

// §4.1 rule 3: "When a data item x is copied by i from another node j, i's
// DBVV is modified ... V_il += v_jl(x) - v_il(x)". Hand-worked: i has seen
// 2 of j's updates to x; j's copy reflects 5; copying adds exactly 3.
func TestConformanceDBVVRule3(t *testing.T) {
	j, i := NewReplica(0, 2), NewReplica(1, 2)
	// j performs 2 updates to x; i copies (sees 2).
	mustUpdate(t, j, "x", "v1")
	mustUpdate(t, j, "x", "v2")
	AntiEntropy(i, j)
	if got := i.DBVV(); !got.Equal(vv.VV{2, 0}) {
		t.Fatalf("setup: V_i = %v, want <2,0>", got)
	}
	// j performs 3 more updates to x (now 5), plus 4 updates to y.
	for k := 0; k < 3; k++ {
		mustUpdate(t, j, "x", "more")
	}
	for k := 0; k < 4; k++ {
		mustUpdate(t, j, "y", "other")
	}
	AntiEntropy(i, j)
	// x contributed 5-2=3, y contributed 4-0=4: V_i0 = 2+3+4 = 9.
	if got := i.DBVV(); !got.Equal(vv.VV{9, 0}) {
		t.Fatalf("V_i = %v, want <9,0> (rule 3 arithmetic)", got)
	}
}

// §4.2: "A log record has a form (x, m), where ... m is the value of V_jj
// that node j had at the time of the update (including this update)."
func TestConformanceLogRecordSequence(t *testing.T) {
	j, i := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, j, "a", "1") // V_00 = 1 -> record (a,1)
	mustUpdate(t, j, "b", "2") // V_00 = 2 -> record (b,2)
	mustUpdate(t, j, "a", "3") // V_00 = 3 -> record (a,3), supersedes (a,1)

	p := j.BuildPropagation(i.PropagationRequest())
	if p == nil {
		t.Fatal("expected a propagation")
	}
	tail := p.Tails[0]
	if len(tail) != 2 {
		t.Fatalf("tail = %v, want 2 records (latest per item)", tail)
	}
	// Oldest first: (b,2) then (a,3).
	if !recordIs(p, tail[0], "b", 2) || !recordIs(p, tail[1], "a", 3) {
		t.Fatalf("tail = %v, want [(b,2) (a,3)]", tail)
	}
}

// recordIs reports whether rec is the log record (key, seq): rec points at
// an item of p carrying key.
func recordIs(p *Propagation, rec TailRecord, key string, seq uint64) bool {
	return int(rec.Item) < len(p.Items) && p.Items[rec.Item].Key == key && rec.Seq == seq
}

// Fig. 2: "if (V_jk > V_ik) { D_k = Tail of L_jk containing records (x,m)
// such that m > V_ik }" — the tail is selected by the *recipient's* DBVV
// component, not by item state.
func TestConformanceTailSelection(t *testing.T) {
	j, i := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, j, "a", "1")
	mustUpdate(t, j, "b", "2")
	AntiEntropy(i, j) // i now has V_i0 = 2
	mustUpdate(t, j, "c", "3")
	mustUpdate(t, j, "a", "4")

	p := j.BuildPropagation(i.PropagationRequest())
	tail := p.Tails[0]
	if len(tail) != 2 {
		t.Fatalf("tail = %v, want records with m > 2 only", tail)
	}
	if !recordIs(p, tail[0], "c", 3) || !recordIs(p, tail[1], "a", 4) {
		t.Fatalf("tail = %v, want [(c,3) (a,4)]", tail)
	}
	// And S is exactly the union of referenced items: {a, c}, not b.
	keys := map[string]bool{}
	for _, it := range p.Items {
		keys[it.Key] = true
	}
	if len(keys) != 2 || !keys["a"] || !keys["c"] {
		t.Fatalf("S = %v, want {a c}", keys)
	}
}

// Fig. 2: "if V_i dominates or equals V_j { send you-are-current }" — the
// check is dominates-OR-equals, so a recipient strictly AHEAD of the
// source is also told it is current.
func TestConformanceYouAreCurrentWhenAhead(t *testing.T) {
	j, i := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, j, "x", "v")
	AntiEntropy(i, j)
	mustUpdate(t, i, "y", "extra") // i strictly dominates j now
	if p := j.BuildPropagation(i.PropagationRequest()); p != nil {
		t.Fatal("source built a propagation for a recipient that dominates it")
	}
}

// §4.4: auxiliary records store "the IVV that the auxiliary copy of x had
// at the time the update was applied (excluding this update)".
func TestConformanceAuxRecordExclusiveIVV(t *testing.T) {
	j, i := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, j, "x", "base")
	i.CopyOutOfBound("x", j) // aux IVV = <1,0>
	if err := i.Update("x", op.NewAppend([]byte("+1"))); err != nil {
		t.Fatal(err)
	}
	// The earliest (only) aux record must carry pre-IVV <1,0>, not <1,1>.
	snap := i.Snapshot()
	if snap.AuxRecords != 1 {
		t.Fatalf("aux records = %d", snap.AuxRecords)
	}
	// Reach the record through intra-node behaviour: catching the regular
	// copy to <1,0> must make the record applicable immediately.
	AntiEntropy(i, j)
	if i.AuxRecords() != 0 {
		t.Fatal("record with exclusive pre-IVV <1,0> did not apply once regular copy reached <1,0>")
	}
	v, _ := i.Read("x")
	if string(v) != "base+1" {
		t.Fatalf("replay result = %q", v)
	}
}

// Fig. 4: applying an auxiliary record performs "all actions normally done
// when a node performs an update on the regular copy": v_ii(x)++ , V_ii++
// and a log record (x, V_ii) appended to L_ii.
func TestConformanceIntraNodeActsAsLocalUpdate(t *testing.T) {
	j, i := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, j, "x", "base")
	i.CopyOutOfBound("x", j)
	i.Update("x", op.NewAppend([]byte("+a")))
	AntiEntropy(i, j) // triggers replay

	ivv, _ := i.ReadIVV("x")
	if !ivv.Equal(vv.VV{1, 1}) {
		t.Fatalf("v_i(x) = %v, want <1,1> (one j-update + one replayed i-update)", ivv)
	}
	if got := i.DBVV(); !got.Equal(vv.VV{1, 1}) {
		t.Fatalf("V_i = %v, want <1,1>", got)
	}
	// The replayed update must now propagate from i as an ordinary update:
	// j pulls and receives a tail record from origin 1 with seq 1.
	p := i.BuildPropagation(j.PropagationRequest())
	if p == nil || len(p.Tails[1]) != 1 || !recordIs(p, p.Tails[1][0], "x", 1) {
		t.Fatalf("tails = %+v, want [(x,1)] from origin 1", p)
	}
}

// §5.2: "j sends the auxiliary copy (if it exists), or the regular copy
// (otherwise)" and "the auxiliary copy of a data item (if exists) is never
// older than the regular copy."
func TestConformanceOOBServesAuxFirst(t *testing.T) {
	j, i := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, j, "x", "regular-v1")
	i.CopyOutOfBound("x", j)
	i.Update("x", op.NewAppend([]byte("+aux")))

	reply := i.ServeOOB("x")
	if string(reply.Value) != "regular-v1+aux" {
		t.Fatalf("ServeOOB = %q, want the auxiliary copy", reply.Value)
	}
	// Aux IVV <1,1> dominates regular IVV <1,0>: never older.
	regIVV, _ := i.ItemIVV("x")
	if !reply.IVV.DominatesOrEqual(regIVV) {
		t.Fatalf("aux IVV %v older than regular %v", reply.IVV, regIVV)
	}
}

// §5.1 footnote 2: "out-of-bound copying never reduces the amount of work
// done during update propagation" — the DBVV and logs are untouched by OOB.
func TestConformanceOOBNeverReducesPropagation(t *testing.T) {
	j, i := NewReplica(0, 2), NewReplica(1, 2)
	for k := 0; k < 5; k++ {
		mustUpdate(t, j, key(k), "v")
	}
	// i copies EVERY item out of bound.
	for k := 0; k < 5; k++ {
		i.CopyOutOfBound(key(k), j)
	}
	// Propagation still ships all 5 items.
	base := j.Metrics()
	AntiEntropy(i, j)
	if got := j.Metrics().Diff(base).ItemsSent; got != 5 {
		t.Fatalf("items sent = %d, want 5 despite prior OOB copies", got)
	}
}

// §3 / Theorem 3 corollary 2: after a partial exchange, the recipient's
// missing updates "are the last updates from server k that were applied" —
// per-origin prefix ordering, observable through the DBVV.
func TestConformancePrefixOrdering(t *testing.T) {
	j, i := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, j, "a", "1") // j's update #1
	mustUpdate(t, j, "b", "2") // #2
	mustUpdate(t, j, "c", "3") // #3
	AntiEntropy(i, j)
	// i has seen exactly the first 3 updates of j — never a subset like
	// {#1,#3}. DBVV = 3 and each item present.
	if got := i.DBVV(); !got.Equal(vv.VV{3, 0}) {
		t.Fatalf("V_i = %v", got)
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := i.Read(k); !ok {
			t.Fatalf("item %q missing: prefix broken", k)
		}
	}
}

// §6: "the message sent from the source ... includes data items being
// propagated plus constant amount of information per data item" — the
// paper's wire-cost model, checked through WireSize.
func TestConformanceConstantPerItemOverhead(t *testing.T) {
	j, i := NewReplica(0, 2), NewReplica(1, 2)
	valueBytes := 0
	for k := 0; k < 8; k++ {
		v := make([]byte, 100)
		valueBytes += len(v)
		mustUpdate(t, j, key(k), string(v))
	}
	p := j.BuildPropagation(i.PropagationRequest())
	overhead := int(p.WireSize()) - valueBytes
	perItem := overhead / 8
	// Constant information per item: key + IVV + record, well under 100B
	// at n=2 with short keys.
	if perItem > 100 {
		t.Fatalf("per-item overhead = %dB, not constant-small", perItem)
	}
}
