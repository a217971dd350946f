package wire

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vv"
)

// buildSession populates a two-node pair so that the source holds m
// updated items the recipient has not seen, and returns the source, the
// recipient's DBVV, and the built propagation.
func buildSession(t testing.TB, m, valueBytes int) (*core.Replica, *core.Replica, *core.Propagation) {
	t.Helper()
	source, recipient := core.NewReplica(0, 2), core.NewReplica(1, 2)
	value := make([]byte, valueBytes)
	for i := range value {
		value[i] = byte(i)
	}
	for i := 0; i < m; i++ {
		if err := source.Update(fmt.Sprintf("item/%06d", i), op.NewSet(value)); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	p := source.BuildPropagation(recipient.PropagationRequest())
	if p == nil {
		t.Fatal("expected a non-nil propagation")
	}
	return source, recipient, p
}

// Propagation.WireSize gates the monolithic-vs-streaming choice and
// per-partition session planning, so it must track the bytes the codec
// actually emits. The contract is ±10%; the implementation mirrors the
// codec term for term, so the sizes should in fact be exact across
// payload shapes from one item to fifty thousand.
func TestWireSizeWithinTenPercentOfEncoding(t *testing.T) {
	cases := []struct {
		m, valueBytes int
	}{
		{1, 0},
		{1, 3},
		{1, 4096},
		{64, 100},
		{64, 1},
		{50000, 16},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("m%d_v%d", tc.m, tc.valueBytes), func(t *testing.T) {
			_, _, p := buildSession(t, tc.m, tc.valueBytes)
			actual := len(AppendPropagation(nil, p))
			est := p.WireSize()
			if lo, hi := uint64(actual)*9/10, uint64(actual)*11/10; est < lo || est > hi {
				t.Fatalf("m=%d: WireSize estimate %d outside ±10%% of actual %d bytes", tc.m, est, actual)
			}
			if est != uint64(actual) {
				t.Errorf("m=%d: WireSize %d != encoded %d — estimator drifted from the codec", tc.m, est, actual)
			}
		})
	}
}

// Delta payloads take the chain-encoding branch of the size accounting;
// they must stay exact too (sampleProp carries a two-link delta chain).
func TestWireSizeExactForDeltaPayloads(t *testing.T) {
	p := sampleProp()
	actual := len(AppendPropagation(nil, p))
	if est := p.WireSize(); est != uint64(actual) {
		t.Fatalf("delta WireSize %d != encoded %d", est, actual)
	}
}

// PlanPropagation's internal estimate gates the same decision before any
// payload exists: a cap just above the actual encoded size must choose
// the monolithic path, a cap just below it must divert to streaming —
// i.e. the planner's threshold sits within ±10% of reality.
func TestPlanPropagationThresholdTracksEncoding(t *testing.T) {
	for _, m := range []int{1, 64, 50000} {
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			source, recipient, p := buildSession(t, m, 64)
			actual := uint64(len(AppendPropagation(nil, p)))
			if plan := source.PlanPropagation(recipient.DBVV(), actual*11/10); plan != core.PlanMonolithic {
				t.Fatalf("m=%d: cap 10%% above actual %d chose %v, want monolithic", m, actual, plan)
			}
			if plan := source.PlanPropagation(recipient.DBVV(), actual*9/10); plan != core.PlanStream {
				t.Fatalf("m=%d: cap 10%% below actual %d chose %v, want stream", m, actual, plan)
			}
		})
	}
}

// RequestWireSize mirrors AppendRequest term for term, including the
// kind-gated partition and reconcile sections (wirecheck's codec/size
// symmetry leg); it must be exact — not estimated — for every kind.
func TestRequestWireSizeExactAcrossKinds(t *testing.T) {
	reqs := []*Request{
		{Kind: KindPropagation, From: 1, DBVV: vv.VV{3, 1}},
		{Kind: KindOOB, From: 2, Key: "some/key"},
		{Kind: KindFetch, Keys: []string{"a", "a-much-longer-key-name"}},
		{Kind: KindStream, From: 128, DBVV: vv.VV{1 << 40, 0, 7}, MaxBytes: 1 << 20},
		{Kind: KindPartPropagation, From: 2,
			Parts: []core.PartState{{Pid: 0, DBVV: vv.VV{1}}, {Pid: 300, DBVV: vv.VV{0, 4}}}},
		{Kind: KindPartStream, From: 1, Part: 9, DBVV: vv.VV{2, 2}},
		{Kind: KindReconcile, From: 3, Part: 2, Ranges: sampleRanges()},
	}
	for _, req := range reqs {
		encoded := uint64(len(AppendRequest(nil, req)))
		if got := RequestWireSize(req); got != encoded {
			t.Errorf("kind %d: RequestWireSize = %d, encoded = %d", req.Kind, got, encoded)
		}
	}
}
