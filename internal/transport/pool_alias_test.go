package transport

import (
	"testing"

	"repro/internal/vv"
	"repro/internal/wire"
)

// Regression test for an aliasing hazard flagged by epilint's vvalias
// analyzer: the propagation-pull request used to capture the caller's
// vector directly. The request outlives the statement that builds it —
// the pool re-encodes it on the stale-connection retry path — so it must
// hold its own copy.
func TestPullRequestDoesNotAliasCallerVV(t *testing.T) {
	dbvv := vv.VV{1, 2, 3}
	req := offerRequest(4, dbvv)

	dbvv.Inc(0)
	if got := req.Parts[0].DBVV[0]; got != 1 {
		t.Fatalf("request DBVV aliases the caller's vector: component 0 = %d after caller Inc, want 1", got)
	}
	if req.Kind != wire.KindPartPropagation || req.From != 4 || len(req.Parts) != 1 || req.Parts[0].Pid != 0 {
		t.Fatalf("unexpected request fields: %+v", req)
	}
	if !req.Parts[0].DBVV.Equal(vv.VV{1, 2, 3}) {
		t.Fatalf("request DBVV = %v, want [1 2 3]", req.Parts[0].DBVV)
	}
}
