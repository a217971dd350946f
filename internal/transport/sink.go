package transport

import "repro/internal/core"

// Sink is what a pull applies into. Core gives the replica the session
// reads its DBVV from and charges its wire cost to; the three Apply methods
// commit what the source shipped. A durable replica (internal/durable)
// satisfies Sink directly and write-ahead logs every commit; InMemory
// adapts a volatile replica.
//
// The sink's type also decides how a session may arrive. Only the
// in-memory adapter announces DefaultMonolithicCap and so may be diverted
// to a chunked stream: streamed chunks apply straight to the replica, past
// any log a durable sink keeps, so every other sink asks for uncapped
// inline payloads.
type Sink interface {
	Core() *core.Replica
	ApplyPropagationWithItems(p *core.Propagation, items []core.ItemPayload) error
	ApplyReconcileItems(items []core.ItemPayload, source int) (int, error)
	ApplyOOB(reply core.OOBReply, source int) (bool, error)
}

// InMemory adapts a volatile replica as a Sink. Its applies cannot fail.
func InMemory(r *core.Replica) Sink { return memSink{r} }

type memSink struct {
	r *core.Replica //epi:immutable
}

func (m memSink) Core() *core.Replica { return m.r }

func (m memSink) ApplyPropagationWithItems(p *core.Propagation, items []core.ItemPayload) error {
	m.r.ApplyPropagationWithItems(p, items)
	return nil
}

func (m memSink) ApplyReconcileItems(items []core.ItemPayload, source int) (int, error) {
	return m.r.ApplyReconcileItems(items, source), nil
}

func (m memSink) ApplyOOB(reply core.OOBReply, source int) (bool, error) {
	return m.r.ApplyOOB(reply, source), nil
}

// monolithicCap is the inline-payload ceiling a pull into sinks announces:
// DefaultMonolithicCap when every sink is in memory, so oversized payloads
// stream, and zero (uncapped, never streamed) otherwise.
func monolithicCap(sinks ...Sink) uint64 {
	for _, s := range sinks {
		if _, mem := s.(memSink); s != nil && !mem {
			return 0
		}
	}
	return DefaultMonolithicCap
}
