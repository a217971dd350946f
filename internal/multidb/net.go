package multidb

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/transport"
)

// Serve starts a TCP server answering propagation, fetch and out-of-bound
// requests for every database attached to s. Requests carry the database
// name in the DB field of every request frame; unknown names are
// rejected.
func (s *Server) Serve(addr string) (*transport.Server, error) {
	return transport.ListenMulti(s, addr)
}

// PullStats summarizes one multi-database pull over TCP.
//
//epi:notshared per-pull tally value returned to one caller
type PullStats struct {
	Shipped int // databases where data moved
	Skipped int // databases already current (O(1) each)
}

// PullAll pulls every locally attached database from the multi-database
// server at addr, one independent protocol session per database. All
// sessions ride the default pooled transport client, so after the first
// dial the remaining databases reuse the same warm framed connection; each
// session's measured wire cost is charged to its database's replica.
// Databases the remote side does not carry are reported as errors by the
// remote and skipped here.
func (s *Server) PullAll(addr string) (PullStats, error) {
	var stats PullStats
	c := transport.DefaultClient
	for _, name := range s.Databases() {
		replica := s.Database(name)
		if replica == nil {
			continue
		}
		p, err := c.PullSessionMetered(replica, addr, name, replica.ID(), replica.PropagationRequest())
		if err != nil {
			return stats, fmt.Errorf("multidb: pull %q: %w", name, err)
		}
		if p == nil {
			stats.Skipped++
			continue
		}
		var items []core.ItemPayload
		if need := replica.NeedFull(p); len(need) > 0 {
			items, err = c.FetchItemsMetered(replica, addr, name, replica.ID(), need)
			if err != nil {
				return stats, fmt.Errorf("multidb: fetch %q: %w", name, err)
			}
		}
		replica.ApplyPropagationWithItems(p, items)
		stats.Shipped++
	}
	return stats, nil
}
