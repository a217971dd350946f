package transport

import (
	"repro/internal/core"
	"repro/internal/wire"
)

// testClient runs the tests' one-off exchanges.
var testClient = NewClient(Options{})

// node wraps r as the one-partition node every full replica is served and
// pulled as. The node, not r, is charged for the negotiation round's wire
// bytes.
func node(r *core.Replica) *core.Partitioned {
	pr, err := core.RestorePartitioned(r.ID(), r.Servers(), 1, r.Servers(), map[int]*core.Replica{0: r})
	if err != nil {
		panic(err)
	}
	return pr
}

// pullWith is one in-memory pull of r, as a one-partition node, through c.
func pullWith(c *Client, r *core.Replica, addr string) (bool, error) {
	shipped, err := c.PullPart(node(r), []core.Sink{core.InMemory(r)}, addr)
	return shipped > 0, err
}

// pull is one in-memory pull through testClient.
func pull(r *core.Replica, addr string) (bool, error) {
	return pullWith(testClient, r, addr)
}

// pullStream drains r's one partition over a chunked session through c,
// whatever the payload's size.
func pullStream(c *Client, r *core.Replica, addr string) (bool, error) {
	return core.Drain(core.InMemory(r), 0, peer{c: c, addr: addr, node: node(r)})
}

// fetchOOB is one in-memory out-of-bound copy through testClient.
func fetchOOB(r *core.Replica, addr, key string) (bool, error) {
	return testClient.FetchOOB(core.InMemory(r), addr, key)
}

// memSinks adapts every partition pr replicates, indexed by pid.
func memSinks(pr *core.Partitioned) []core.Sink {
	sinks := make([]core.Sink, pr.Ring().Partitions())
	for _, pid := range pr.Owned() {
		sinks[pid] = core.InMemory(pr.Partition(pid))
	}
	return sinks
}

// pullPart is one in-memory partitioned pull through testClient.
func pullPart(pr *core.Partitioned, addr string) (int, error) {
	return testClient.PullPart(pr, memSinks(pr), addr)
}

// roundTrip runs one raw exchange through testClient's pool.
func roundTrip(addr string, req wire.Request, resp *wire.Response) error {
	_, err := testClient.pool.roundTrip(addr, &req, resp)
	return err
}
