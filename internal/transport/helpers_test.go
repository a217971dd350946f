package transport

import (
	"repro/internal/core"
	"repro/internal/wire"
)

// testClient runs the tests' one-off exchanges.
var testClient = NewClient(Options{})

// pull is one in-memory pull through testClient.
func pull(r *core.Replica, addr string) (bool, error) {
	return testClient.Pull(InMemory(r), addr)
}

// fetchOOB is one in-memory out-of-bound copy through testClient.
func fetchOOB(r *core.Replica, addr, key string) (bool, error) {
	return testClient.FetchOOB(InMemory(r), addr, key)
}

// memSinks adapts every partition pr replicates, indexed by pid.
func memSinks(pr *core.Partitioned) []Sink {
	sinks := make([]Sink, pr.Ring().Partitions())
	for _, pid := range pr.Owned() {
		sinks[pid] = InMemory(pr.Partition(pid))
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
