// Command epikv is an interactive key-value console over a live epidemic
// replica cluster: put/get at any node, trigger anti-entropy sessions and
// out-of-bound copies by hand, and watch DBVVs, logs and convergence.
//
// Usage:
//
//	epikv -nodes 3                        # volatile nodes on loopback
//	epikv -nodes 3 -datadir ./data        # durable nodes (survive restarts)
//	epikv -nodes 4 -partitions 8 -placement 2  # partial replication
//	epikv -nodes 3 -logcap 4              # bounded logs: `prune` passes laggards
//
// Then at the prompt: `help`.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/shell"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 3, "number of replica servers")
		dataDir    = flag.String("datadir", "", "make nodes durable under <datadir>/node-<i>")
		partitions = flag.Int("partitions", 1, "split the keyspace into this many token-ring partitions (>1 enables partial replication)")
		placement  = flag.Int("placement", 0, "replicas per partition (0 = every node; only with -partitions > 1)")
		logCap     = flag.Int("logcap", 0, "per-origin log record cap: `prune` passes laggard acks and laggards catch up via reconciliation (0 = ack-gated only)")
	)
	flag.Parse()

	ns, err := startNodes(*nodes, *dataDir, *partitions, *placement, *logCap)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.CloseAll(ns)

	for i, n := range ns {
		fmt.Printf("node %d listening on %s, owns partitions %v\n", i, n.Addr(), n.Parted().Owned())
	}
	fmt.Println(`type "help" for commands, ctrl-D to exit`)

	sh := shell.New(ns)
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print(sh.Prompt())
	for scanner.Scan() {
		out, err := sh.Exec(scanner.Text())
		if err != nil {
			fmt.Printf("error: %v\n", err)
		} else if out != "" {
			fmt.Println(out)
		}
		fmt.Print(sh.Prompt())
	}
	fmt.Println()
}

func startNodes(n int, dataDir string, partitions, placement, logCap int) ([]*cluster.Node, error) {
	nodes := make([]*cluster.Node, n)
	for i := 0; i < n; i++ {
		cfg := cluster.Config{
			ID: i, Servers: n,
			Partitions: partitions, Placement: placement,
			LogCap:         logCap,
			DurableOptions: durable.Options{},
		}
		if dataDir != "" {
			cfg.DataDir = fmt.Sprintf("%s/node-%d", dataDir, i)
		}
		node, err := cluster.Start(cfg)
		if err != nil {
			for _, prev := range nodes[:i] {
				if prev != nil {
					prev.Close()
				}
			}
			return nil, err
		}
		nodes[i] = node
	}
	for i, node := range nodes {
		var peers []string
		for j, other := range nodes {
			if j != i {
				peers = append(peers, other.Addr())
			}
		}
		node.SetPeers(peers)
	}
	return nodes, nil
}
