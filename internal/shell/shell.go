// Package shell implements the command processor behind cmd/epikv: an
// interactive key-value console over a live replica cluster. The processor
// is separated from terminal I/O so it can be tested directly.
package shell

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/op"
)

// Shell executes console commands against a cluster of live nodes. The
// active node is the one user operations are sent to; anti-entropy and
// out-of-bound commands name peers by index.
type Shell struct {
	nodes  []*cluster.Node
	active int
}

// New returns a shell over the given nodes, starting at node 0.
func New(nodes []*cluster.Node) *Shell {
	return &Shell{nodes: nodes}
}

// Active returns the index of the active node.
func (s *Shell) Active() int { return s.active }

// Prompt returns the console prompt for the current state.
func (s *Shell) Prompt() string {
	return fmt.Sprintf("node%d> ", s.active)
}

// Exec parses and executes one command line, returning its output. An
// empty line is a no-op. Errors are returned for display, never fatal.
func (s *Shell) Exec(line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil
	}
	cmd, args := strings.ToLower(fields[0]), fields[1:]
	switch cmd {
	case "help":
		return helpText, nil
	case "node":
		return s.cmdNode(args)
	case "put":
		return s.cmdUpdate(args, "put")
	case "append":
		return s.cmdUpdate(args, "append")
	case "del":
		return s.cmdDel(args)
	case "get":
		return s.cmdGet(args)
	case "keys":
		return s.cmdKeys()
	case "pull":
		return s.cmdPull(args)
	case "oob":
		return s.cmdOOB(args)
	case "sync":
		return s.cmdSync()
	case "parts":
		return s.cmdParts()
	case "log":
		return s.cmdLog()
	case "prune":
		return s.cmdPrune()
	case "stats":
		return s.cmdStats()
	case "status":
		return s.cmdStatus()
	default:
		return "", fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

const helpText = `commands:
  node <i>             switch the active node
  put <key> <value>    set an item's value at the active node
  append <key> <value> append to an item at the active node
  del <key>            truncate an item at the active node
  get <key>            read an item at the active node
  keys                 list items at the active node
  pull <i>             anti-entropy: active node pulls from node i
  oob <key> <i>        out-of-bound copy of one item from node i
  sync                 ring anti-entropy rounds until all nodes converge
  parts                keyspace partition placement (partitioned clusters)
  log                  log lengths, acked-peer watermarks and pruned floor
  prune                run one log-pruning pass on the active node
  stats                overhead counters of the active node
  status               per-node summary and convergence check
  help                 this text`

func (s *Shell) node(idx int) (*cluster.Node, error) {
	if idx < 0 || idx >= len(s.nodes) {
		return nil, fmt.Errorf("node %d out of range (0..%d)", idx, len(s.nodes)-1)
	}
	return s.nodes[idx], nil
}

func parseIndex(arg string) (int, error) {
	idx, err := strconv.Atoi(arg)
	if err != nil {
		return 0, fmt.Errorf("%q is not a node index", arg)
	}
	return idx, nil
}

func (s *Shell) cmdNode(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("usage: node <i>")
	}
	idx, err := parseIndex(args[0])
	if err != nil {
		return "", err
	}
	if _, err := s.node(idx); err != nil {
		return "", err
	}
	s.active = idx
	return fmt.Sprintf("active node is now %d", idx), nil
}

func (s *Shell) cmdUpdate(args []string, kind string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf("usage: %s <key> <value>", kind)
	}
	key := args[0]
	value := strings.Join(args[1:], " ")
	var o op.Op
	if kind == "append" {
		o = op.NewAppend([]byte(value))
	} else {
		o = op.NewSet([]byte(value))
	}
	if err := s.nodes[s.active].Update(key, o); err != nil {
		return "", err
	}
	return "ok", nil
}

func (s *Shell) cmdDel(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("usage: del <key>")
	}
	if err := s.nodes[s.active].Update(args[0], op.NewDelete()); err != nil {
		return "", err
	}
	return "ok", nil
}

func (s *Shell) cmdGet(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("usage: get <key>")
	}
	v, ok := s.nodes[s.active].Read(args[0])
	if !ok {
		return "(absent)", nil
	}
	return fmt.Sprintf("%q", v), nil
}

func (s *Shell) cmdKeys() (string, error) {
	var keys []string
	for _, snap := range s.nodes[s.active].Parted().Snapshot() {
		for _, it := range snap.Items {
			keys = append(keys, it.Key)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return "(empty)", nil
	}
	return strings.Join(keys, "\n"), nil
}

func (s *Shell) cmdPull(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("usage: pull <i>")
	}
	idx, err := parseIndex(args[0])
	if err != nil {
		return "", err
	}
	if idx == s.active {
		return "", fmt.Errorf("cannot pull from self")
	}
	peer, err := s.node(idx)
	if err != nil {
		return "", err
	}
	shipped, err := s.nodes[s.active].PullFrom(peer.Addr())
	if err != nil {
		return "", err
	}
	if !shipped {
		return "you-are-current (O(1) DBVV check)", nil
	}
	return "data shipped", nil
}

func (s *Shell) cmdOOB(args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf("usage: oob <key> <i>")
	}
	idx, err := parseIndex(args[1])
	if err != nil {
		return "", err
	}
	if idx == s.active {
		return "", fmt.Errorf("cannot copy from self")
	}
	peer, err := s.node(idx)
	if err != nil {
		return "", err
	}
	adopted, err := s.nodes[s.active].FetchOOB(peer.Addr(), args[0])
	if err != nil {
		return "", err
	}
	if !adopted {
		return "local copy is at least as new; nothing adopted", nil
	}
	return "adopted as auxiliary copy", nil
}

func (s *Shell) cmdSync() (string, error) {
	n := len(s.nodes)
	for round := 1; round <= 4*n; round++ {
		for i, node := range s.nodes {
			peer := s.nodes[(i+1)%n]
			if _, err := node.PullFrom(peer.Addr()); err != nil {
				return "", err
			}
		}
		if ok, _ := cluster.Converged(s.nodes); ok {
			return fmt.Sprintf("converged after %d ring round(s)", round), nil
		}
	}
	_, why := cluster.Converged(s.nodes)
	return "", fmt.Errorf("no convergence: %s", why)
}

// cmdParts renders the keyspace placement of a partitioned cluster: the
// ring geometry and which partitions each node replicates.
func (s *Shell) cmdParts() (string, error) {
	rg := s.nodes[s.active].Parted().Ring()
	if rg.Partitions() == 1 {
		return "", fmt.Errorf("cluster is not partitioned (start with -partitions > 1)")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d partitions, %d-way placement across %d nodes\n",
		rg.Partitions(), rg.Placement(), rg.Servers())
	for i := range s.nodes {
		marker := " "
		if i == s.active {
			marker = "*"
		}
		fmt.Fprintf(&sb, "%s node %d owns %v\n", marker, i, rg.OwnedBy(i))
	}
	return strings.TrimRight(sb.String(), "\n"), nil
}

// cmdLog renders the active node's log-bounding state, per owned
// partition: per-origin log lengths, the acked-DBVV lower bound held for
// each peer, the pruned watermark and the pruning configuration.
func (s *Shell) cmdLog() (string, error) {
	var sb strings.Builder
	pr := s.nodes[s.active].Parted()
	for _, pid := range pr.Owned() {
		r := pr.Partition(pid)
		fmt.Fprintf(&sb, "partition %d: log-records=%d pruned-before=%v\n", pid, r.LogRecords(), r.PrunedBefore())
		for k, l := range r.LogComponentLens() {
			fmt.Fprintf(&sb, "  origin %d: %d record(s)\n", k, l)
		}
		learned := false
		for j, v := range r.AckTable() {
			if v == nil {
				continue
			}
			learned = true
			fmt.Fprintf(&sb, "  acked by node %d: %v\n", j, v)
		}
		if !learned {
			sb.WriteString("  acked: (nothing learned yet)\n")
		}
		fmt.Fprintf(&sb, "  pruned-before: %v\n", r.PrunedBefore())
		fmt.Fprintf(&sb, "  prune-peers: %v  log-cap: %d\n", r.PrunePeers(), r.LogCap())
	}
	return strings.TrimRight(sb.String(), "\n"), nil
}

// cmdPrune runs one pruning pass on the active node.
func (s *Shell) cmdPrune() (string, error) {
	dropped := s.nodes[s.active].PruneOnce()
	return fmt.Sprintf("pruned %d record(s)", dropped), nil
}

func (s *Shell) cmdStats() (string, error) {
	m := s.nodes[s.active].Metrics()
	return m.String(), nil
}

func (s *Shell) cmdStatus() (string, error) {
	var sb strings.Builder
	for i, node := range s.nodes {
		marker := " "
		if i == s.active {
			marker = "*"
		}
		pr := node.Parted()
		logRecords := 0
		for _, snap := range pr.Snapshot() {
			logRecords += snap.LogRecords
		}
		fmt.Fprintf(&sb, "%s node %d @ %s: partitions=%v items=%d log-records=%d\n",
			marker, i, node.Addr(), pr.Owned(), pr.Items(), logRecords)
		if err := pr.CheckInvariants(); err != nil {
			fmt.Fprintf(&sb, "  INVARIANT VIOLATION: %v\n", err)
		}
	}
	if ok, why := cluster.Converged(s.nodes); ok {
		sb.WriteString("all replicas converged")
	} else {
		fmt.Fprintf(&sb, "not converged: %s", why)
	}
	return sb.String(), nil
}
