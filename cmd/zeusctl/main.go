// Command zeusctl drives a running Zeus cluster's view-service ensemble from
// the outside: inspect the committed view, admit a node, report a failure, or
// retire a member. It speaks the same wire protocol as the data nodes,
// attaching as the well-known client id on an ephemeral port (the replicas
// answer over the inbound connection, so zeusctl needs no listed address).
//
//	zeusctl -view :7100,:7101,:7102 status
//	zeusctl -view :7100,:7101,:7102 metrics -node 0
//	zeusctl -view :7100,:7101,:7102 join  -node 3 -addr 127.0.0.1:7003
//	zeusctl -view :7100,:7101,:7102 fail  -node 3
//	zeusctl -view :7100,:7101,:7102 leave -node 3
//
// status additionally pulls each live node's observability header (applied
// watermark, safe-time lag, commits, incidents) over the data plane;
// metrics pulls one node's full metric registry.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

func main() {
	viewFlag := flag.String("view", "", "comma-separated addresses of the view-service replicas (required)")
	node := flag.Int("node", -1, "target data node id (join/fail/leave)")
	addr := flag.String("addr", "", "advertised address of the joining node (join)")
	timeout := flag.Duration("timeout", 15*time.Second, "how long to wait for the command to take effect")
	flag.Usage = usage
	flag.Parse()

	cmd := flag.Arg(0)
	if cmd == "" || *viewFlag == "" {
		usage()
		os.Exit(2)
	}
	viewAddrs := splitAddrs(*viewFlag)
	replicaIDs := viewsvc.ReplicaIDs(len(viewAddrs))
	book := make(map[wire.NodeID]string, len(replicaIDs))
	for i, rid := range replicaIDs {
		book[rid] = viewAddrs[i]
	}

	tr, err := transport.NewTCP(viewsvc.ClientID, "127.0.0.1:0", book)
	if err != nil {
		log.Fatalf("zeusctl: %v", err)
	}
	defer tr.Close()
	// Detached client + router (the zeusd pattern): view-service traffic is
	// steered to the client while ObsState replies from data nodes land in
	// obsCh for the metrics/status commands.
	router := transport.NewRouter()
	cli := viewsvc.NewClientDetached(viewsvc.Config{}, tr, replicaIDs, 0, nil)
	defer cli.Close()
	router.HandleMany(cli.Handle, wire.KindVSCommit, wire.KindVSQuery)
	obsCh := make(chan *wire.ObsState, 8)
	router.Handle(wire.KindObsState, func(from wire.NodeID, m wire.Msg) {
		select {
		case obsCh <- m.(*wire.ObsState):
		default:
		}
	})
	tr.SetHandler(router.Dispatch)

	// The cached state is a local zero until the ensemble answers;
	// WaitEpoch re-queries, doubling as the contact retry loop.
	deadline := time.Now().Add(*timeout)
	for !cli.Heard() {
		if time.Now().After(deadline) {
			log.Fatalf("zeusctl: no contact with view ensemble at %v", viewAddrs)
		}
		cli.WaitEpoch(cli.State().Epoch+1, 500*time.Millisecond)
	}

	switch cmd {
	case "status":
		s := cli.State()
		printStatus(s)
		printNodeRows(tr, obsCh, s)
	case "metrics":
		requireNode(*node)
		st, err := fetchObs(tr, obsCh, cli.State(), wire.NodeID(*node), true, *timeout)
		if err != nil {
			log.Fatalf("zeusctl: %v", err)
		}
		fmt.Printf("# node %d  epoch=%d applied_wm=%d safe_time=%d clock=%d commits=%d incidents=%d\n",
			st.From, st.Epoch, st.AppliedWM, st.SafeTime, st.Clock, st.Commits, st.Incidents)
		os.Stdout.Write(st.Metrics)
	case "join":
		requireNode(*node)
		if *addr == "" {
			log.Fatalf("zeusctl: join requires -addr (the address peers dial)")
		}
		if !cli.JoinAddr(wire.NodeID(*node), *addr) {
			log.Fatalf("zeusctl: join of node %d did not commit", *node)
		}
		fmt.Printf("node %d joined (epoch %d)\n", *node, cli.State().Epoch)
	case "fail":
		requireNode(*node)
		// Fail is asynchronous — the view change waits out the failed
		// node's lease — so poll for the committed removal.
		cli.Fail(wire.NodeID(*node))
		for cli.State().Live.Contains(wire.NodeID(*node)) {
			if time.Now().After(deadline) {
				log.Fatalf("zeusctl: node %d still live after %v", *node, *timeout)
			}
			time.Sleep(50 * time.Millisecond)
		}
		fmt.Printf("node %d removed (epoch %d)\n", *node, cli.State().Epoch)
	case "leave":
		requireNode(*node)
		if !cli.Leave(wire.NodeID(*node)) {
			log.Fatalf("zeusctl: leave of node %d did not commit", *node)
		}
		fmt.Printf("node %d left (epoch %d)\n", *node, cli.State().Epoch)
	default:
		usage()
		os.Exit(2)
	}
}

func printStatus(s wire.VSState) {
	fmt.Printf("epoch:    %d (log index %d)\n", s.Epoch, s.Index)
	fmt.Printf("live:     %s\n", s.Live)
	if s.Barrier != 0 {
		fmt.Printf("barrier:  %s (epoch %d) — recovery in progress\n", s.Barrier, s.BarrierEpoch)
	} else {
		fmt.Printf("barrier:  closed (last epoch %d)\n", s.BarrierEpoch)
	}
	if !s.Placement.IsZero() {
		fmt.Printf("dirs:     %d shards\n", len(s.Placement.Shards))
	}
	for _, a := range s.Addrs {
		fmt.Printf("node %-3d  %s\n", a.Node, a.Addr)
	}
}

// printNodeRows polls every live node over ObsPull and prints its applied
// watermark, safe-time lag and commit/incident counts — the per-node health
// row of `zeusctl status`. Nodes that do not answer in time (e.g. still
// recovering) are reported as unreachable rather than failing the command.
func printNodeRows(tr *transport.TCP, ch chan *wire.ObsState, s wire.VSState) {
	for _, id := range s.Live.Nodes() {
		st, err := fetchObs(tr, ch, s, id, false, 2*time.Second)
		if err != nil {
			fmt.Printf("node %-3d  (no obs reply: %v)\n", id, err)
			continue
		}
		lag := "-"
		if st.SafeTime > 0 && st.Clock > st.SafeTime {
			lag = time.Duration(st.Clock - st.SafeTime).String()
		}
		fmt.Printf("node %-3d  applied_wm=%-12d safe_lag=%-10s commits=%-8d incidents=%d\n",
			id, st.AppliedWM, lag, st.Commits, st.Incidents)
	}
}

// fetchObs pulls one node's observability state: resolve the node's address
// from the replicated book, send ObsPull (full = include the rendered
// metrics) and wait for the matching reply, re-sending until the deadline.
func fetchObs(tr *transport.TCP, ch chan *wire.ObsState, s wire.VSState, node wire.NodeID, full bool, timeout time.Duration) (*wire.ObsState, error) {
	addr := ""
	for _, a := range s.Addrs {
		if a.Node == node {
			addr = a.Addr
		}
	}
	if addr == "" {
		return nil, fmt.Errorf("no address for node %d in the replicated book", node)
	}
	tr.SetAddr(node, addr)
	deadline := time.Now().Add(timeout)
	for {
		_ = tr.Send(node, &wire.ObsPull{From: viewsvc.ClientID, Full: full})
		select {
		case st := <-ch:
			if st.From == node {
				return st, nil
			}
		case <-time.After(300 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("node %d did not answer within %v", node, timeout)
		}
	}
}

func requireNode(n int) {
	if n < 0 || wire.NodeID(n) > viewsvc.MaxDataNode {
		log.Fatalf("zeusctl: -node is required (0..%d)", viewsvc.MaxDataNode)
	}
}

func splitAddrs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: zeusctl -view addr1,addr2,addr3 <command> [flags]

commands:
  status   print the committed view: epoch, live set, recovery barrier,
           directory placement, the replicated address book, and each live
           node's applied watermark / safe-time lag / commit count
  metrics  pull node -node's full metrics registry (text rendering)
  join     admit node -node at address -addr
  fail     report node -node failed (waits for the committed removal)
  leave    retire node -node gracefully

flags:
`)
	flag.PrintDefaults()
}
