// Command zeusd runs one Zeus datastore node over real TCP sockets — the
// multi-process deployment. Every process attaches to ONE shared view-service
// ensemble (three replicas hosted by designated zeusd processes, -view-host,
// or by dedicated -view-only processes), so membership, failure detection,
// the recovery barrier and the directory placement are quorum-committed
// cluster state rather than per-process assumption.
//
// Founding a three-node cluster, each node hosting one view replica
// (three shells; identical -peers and -view everywhere, and the same
// -dir-shards on every process that hosts a view replica):
//
//	zeusd -id 0 -listen :7000 -view :7100,:7101,:7102 -view-host 0 -peers 0=:7000,1=:7001,2=:7002 -data /var/zeus/0
//	zeusd -id 1 -listen :7001 -view :7100,:7101,:7102 -view-host 1 -peers 0=:7000,1=:7001,2=:7002 -data /var/zeus/1
//	zeusd -id 2 -listen :7002 -view :7100,:7101,:7102 -view-host 2 -peers 0=:7000,1=:7001,2=:7002 -data /var/zeus/2
//
// Joining a running cluster needs no peer list — the replicated address book
// supplies it:
//
//	zeusd -id 3 -listen :7003 -view :7100,:7101,:7102 -join -data /var/zeus/3
//
// Restarting a crashed node is the same join command: the process first
// recovers from the WAL + snapshot in -data the objects it owned, rejoins the
// view, and takes them back through the directory (its reclaim) before
// serving. A process with -view-only hosts just its view replica and no data
// node. Use cmd/zeusctl to inspect or drive the ensemble from outside.
//
// The ownership directory (§6.2) has one placement authority: -dir-shards
// only seeds the ensemble's initial state, and every data node — founder or
// joiner, whatever its id — resolves object → shard → drivers from the
// placement the ensemble commits.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zeus/internal/core"
	"zeus/internal/obs"
	"zeus/internal/storage"
	"zeus/internal/storage/filestorage"
	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

func main() {
	id := flag.Int("id", 0, "this node's data-plane id (0..59)")
	listen := flag.String("listen", ":7000", "data-plane listen address")
	advertise := flag.String("advertise", "", "address peers should dial (default: -listen)")
	viewFlag := flag.String("view", "", "comma-separated addresses of the view-service replicas (required)")
	viewHost := flag.Int("view-host", -1, "host view replica k (0-based index into -view) in this process")
	viewListen := flag.String("view-listen", "", "listen address for the hosted view replica (default: the -view entry it serves)")
	viewOnly := flag.Bool("view-only", false, "host only the view replica, no data node")
	peersFlag := flag.String("peers", "", "founding members as id=host:port pairs (bootstrap only; joiners omit it)")
	join := flag.Bool("join", false, "join a running cluster (or rejoin after a crash) instead of founding one")
	dataDir := flag.String("data", "", "durable data directory (WAL + snapshots); empty = memory only")
	def := core.Config{}.WithDefaults()
	degree := flag.Int("degree", def.Degree, "replication degree")
	workers := flag.Int("workers", def.Workers, "worker threads")
	dirShards := flag.Int("dir-shards", 0, "ownership-directory shard count: seeds the view ensemble's initial placement, which every data node then follows (0 = host-scaled default; a non-zero value that contradicts the committed placement is fatal)")
	lease := flag.Duration("lease", 500*time.Millisecond, "membership lease (failure detection horizon)")
	obsAddr := flag.String("obs-addr", "", "observability HTTP listen address (/metrics, /debug/trace, /debug/incidents); empty = off")
	traceSample := flag.Uint64("trace-sample", 0, "sample every Nth write transaction with a per-phase trace (0 = off; needs -obs-addr)")
	watchdogAge := flag.Duration("watchdog-age", 0, "commit-debt watchdog threshold (0 = ZEUS_WATCHDOG_AGE or off)")
	demo := flag.Bool("demo", false, "run a small demo workload after startup")
	flag.Parse()

	viewAddrs := splitAddrs(*viewFlag)
	if len(viewAddrs) == 0 {
		log.Fatalf("zeusd: -view is required (the shared ensemble is the cluster's control plane)")
	}
	replicaIDs := viewsvc.ReplicaIDs(len(viewAddrs))

	var peers map[wire.NodeID]string
	var err error
	if *peersFlag != "" {
		if peers, err = parsePeers(*peersFlag); err != nil {
			log.Fatalf("zeusd: %v", err)
		}
	} else if !*join && !*viewOnly {
		log.Fatalf("zeusd: founding a cluster requires -peers (use -join to attach to a running one)")
	}
	var members wire.Bitmap
	var initialAddrs []wire.NodeAddr
	for nid, addr := range peers {
		members = members.Add(nid)
		initialAddrs = append(initialAddrs, wire.NodeAddr{Node: nid, Addr: addr})
	}
	sort.Slice(initialAddrs, func(i, j int) bool { return initialAddrs[i].Node < initialAddrs[j].Node })

	vcfg := viewsvc.Config{
		Lease:        *lease,
		DirShards:    *dirShards,
		InitialAddrs: initialAddrs,
		// Nobody reports a SIGKILLed process: the ensemble leader detects
		// silent nodes by lease expiry and proposes the failure itself.
		AutoFail: true,
	}

	// Hosted view replica (a designated zeusd or a -view-only process): its
	// own listener and transport identity at the top of the id space.
	if *viewHost >= 0 {
		if *viewHost >= len(viewAddrs) {
			log.Fatalf("zeusd: -view-host %d out of range (%d view replicas)", *viewHost, len(viewAddrs))
		}
		if peers == nil {
			log.Fatalf("zeusd: hosting a view replica requires -peers (the ensemble seeds the founding view)")
		}
		vln := *viewListen
		if vln == "" {
			vln = viewAddrs[*viewHost]
		}
		book := make(map[wire.NodeID]string, len(replicaIDs))
		for i, rid := range replicaIDs {
			book[rid] = viewAddrs[i]
		}
		vtr, err := transport.NewTCP(replicaIDs[*viewHost], vln, book)
		if err != nil {
			log.Fatalf("zeusd: view replica listener: %v", err)
		}
		defer vtr.Close()
		r := viewsvc.NewReplica(vcfg, replicaIDs, *viewHost, vtr, members)
		defer r.Close()
		log.Printf("zeusd: view replica %d serving on %s", *viewHost, vtr.Addr())
	}

	if *viewOnly {
		waitSignal()
		log.Printf("zeusd: view replica shutting down")
		return
	}

	if *id < 0 || wire.NodeID(*id) > viewsvc.MaxDataNode {
		log.Fatalf("zeusd: -id %d out of range (0..%d)", *id, viewsvc.MaxDataNode)
	}
	if *workers > core.MaxWorkers {
		log.Fatalf("zeusd: -workers %d out of range (at most %d)", *workers, core.MaxWorkers)
	}
	self := wire.NodeID(*id)
	if peers != nil {
		if _, ok := peers[self]; !ok {
			log.Fatalf("zeusd: own id %d missing from -peers", *id)
		}
	}
	adv := *advertise
	if adv == "" {
		adv = *listen
	}

	// One socket carries both planes: the data node's transport doubles as
	// the view-service client endpoint, with the router steering VS traffic
	// to the client. The book starts with the ensemble plus any founding
	// peers; the replicated address book extends it as nodes join.
	book := make(map[wire.NodeID]string, len(replicaIDs)+len(peers))
	for i, rid := range replicaIDs {
		book[rid] = viewAddrs[i]
	}
	for nid, addr := range peers {
		if nid != self {
			book[nid] = addr
		}
	}
	tr, err := transport.NewTCP(self, *listen, book)
	if err != nil {
		log.Fatalf("zeusd: %v", err)
	}
	defer tr.Close()

	cfg := core.Config{Degree: *degree, Workers: *workers, WatchdogAge: *watchdogAge}
	var stg storage.Storage
	if *dataDir != "" {
		fs, err := filestorage.Open(*dataDir)
		if err != nil {
			log.Fatalf("zeusd: open data dir: %v", err)
		}
		stg = fs
	}
	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		cfg.TraceSample = *traceSample
	}
	cli := viewsvc.NewClientDetached(vcfg, tr, replicaIDs, members, reg)
	defer cli.Close()
	node := core.NewNode(self, tr, cli.Agent(self), stg, reg, cfg)
	defer node.Close()
	if *obsAddr != "" {
		serveObs(*obsAddr, node.Obs())
	}
	// The router owns the shared socket's handler; view-service pushes and
	// query replies are steered to the detached client here.
	node.Router().HandleMany(cli.Handle, wire.KindVSCommit, wire.KindVSQuery)

	if *join {
		if err := joinCluster(node, tr, cli, self, adv, *dirShards); err != nil {
			log.Fatalf("zeusd: %v", err)
		}
	} else if *dataDir != "" && node.Incarnation() > 1 {
		// A founder restarted over an existing data dir (the durable
		// incarnation counter says a previous lifetime used it). It takes
		// the same path as an explicit rejoin: leave-then-join bumps the
		// epoch and has the survivors replay whatever the previous
		// incarnation left mid-flight, then the reclaim takes back the
		// objects it owned.
		if err := joinCluster(node, tr, cli, self, adv, *dirShards); err != nil {
			log.Fatalf("zeusd: founder rejoin: %v", err)
		}
	}

	go watchClusterState(tr, cli, self, *dirShards)

	log.Printf("zeusd: node %d serving on %s (advertised %s), view %v, epoch %d, live %s",
		*id, tr.Addr(), adv, viewAddrs, cli.View().Epoch, cli.View().Live)

	if *demo {
		runDemo(node, cli.View().Live)
	}

	waitSignal()
	log.Printf("zeusd: node %d shutting down", *id)
}

// joinCluster attaches this node to a running deployment: contact the
// ensemble, adopt its address book, verify the directory configuration, and
// run the rejoin sequence (core.Node.Rejoin: evict a still-live previous
// incarnation, commit the join, reclaim what the local WAL says it owned).
func joinCluster(node *core.Node, tr *transport.TCP, cli *viewsvc.Client, self wire.NodeID, adv string, dirShards int) error {
	// First contact: the cached state is a local seed (empty, for a joiner)
	// until the ensemble answers. WaitEpoch re-queries as a lost-push
	// backstop, so driving it doubles as the contact retry loop.
	deadline := time.Now().Add(15 * time.Second)
	for !cli.Heard() {
		if time.Now().After(deadline) {
			return fmt.Errorf("no contact with view ensemble (is it running?)")
		}
		cli.WaitEpoch(cli.View().Epoch+1, 500*time.Millisecond)
	}
	s := cli.State()
	if err := checkPlacement(s, dirShards); err != nil {
		return err
	}
	applyAddrs(tr, s, self)

	if err := node.Rejoin(cli, adv, 15*time.Second); err != nil {
		return err
	}
	log.Printf("zeusd: node %d joined (recovered %d objects from WAL, reclaim complete)", self, node.Recovered())
	return nil
}

// watchClusterState follows the replicated state: new addresses extend the
// transport's book, and a directory-shard disagreement (this process was
// started with a -dir-shards that contradicts the committed placement) is
// fatal — the operator's idea of the deployment is wrong.
func watchClusterState(tr *transport.TCP, cli *viewsvc.Client, self wire.NodeID, dirShards int) {
	for {
		time.Sleep(200 * time.Millisecond)
		if !cli.Heard() {
			continue
		}
		s := cli.State()
		if err := checkPlacement(s, dirShards); err != nil {
			log.Fatalf("zeusd: %v", err)
		}
		applyAddrs(tr, s, self)
	}
}

func checkPlacement(s wire.VSState, dirShards int) error {
	if dirShards > 0 && !s.Placement.IsZero() && len(s.Placement.Shards) != dirShards {
		return fmt.Errorf("-dir-shards %d disagrees with the replicated placement (%d shards); every process must use the same value",
			dirShards, len(s.Placement.Shards))
	}
	return nil
}

func applyAddrs(tr *transport.TCP, s wire.VSState, self wire.NodeID) {
	for _, a := range s.Addrs {
		if a.Node != self && a.Addr != "" {
			tr.SetAddr(a.Node, a.Addr)
		}
	}
}

// serveObs exposes the node's registry over HTTP: /metrics (the full text
// rendering), /debug/trace (the slowest sampled transactions of the current
// window) and /debug/incidents (the watchdog's recent incidents). Scrape
// endpoints only — rendering walks the registry at request time, the hot
// paths never see the server.
func serveObs(addr string, reg *obs.Registry) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.WriteText(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.Traces.WriteText(w)
	})
	mux.HandleFunc("/debug/incidents", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.Incidents.WriteText(w)
	})
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("zeusd: obs server on %s: %v", addr, err)
		}
	}()
	log.Printf("zeusd: obs endpoints on http://%s/{metrics,debug/trace,debug/incidents}", addr)
}

func waitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
}

func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parsePeers parses "id=host:port,..." into an address book. Duplicate node
// ids and duplicate addresses are both configuration errors: either would
// silently drop a peer (last one wins) and leave the cluster half-connected.
func parsePeers(s string) (map[wire.NodeID]string, error) {
	out := make(map[wire.NodeID]string)
	seenAddr := make(map[string]wire.NodeID)
	if s == "" {
		return nil, fmt.Errorf("-peers required")
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		if id < 0 || wire.NodeID(id) > viewsvc.MaxDataNode {
			return nil, fmt.Errorf("peer id %d out of range (0..%d)", id, viewsvc.MaxDataNode)
		}
		nid := wire.NodeID(id)
		if prev, dup := out[nid]; dup {
			return nil, fmt.Errorf("duplicate peer id %d (%s and %s)", id, prev, kv[1])
		}
		if prev, dup := seenAddr[kv[1]]; dup {
			return nil, fmt.Errorf("duplicate peer address %s (nodes %d and %d)", kv[1], prev, id)
		}
		out[nid] = kv[1]
		seenAddr[kv[1]] = nid
	}
	return out, nil
}

func runDemo(node *core.Node, members wire.Bitmap) {
	time.Sleep(time.Second) // let peers come up
	const obj = 42
	if err := node.CreateObject(obj, []byte("created-by-demo")); err != nil {
		log.Printf("demo: create: %v (another node may own it already)", err)
	}
	for i := 0; i < 5; i++ {
		tx := node.BeginOn(0)
		v, err := tx.Get(obj)
		if err != nil {
			tx.Abort()
			log.Printf("demo: get: %v", err)
			time.Sleep(200 * time.Millisecond)
			continue
		}
		// v is a view of the committed version: grow a copy, not its spare capacity.
		if err := tx.Set(obj, append(append([]byte(nil), v...), '.')); err != nil {
			tx.Abort()
			log.Printf("demo: set: %v", err)
			continue
		}
		if err := tx.Commit(); err != nil {
			log.Printf("demo: commit: %v", err)
			continue
		}
		log.Printf("demo: committed write %d (value now %d bytes)", i+1, len(v)+1)
	}
	st := node.Stats()
	log.Printf("demo: commits=%d aborts=%d (live %s)", st.Commits, st.Aborts, members)
}
