// Gateway: the legacy-application port of §8.5. The cellular packet-gateway
// control plane runs unmodified over three datastores — local memory, a
// blocking remote store, and Zeus — showing that Zeus adds replication and
// distribution without re-architecting the application (and without the
// blocking store's collapse).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"zeus/internal/apps/epcgw"
	"zeus/internal/baseline"
	"zeus/internal/cluster"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

const users = 500
const ops = 3000

func main() {
	fmt.Println("cellular gateway control plane: service-request/release mix")
	fmt.Printf("  %-28s %s\n", "datastore", "throughput")

	// 1. Local memory (no replication, no fault tolerance).
	ldb := epcgw.NewLocalDB()
	cfg := epcgw.DefaultConfig(0, 1)
	cfg.Users = users
	g := epcgw.New(cfg, ldb)
	g.SeedObjects(func(obj uint64, home int, data []byte) { ldb.Seed(obj, data) })
	fmt.Printf("  %-28s %s\n", "local memory", run(g))

	// 2. Blocking store (Redis-like): every access a blocking RPC.
	hub := transport.NewHub()
	bcfg := baseline.Config{Nodes: 1, Degree: 1}
	server := baseline.NewNode(0, hub.Node(0), bcfg)
	bg := epcgw.New(cfg, baseline.NewNode(1, hub.Node(1), bcfg))
	bg.SeedObjects(func(obj uint64, home int, data []byte) {
		server.Seed(wire.ObjectID(obj), 1, data)
	})
	fmt.Printf("  %-28s %s\n", "blocking store (remote RPC)", run(bg))

	// 3. Zeus: one active node plus one passive replica — replicated and
	// fault-tolerant, yet as local as the in-memory store.
	opts := cluster.DefaultOptions(2)
	opts.Degree = 2
	c := cluster.New(opts)
	defer c.Close()
	zcfg := epcgw.DefaultConfig(0, 2)
	zcfg.Users = users
	zg := epcgw.New(zcfg, c.Node(0).DB())
	zg.SeedObjects(func(obj uint64, home int, data []byte) {
		c.SeedAt(wire.ObjectID(obj), wire.NodeID(home), data)
	})
	fmt.Printf("  %-28s %s\n", "Zeus (1 active + 1 passive)", run(zg))
}

func run(g *epcgw.Gateway) string {
	start := time.Now()
	done, err := g.Drive(0, ops, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatalf("drive: %v", err)
	}
	return fmt.Sprintf("%.0f ops/s (%d ops)", float64(done)/time.Since(start).Seconds(), done)
}
