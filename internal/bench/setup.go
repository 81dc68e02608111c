package bench

import (
	"time"

	"zeus/internal/baseline"
	"zeus/internal/cluster"
	"zeus/internal/core"
	"zeus/internal/dbapi"
	"zeus/internal/transport"
	"zeus/internal/wire"
)

// ZeusSeeder adapts a Zeus cluster to the Seeder interface (bulk initial
// sharding, bypassing the protocols).
func ZeusSeeder(c *cluster.Cluster) Seeder {
	return func(obj uint64, home int, data []byte) {
		c.SeedAt(wire.ObjectID(obj), wire.NodeID(home), data)
	}
}

// ZeusDBs returns the dbapi view of every node in the cluster.
func ZeusDBs(c *cluster.Cluster, n int) []dbapi.DB {
	out := make([]dbapi.DB, n)
	for i := 0; i < n; i++ {
		out[i] = c.Node(i).DB()
	}
	return out
}

// BaselineDeployment is a self-contained baseline cluster.
type BaselineDeployment struct {
	Nodes  []*baseline.Node
	fabric transport.Fabric
}

// NewBaselineDeployment builds n baseline nodes on fabric, which it owns from
// here on: the hub for protocol checks, or — the comparison substrate of
// Figures 8/9 — the same simulated fabric the Zeus cluster it is measured
// against stands on, so that the cost of remote accesses and of the blocking
// distributed commit is visible.
func NewBaselineDeployment(n, degree int, fabric transport.Fabric) *BaselineDeployment {
	d := &BaselineDeployment{fabric: fabric}
	cfg := baseline.Config{Nodes: n, Degree: degree}
	for i := 0; i < n; i++ {
		d.Nodes = append(d.Nodes, baseline.NewNode(wire.NodeID(i), fabric.Node(wire.NodeID(i)), cfg))
	}
	return d
}

// Close releases the fabric and every endpoint on it.
func (d *BaselineDeployment) Close() { d.fabric.Close() }

// DBs returns the dbapi view of the deployment.
func (d *BaselineDeployment) DBs() []dbapi.DB {
	out := make([]dbapi.DB, len(d.Nodes))
	for i, n := range d.Nodes {
		out[i] = n
	}
	return out
}

// Seeder installs objects at their static primary and backups. The home
// argument must equal obj mod nodes (IDSpace guarantees it), so Zeus and the
// baseline start from the identical sharding.
func (d *BaselineDeployment) Seeder() Seeder {
	return func(obj uint64, home int, data []byte) {
		id := wire.ObjectID(obj)
		p := d.Nodes[0].Primary(id)
		d.Nodes[p].Seed(id, 1, data)
		for _, b := range d.Nodes[0].Backups(id) {
			d.Nodes[b].Seed(id, 1, data)
		}
	}
}

// MigrationResult reports a bulk ownership migration (Figures 10–12).
type MigrationResult struct {
	Moved    int
	Failed   int
	Duration time.Duration
}

// Rate returns objects moved per second.
func (m MigrationResult) Rate() float64 {
	if m.Duration <= 0 {
		return 0
	}
	return float64(m.Moved) / m.Duration.Seconds()
}

// MoveObjects acquires ownership of every object at dst, sequentially on one
// worker — the paper's measurement unit ("a single worker thread can move
// 25k objects per second", §8.4). Run several concurrently for aggregate
// rates.
func MoveObjects(dst *core.Node, objs []uint64) MigrationResult {
	start := time.Now()
	var res MigrationResult
	for _, o := range objs {
		if err := dst.OwnershipEngine().AcquireOwnership(wire.ObjectID(o)); err != nil {
			res.Failed++
			continue
		}
		res.Moved++
	}
	res.Duration = time.Since(start)
	return res
}
