package frozen

import (
	"encoding/binary"

	"zeus"
	"zeus/internal/cluster"
	"zeus/internal/wire"
)

// A cluster's Seed adopts the value it is handed as the seeded version, which
// every replica shares: writing the buffer afterwards rewrites the seed.

func seedThenWrite(c *cluster.Cluster, z *zeus.Cluster) {
	buf := make([]byte, 8)
	c.Seed(1, 0, wire.BitmapOf(1, 2), buf)
	buf[0] = 1 // want `in-place element write to buf after it was handed to Seed`
	scratch := make([]byte, 8)
	for obj := wire.ObjectID(2); obj < 5; obj++ {
		binary.LittleEndian.PutUint64(scratch, uint64(obj)) // want `scratch passed as PutUint64's fill buffer in a loop that hands it to SeedAt`
		c.SeedAt(obj, 0, scratch)
	}
	val := make([]byte, 8)
	z.Seed(9, 0, val)
	copy(val, "changed!") // want `copy into val after it was handed to Seed`
}

// seedFresh is legal: a fresh value per Seed, and one slice that nobody
// writes shared by many objects (SeedRange's own form).
func seedFresh(c *cluster.Cluster, z *zeus.Cluster) {
	for obj := uint64(1); obj < 4; obj++ {
		v := make([]byte, 8)
		binary.LittleEndian.PutUint64(v, obj)
		z.Seed(obj, 0, v)
	}
	shared := make([]byte, 64)
	for obj := wire.ObjectID(10); obj < 20; obj++ {
		c.SeedAt(obj, 0, shared)
	}
	c.SeedRange(20, 10, shared)
}
