// Quickstart: a three-node Zeus deployment, one object, a write transaction
// that migrates ownership, and strictly serializable local reads from a
// replica.
package main

import (
	"fmt"
	"log"

	"zeus"
)

func main() {
	// Three nodes, 3-way replication (the paper's evaluation setup).
	c := zeus.New(zeus.Options{Nodes: 3})
	defer c.Close()

	// Node 0 creates an object; replicas land on nodes 1 and 2.
	n0 := c.Node(0)
	const account = 1001
	if err := n0.CreateObject(account, []byte("balance=100")); err != nil {
		log.Fatalf("create: %v", err)
	}

	// A write transaction on node 0: fully local (node 0 is the owner).
	if err := n0.Update(0, func(tx *zeus.Tx) error {
		v, err := tx.Get(account)
		if err != nil {
			return err
		}
		fmt.Printf("node 0 read: %s\n", v)
		return tx.Set(account, []byte("balance=150"))
	}); err != nil {
		log.Fatalf("update: %v", err)
	}

	// A write on node 2 migrates ownership there (1.5 RTT, once); every
	// subsequent transaction on node 2 is local.
	n2 := c.Node(2)
	if err := n2.Update(0, func(tx *zeus.Tx) error {
		return tx.Set(account, []byte("balance=175"))
	}); err != nil {
		log.Fatalf("remote update: %v", err)
	}
	fmt.Printf("node 2 stats after migration: %+v\n", n2.Stats())

	// Update returned once every replica held the write, so the replicas
	// serve it to strictly serializable read-only transactions, locally and
	// with zero network traffic.
	for i := 0; i < 3; i++ {
		n := c.Node(i)
		_ = n.View(0, func(tx *zeus.Tx) error {
			v, err := tx.Get(account)
			if err != nil {
				return err
			}
			fmt.Printf("node %d local read: %s\n", i, v)
			return nil
		})
	}
}
