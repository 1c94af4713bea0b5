// Distributed: PartMiner's units mined by a fleet of workers over TCP.
// The paper notes PartMiner "is inherently parallel in nature" (§1): after
// partitioning, the k units are independent, so only the unit databases
// travel out and only the (small) frequent-pattern sets travel back.
//
// This example starts three workers inside the same process (stand-ins
// for `partworker -listen ...` running on other machines), mines through
// them, and verifies the distributed result against a local run. The
// fleet is a fixed address list: no coordinator listener, no heartbeats.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"partminer"
	"partminer/internal/cluster"
)

func main() {
	// Stand-in worker fleet. On real deployments run `partworker -listen`
	// on each machine instead.
	var addrs []string
	for i := 0; i < 3; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		go cluster.NewWorker(l.Addr().String()).Serve(l) //nolint:errcheck // returns when the listener closes
		addrs = append(addrs, l.Addr().String())
	}
	fmt.Printf("worker fleet: %v\n\n", addrs)

	db := partminer.Generate(partminer.GeneratorConfig{
		D: 500, T: 20, N: 20, L: 200, I: 5, Seed: 8,
	})
	sup := partminer.AbsoluteSupport(db, 0.04)

	pool, err := partminer.DialWorkers(addrs...)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

	t0 := time.Now()
	dist, err := partminer.Mine(db, partminer.Options{
		MinSupport:       sup,
		K:                6,
		Parallel:         true,          // units fan out across the fleet concurrently
		UnitMinerIndexed: pool.MineUnit, // unit i goes to its ring owner
	})
	if err != nil {
		log.Fatal(err)
	}
	distTime := time.Since(t0)
	// A worker failure would not have cost exactness — the unit fails over,
	// at worst to a local mine — so it has to be asked for.
	if err := pool.Err(); err != nil {
		log.Fatalf("worker failure: %v", err)
	}

	t0 = time.Now()
	local, err := partminer.Mine(db, partminer.Options{MinSupport: sup, K: 6})
	if err != nil {
		log.Fatal(err)
	}
	localTime := time.Since(t0)

	if !dist.Patterns.Equal(local.Patterns) {
		log.Fatal("distributed and local results differ")
	}
	fmt.Printf("distributed: %d patterns in %v (unit mining on 3 workers)\n",
		len(dist.Patterns), distTime.Round(time.Millisecond))
	fmt.Printf("local:       %d patterns in %v\n",
		len(local.Patterns), localTime.Round(time.Millisecond))
	fmt.Println("\nresults identical (verified).")
}
