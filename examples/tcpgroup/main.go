// TCP group: the same atomic broadcast stack the simulator benchmarks,
// running over real TCP sockets on loopback — three peers, three
// listeners, internal/wire-encoded envelopes, heartbeat failure detection.
//
// In a real deployment each peer would be its own OS process on its own
// machine; this demo hosts all three peers in one process (each with its
// own listener and real loopback connections) so it is self-contained and
// needs no flags. Splitting it across machines means running one Peer per
// host and passing the full address map to Start — see internal/tcpnet.
//
//	go run ./examples/tcpgroup
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"abcast/internal/core"
	"abcast/internal/msg"
	"abcast/internal/rbcast"
	"abcast/internal/stack"
	"abcast/internal/tcpnet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n, perProc = 3, 2

	// Listen first so every peer knows everyone's real port.
	peers := make([]*tcpnet.Peer, n+1)
	addrs := make(map[stack.ProcessID]string, n)
	for i := 1; i <= n; i++ {
		p, err := tcpnet.Listen(stack.ProcessID(i), n, "127.0.0.1:0")
		if err != nil {
			return err
		}
		peers[i] = p
		addrs[stack.ProcessID(i)] = p.Addr()
		defer p.Close()
	}
	fmt.Println("peers listening:")
	for i := 1; i <= n; i++ {
		fmt.Printf("  p%d @ %s\n", i, addrs[stack.ProcessID(i)])
	}

	// Wire the full stack on each peer, then start the group.
	var mu sync.Mutex
	order := make([][]string, n+1)
	engines := make([]*core.Engine, n+1)
	for i := 1; i <= n; i++ {
		i := i
		node := peers[i].Node()
		eng, err := core.New(node, core.Config{
			Variant: core.VariantIndirectCT,
			RB:      rbcast.KindLazy, // O(n) diffusion in good runs
			Deliver: func(app *msg.App) {
				mu.Lock()
				order[i] = append(order[i], string(app.Payload))
				mu.Unlock()
			},
		})
		if err != nil {
			return err
		}
		engines[i] = eng
	}
	for i := 1; i <= n; i++ {
		if err := peers[i].Start(addrs); err != nil {
			return err
		}
	}

	for p := 1; p <= n; p++ {
		p := p
		for i := 1; i <= perProc; i++ {
			i := i
			peers[p].Do(func() {
				engines[p].ABroadcast([]byte(fmt.Sprintf("msg %d from p%d", i, p)))
			})
		}
	}

	// Wait for full delivery.
	total := n * perProc
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		done := len(order[1]) >= total && len(order[2]) >= total && len(order[3]) >= total
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for deliveries")
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	fmt.Println("\ndelivery order over TCP:")
	for i := 0; i < total; i++ {
		fmt.Printf("  #%d  p1=%-16q p2=%-16q p3=%-16q\n", i+1, order[1][i], order[2][i], order[3][i])
		if order[1][i] != order[2][i] || order[1][i] != order[3][i] {
			return fmt.Errorf("total order violated")
		}
	}
	fmt.Println("\nidentical total order across real sockets ✓")
	return nil
}
