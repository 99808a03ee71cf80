package abcast

// Concurrency tests meant to run under the race detector (the CI runs
// `go test -race ./...`): the public Cluster surface is where caller
// goroutines meet the per-process event loops (the delivery queue itself is
// hammered in internal/evloop).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"abcast/internal/stack"
)

// TestClusterConcurrentUse exercises the full public surface — Broadcast,
// Next, Stats — from many goroutines against a pipelined live cluster, and
// finally Close races a blocked Next. Run it under -race.
func TestClusterConcurrentUse(t *testing.T) {
	const n, perProc = 3, 20
	c, err := New(n, Options{
		Stack:    IndirectCT,
		Pipeline: 4,
		MaxBatch: 2,
		Latency:  50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 1; p <= n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				if err := c.Broadcast(p, []byte(fmt.Sprintf("m%d-%d", p, i))); err != nil {
					t.Errorf("Broadcast(p%d): %v", p, err)
					return
				}
			}
		}()
	}
	// A stats poller runs alongside the broadcasters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.Stats(i%n+1, time.Second)
		}
	}()
	// Each process's deliveries are drained by its own consumer; all must
	// see the same total order.
	orders := make([][]Delivery, n+1)
	var cwg sync.WaitGroup
	for p := 1; p <= n; p++ {
		p := p
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for len(orders[p]) < n*perProc {
				d, ok := c.Next(p, 20*time.Second)
				if !ok {
					t.Errorf("p%d: timed out after %d deliveries", p, len(orders[p]))
					return
				}
				orders[p] = append(orders[p], d)
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	checkHistory(t, orders, sentBy(1, perProc, 1, 2, 3))
	// Close must unblock a waiting Next rather than leak it.
	unblocked := make(chan struct{})
	go func() {
		c.Next(1, time.Minute)
		close(unblocked)
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case <-unblocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Next still blocked after Close")
	}
}

// TestClusterAdaptiveActuatorRace exercises the adaptive control plane's
// cross-goroutine surface under -race: while broadcasters, a stats poller
// and per-process consumers hammer an Adaptive+Recovery cluster, an
// external controller goroutine runs Observe→Retarget plus the
// anti-entropy cadence actuator (core.SetAntiEntropy → relink.SetInterval)
// against every process, racing the per-process control loops that drive
// the same actuators from adaptTick. All actuator calls are enqueued onto
// the owning process's event loop — the discipline the eventloop analyzer
// enforces statically — so the run must be race-clean and every process
// must still deliver the same total order.
func TestClusterAdaptiveActuatorRace(t *testing.T) {
	const n, perProc = 3, 15
	c, err := New(n, Options{
		Stack:    IndirectCT,
		Adaptive: true,
		Recovery: true,
		Latency:  50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 1; p <= n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				if err := c.Broadcast(p, []byte(fmt.Sprintf("a%d-%d", p, i))); err != nil {
					t.Errorf("Broadcast(p%d): %v", p, err)
					return
				}
			}
		}()
	}
	// The external controller: observe, retarget the window/batch pair,
	// and retune the anti-entropy cadence, round-robin over processes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			p := i%n + 1
			step := i
			done := make(chan struct{})
			c.net.Do(stack.ProcessID(p), func() {
				o := c.engines[p].Observe()
				c.engines[p].Retarget(o.Window+step%2, o.MaxBatch)
				c.engines[p].SetAntiEntropy(time.Duration(1+step%4) * time.Millisecond)
				close(done)
			})
			<-done
		}
	}()
	// A stats poller reads the same state the controller writes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.Stats(i%n+1, time.Second)
		}
	}()
	orders := make([][]Delivery, n+1)
	var cwg sync.WaitGroup
	for p := 1; p <= n; p++ {
		p := p
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for len(orders[p]) < n*perProc {
				d, ok := c.Next(p, 20*time.Second)
				if !ok {
					t.Errorf("p%d: timed out after %d deliveries", p, len(orders[p]))
					return
				}
				orders[p] = append(orders[p], d)
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	checkHistory(t, orders, sentBy(1, perProc, 1, 2, 3))
	c.Close()
}
