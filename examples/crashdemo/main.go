// Crashdemo replays Section 2.2 of the paper on the deterministic
// simulator: the same adversarial schedule is run against (a) the faulty
// stack — an unmodified consensus algorithm executed directly on message
// identifiers — and (b) the indirect consensus stack.
//
// Schedule (n = 3; the round-1 coordinator is p2):
//
//  1. p1 and p3 atomically broadcast m1 and m3 (normal traffic).
//  2. p2 atomically broadcasts m, but the reliable-broadcast DATA carrying
//     m is delayed arbitrarily (reliable channels are not FIFO in the
//     asynchronous model) while p2's consensus traffic flows normally.
//  3. p1 and p3 broadcast m4 and m5, joining the same consensus instance.
//  4. The faulty stack acks p2's proposal {id(m)} blindly; id(m) is
//     decided. p2 then crashes, losing the in-flight DATA forever.
//
// Result: the faulty stack blocks forever behind id(m), so m4/m5 — from
// correct senders — are never delivered: Validity is violated. The indirect
// stack refuses (nack) the proposal because rcv({id(m)}) is false, so id(m)
// is never ordered and everything else is delivered.
//
//	go run ./examples/crashdemo
package main

import (
	"fmt"
	"log"
	"time"

	"abcast/internal/core"
	"abcast/internal/msg"
	"abcast/internal/netmodel"
	"abcast/internal/rbcast"
	"abcast/internal/simnet"
	"abcast/internal/stack"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== faulty stack: unmodified consensus on message identifiers ===")
	if err := scenario(core.VariantFaultyIDs); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("=== correct stack: indirect consensus (Algorithm 2) ===")
	return scenario(core.VariantIndirectCT)
}

// scenario runs the Section 2.2 schedule against the given stack.
func scenario(variant core.Variant) error {
	const n = 3
	params := netmodel.Setup1()
	// The adversary delays p2's reliable-broadcast payloads indefinitely.
	params.LatencyFn = func(from, to stack.ProcessID, env stack.Envelope) time.Duration {
		if from == 2 && env.Proto == stack.ProtoRB {
			return time.Hour
		}
		return params.Latency
	}
	w := simnet.NewWorld(n, params, 2006)

	engines := make([]*core.Engine, n+1)
	delivered := make([][]string, n+1)
	for i := 1; i <= n; i++ {
		i := i
		node := w.Node(stack.ProcessID(i))
		eng, err := core.New(node, core.Config{
			Variant: variant,
			RB:      rbcast.KindEager,
			Deliver: func(app *msg.App) {
				delivered[i] = append(delivered[i], string(app.Payload))
			},
		})
		if err != nil {
			return err
		}
		engines[i] = eng
	}

	ab := func(p stack.ProcessID, at time.Duration, payload string) {
		w.After(p, at, func() { engines[p].ABroadcast([]byte(payload)) })
	}
	ab(1, time.Millisecond, "m1")
	ab(3, time.Millisecond, "m3")
	ab(2, 50*time.Millisecond, "m (payload lost)")
	ab(1, 51*time.Millisecond, "m4")
	ab(3, 51*time.Millisecond, "m5")
	w.After(1, time.Second, func() {
		fmt.Println("  t=1s  p2 crashes; its in-flight messages are lost")
		w.Crash(2, simnet.DropInFlight)
	})

	w.RunFor(30 * time.Second)

	for _, p := range []stack.ProcessID{1, 3} {
		fmt.Printf("  p%d delivered: %v\n", p, delivered[p])
		if id, blocked := engines[p].BlockedOn(); blocked {
			fmt.Printf("  p%d is BLOCKED forever waiting for message %v — Validity violated\n", p, id)
		}
	}
	ok := len(delivered[1]) == 4 && len(delivered[3]) == 4
	if variant.Correct() {
		if !ok {
			return fmt.Errorf("correct stack failed to deliver all survivor messages")
		}
		fmt.Println("  all messages from correct processes delivered ✓")
	} else if ok {
		return fmt.Errorf("faulty stack unexpectedly survived the schedule")
	}
	return nil
}
