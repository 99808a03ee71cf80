package evloop_test

import (
	"fmt"
	"slices"
	"testing"

	"abcast/internal/evloop"
	"abcast/internal/stack"
)

// loan is an evloop.Loan that runs itself when returned.
type loan func()

func (l loan) Return() { l() }

// TestLoanIsReturnedAfterItsDispatch: a lent envelope is dispatched with
// Proto.Lent true and its loan returned as soon as the dispatch returns; a
// delivered one is not lent; a crashed process drops a lent envelope and
// still returns its loan.
func TestLoanIsReturnedAfterItsDispatch(t *testing.T) {
	p := evloop.New(1, 1, 1, func(stack.ProcessID, stack.Envelope) {})
	defer p.Close()
	rb := p.Node().Proto(stack.ProtoRB)
	var log []string // appended on the loop only
	p.Node().Register(stack.ProtoRB, stack.HandlerFunc(func(_ stack.ProcessID, inst uint64, _ stack.Message) {
		log = append(log, fmt.Sprintf("dispatch %d lent=%v", inst, rb.Lent()))
	}))
	p.Start()
	env := func(inst uint64) stack.Envelope {
		return stack.Envelope{Proto: stack.ProtoRB, Inst: inst, Msg: numbered(int(inst))}
	}
	returned := func(inst uint64) loan { return func() { log = append(log, fmt.Sprintf("return %d", inst)) } }
	p.DeliverLent(2, env(1), returned(1))
	p.Deliver(2, env(2))
	p.Do(p.Crash)
	done := make(chan struct{})
	p.DeliverLent(2, env(3), loan(func() { returned(3)(); close(done) }))
	<-done
	want := []string{"dispatch 1 lent=true", "return 1", "dispatch 2 lent=false", "return 3"}
	if !slices.Equal(log, want) {
		t.Fatalf("loop ran %q, want %q", log, want)
	}
}
