package rts

import (
	"errors"
	"testing"

	"raccd/internal/mem"
)

// nullMachine is a zero-latency machine for runtime-only tests.
type nullMachine struct{}

func (nullMachine) Access(int, mem.Addr, bool, uint64) uint64 { return 0 }
func (nullMachine) RegisterRegion(int, mem.Range) uint64      { return 0 }
func (nullMachine) InvalidateNC(int) uint64                   { return 0 }

// TestRunCancel: a tripped Cancel hook aborts the dispatch loop without
// executing further tasks.
func TestRunCancel(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 8; i++ {
		g.Add("t", nil, func(c *Ctx) { c.Compute(10) })
	}
	errStop := errors.New("stop")
	var dispatched int
	rt := NewRuntime(nullMachine{}, 2, nil)
	rt.Cancel = func() error {
		dispatched++
		if dispatched > 3 {
			return errStop
		}
		return nil
	}
	rt.Run(g)
	if rt.Stats.TasksRun >= 8 {
		t.Fatalf("cancelled run executed all %d tasks", rt.Stats.TasksRun)
	}
	// An unset hook runs to completion.
	g2 := NewGraph()
	for i := 0; i < 8; i++ {
		g2.Add("t", nil, func(c *Ctx) { c.Compute(10) })
	}
	rt2 := NewRuntime(nullMachine{}, 2, nil)
	rt2.Run(g2)
	if rt2.Stats.TasksRun != 8 {
		t.Fatalf("uncancelled run executed %d tasks, want 8", rt2.Stats.TasksRun)
	}
}

// countingMachine counts accesses so tests can observe how far into a body
// a run got before stopping.
type countingMachine struct{ accesses uint64 }

func (m *countingMachine) Access(int, mem.Addr, bool, uint64) uint64 { m.accesses++; return 0 }
func (m *countingMachine) RegisterRegion(int, mem.Range) uint64      { return 0 }
func (m *countingMachine) InvalidateNC(int) uint64                   { return 0 }

// TestRunCancelMidTask: cancellation lands inside one long task body, not
// just at the next dispatch — the single-task cancellation gap. The graph
// is ONE task issuing far more accesses than cancelPollInterval; Cancel
// trips after the first in-body poll, and the run must stop long before
// the body completes.
func TestRunCancelMidTask(t *testing.T) {
	const bodyAccesses = 64 * cancelPollInterval
	g := NewGraph()
	g.Add("long", nil, func(c *Ctx) {
		for i := 0; i < bodyAccesses; i++ {
			c.Load(mem.Addr(0x40_0000) + mem.Addr(i)*mem.BlockSize)
		}
	})
	errStop := errors.New("stop")
	var polls int
	m := &countingMachine{}
	rt := NewRuntime(m, 2, nil)
	rt.Cancel = func() error {
		// First call is the dispatch-time poll; the next one is the
		// first in-body poll, which trips.
		polls++
		if polls > 1 {
			return errStop
		}
		return nil
	}
	if mk := rt.Run(g); mk != 0 {
		t.Fatalf("cancelled run returned makespan %d, want 0", mk)
	}
	// The body must have stopped at (or within one interval of) the
	// first poll, not run its full 64 intervals.
	if m.accesses > 2*cancelPollInterval+64 {
		t.Fatalf("cancelled mid-task run still issued %d machine accesses (poll interval %d)",
			m.accesses, cancelPollInterval)
	}
}

// TestRunCancelMidCompute: cancellation lands inside a long pure-compute
// task body. Compute polls on the same cadence as Load/Store; before it
// did, a body looping over Compute alone held a cancelled run (and a
// draining raccdd) until the task finished.
func TestRunCancelMidCompute(t *testing.T) {
	const bodyComputes = 64 * cancelPollInterval
	g := NewGraph()
	var computes int
	g.Add("crunch", nil, func(c *Ctx) {
		for i := 0; i < bodyComputes; i++ {
			computes++
			c.Compute(3)
		}
	})
	errStop := errors.New("stop")
	var polls int
	rt := NewRuntime(nullMachine{}, 2, nil)
	rt.Cancel = func() error {
		// First call is the dispatch-time poll; the next is the first
		// in-body poll, which trips.
		polls++
		if polls > 1 {
			return errStop
		}
		return nil
	}
	if mk := rt.Run(g); mk != 0 {
		t.Fatalf("cancelled run returned makespan %d, want 0", mk)
	}
	if computes > 2*cancelPollInterval+64 {
		t.Fatalf("cancelled mid-compute run still executed %d Compute calls (poll interval %d)",
			computes, cancelPollInterval)
	}
}
