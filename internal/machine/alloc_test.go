//go:build !race

// Allocation-regression tests for the campaign hot path. The parallel
// campaign scheduler's original slowdown was GC pressure: every trial is
// an independent machine, so the only resource the workers shared was
// the allocator. These tests pin the steady-state allocation rate of the
// per-sample loop so it cannot creep back (see PERFORMANCE.md).
//
// Excluded under -race: race instrumentation allocates on its own, which
// would make AllocsPerRun numbers meaningless.

package machine

import (
	"testing"
	"time"

	"radshield/internal/cpu"
	"radshield/internal/trace"
)

// TestAllocsStepSample pins the per-sample cost of the flight loop:
// Step advances physics and Sample produces one Telemetry whose PerCore
// points into the machine's own buffer, so a sample allocates nothing.
func TestAllocsStepSample(t *testing.T) {
	m := New(DefaultConfig())
	m.ApplySegment(trace.Segment{
		Duration: time.Hour,
		Loads:    []cpu.Load{{Util: 0.8, IPC: 1.2}, {Util: 0.1, IPC: 0.4}},
	})
	dt := m.Config().SampleEvery
	m.Step(dt)
	m.Sample()

	var sink Telemetry
	avg := testing.AllocsPerRun(1000, func() {
		m.Step(dt)
		sink = m.Sample()
	})
	if avg != 0 {
		t.Errorf("Step+Sample allocates %.3f objects/sample, want 0", avg)
	}
	_ = sink
}

// TestAllocsBoardStateCached pins the electrical-state caching: Step and
// Sample must not rebuild the BoardState core slice (once 58% of all
// campaign objects). Only ApplySegment and PowerCycle refresh it.
func TestAllocsSteadyStepOnly(t *testing.T) {
	m := New(DefaultConfig())
	m.ApplySegment(trace.Segment{Duration: time.Hour, Loads: []cpu.Load{{Util: 0.5, IPC: 1.0}}})
	dt := m.Config().SampleEvery
	m.Step(dt)

	avg := testing.AllocsPerRun(1000, func() { m.Step(dt) })
	if avg != 0 {
		t.Errorf("Step allocates %.3f objects/step, want 0", avg)
	}
}
