package machine

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"radshield/internal/cpu"
	"radshield/internal/power"
	"radshield/internal/trace"
)

func TestScheduleCounterGlitchValidation(t *testing.T) {
	m := New(quietConfig())
	cases := []CounterGlitch{
		{Kind: GlitchNone},
		{Kind: GlitchKind(42)},
		{Kind: GlitchFreeze, Core: 7},
		{Kind: GlitchFreeze, Core: -2},
		{Kind: GlitchSpike, Start: -time.Second},
		{Kind: GlitchSpike, Duration: -time.Second},
	}
	for i, g := range cases {
		if err := m.ScheduleCounterGlitch(g); err == nil {
			t.Errorf("case %d: ScheduleCounterGlitch(%+v) accepted, want error", i, g)
		}
	}
	if err := m.ScheduleCounterGlitch(CounterGlitch{Kind: GlitchFreeze, Core: AllCores}); err != nil {
		t.Fatalf("valid glitch rejected: %v", err)
	}
	if n := len(m.CounterGlitches()); n != 1 {
		t.Fatalf("glitches recorded = %d, want 1", n)
	}
}

func TestGlitchFreezeZeroesRatesThenCatchesUp(t *testing.T) {
	m := New(quietConfig())
	if err := m.ScheduleCounterGlitch(CounterGlitch{
		Kind: GlitchFreeze, Core: 0, Start: time.Millisecond, Duration: 2 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	m.ApplySegment(trace.Segment{Loads: []cpu.Load{cpu.ComputeLoad, cpu.ComputeLoad}})

	m.Step(time.Millisecond)
	healthy := m.Sample() // t=1ms: window opens at 1ms → frozen from here
	m.Step(time.Millisecond)
	frozen := m.Sample() // t=2ms: inside window
	// PerCore is only valid until the next Sample; keep a copy.
	frozen.PerCore = slices.Clone(frozen.PerCore)
	m.Step(2 * time.Millisecond)
	catchup := m.Sample() // t=4ms: window closed, counter catch-up

	_ = healthy
	if frozen.PerCore[0].InstrPerSec != 0 {
		t.Fatalf("frozen core rate = %g, want 0", frozen.PerCore[0].InstrPerSec)
	}
	if frozen.PerCore[1].InstrPerSec == 0 {
		t.Fatal("unglitched core froze too")
	}
	// The catch-up sample covers the frozen interval plus its own: the
	// rate over 2 ms reflects ~3 ms of retired instructions.
	if catchup.PerCore[0].InstrPerSec <= frozen.PerCore[1].InstrPerSec {
		t.Fatalf("catch-up rate = %g, want above steady-state %g",
			catchup.PerCore[0].InstrPerSec, frozen.PerCore[1].InstrPerSec)
	}
}

func TestGlitchSpikeMultipliesRates(t *testing.T) {
	m := New(quietConfig())
	if err := m.ScheduleCounterGlitch(CounterGlitch{Kind: GlitchSpike, Core: AllCores}); err != nil {
		t.Fatal(err)
	}
	m.ApplySegment(trace.Segment{Loads: []cpu.Load{cpu.ComputeLoad}})
	m.Step(time.Millisecond)
	tel := m.Sample()
	if tel.PerCore[0].InstrPerSec < spikeFactor*1e9 {
		t.Fatalf("spiked rate = %g, want ≥ %d×1e9", tel.PerCore[0].InstrPerSec, spikeFactor)
	}
}

func TestGlitchGarbageDeterministic(t *testing.T) {
	run := func() []float64 {
		m := New(quietConfig())
		if err := m.ScheduleCounterGlitch(CounterGlitch{Kind: GlitchGarbage, Core: 1}); err != nil {
			t.Fatal(err)
		}
		m.ApplySegment(trace.Segment{Loads: []cpu.Load{cpu.ComputeLoad, cpu.ComputeLoad}})
		var out []float64
		for i := 0; i < 10; i++ {
			m.Step(time.Millisecond)
			tel := m.Sample()
			out = append(out, tel.PerCore[1].InstrPerSec, tel.PerCore[1].BranchMissRate)
		}
		return out
	}
	a, b := run(), run()
	sawNeg := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("garbage stream not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 {
			sawNeg = true
		}
	}
	if !sawNeg {
		t.Fatal("garbage rates never went negative over 10 samples")
	}
}

func TestSensorFaultFlowsThroughMachineTelemetry(t *testing.T) {
	m := New(quietConfig())
	if err := m.Sensor().ScheduleFault(power.SensorFault{
		Kind: power.FaultDropout, Start: 2 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	m.Step(time.Millisecond)
	tel := m.Sample()
	if math.IsNaN(tel.RawA) || math.IsNaN(tel.CurrentA) {
		t.Fatal("NaN before fault onset")
	}
	m.Step(2 * time.Millisecond)
	tel = m.Sample()
	if !math.IsNaN(tel.RawA) || !math.IsNaN(tel.CurrentA) {
		t.Fatalf("RawA=%v CurrentA=%v under dropout, want NaN", tel.RawA, tel.CurrentA)
	}
}

// TestSupplyTripSurvivesSensorDropout pins the analog-comparator model:
// the supply's over-current circuit reads the shunt directly, so a dead
// digital sensor cannot blind it and a classic ampere-scale latchup is
// still cleared.
func TestSupplyTripSurvivesSensorDropout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SensorSeed = 61
	m := New(cfg)
	if err := m.Sensor().ScheduleFault(power.SensorFault{Kind: power.FaultDropout}); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectSEL(5.0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	m.RunTrace(trace.Quiescent(rng, 2*time.Second, time.Second), nil)
	if m.SupplyTrips() == 0 {
		t.Fatal("supply never tripped: analog path blinded by digital sensor fault")
	}
	if m.SELActive() {
		t.Fatal("trip did not clear the latchup")
	}
}

func TestInjectSELRejectsBadAmps(t *testing.T) {
	m := New(quietConfig())
	for _, amps := range []float64{0, -0.07, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := m.InjectSEL(amps); err == nil {
			t.Errorf("InjectSEL(%v) accepted, want error", amps)
		}
	}
	if m.SELActive() {
		t.Fatal("rejected injection left an SEL active")
	}
	if err := m.InjectSEL(0.07); err != nil {
		t.Fatalf("valid injection rejected: %v", err)
	}
}

// TestPowerCycleDuringActiveTripClearsBothStates is the regression test
// for the trip-integrator reset: a commanded power cycle arriving while
// the supply comparator is mid-accumulation must clear both the latchup
// and the partial trip count, so the fresh boot does not inherit a
// nearly-fired trip.
func TestPowerCycleDuringActiveTripClearsBothStates(t *testing.T) {
	cfg := quietConfig()
	cfg.SupplyTripA = 4.0
	cfg.TripSustain = 50 * time.Millisecond // 50 samples at 1 ms
	m := New(cfg)
	if err := m.InjectSEL(5.0); err != nil {
		t.Fatal(err)
	}
	// Accumulate most of a trip, then power cycle from software.
	for i := 0; i < 40; i++ {
		m.Step(time.Millisecond)
		m.Sample()
	}
	if m.tripConsecutive == 0 {
		t.Fatal("comparator never started accumulating")
	}
	m.PowerCycle()
	if m.SELActive() {
		t.Fatal("power cycle did not clear the SEL")
	}
	if m.tripConsecutive != 0 {
		t.Fatalf("tripConsecutive = %d after power cycle, want 0", m.tripConsecutive)
	}
	// The cleared board must run a full sustain period without tripping.
	for i := 0; i < 60; i++ {
		m.Step(time.Millisecond)
		m.Sample()
	}
	if m.SupplyTrips() != 0 {
		t.Fatalf("supply tripped %d times after the latchup was cleared", m.SupplyTrips())
	}
}
