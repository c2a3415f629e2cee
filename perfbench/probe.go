package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/metrics"
	"time"

	"radshield/internal/emr"
	"radshield/internal/experiments"
	"radshield/internal/ild"
	"radshield/internal/machine"
	"radshield/internal/resultcache"
	"radshield/internal/sched"
	"radshield/internal/trace"
	"radshield/internal/workloads"
)

// prober flies one representative arm of a workload from the
// benchmark's own code, wrapping every call into a layer in a span. The
// program under test carries no instrumentation for this: spans sit
// around public calls only, so a layer's time includes whatever it
// calls internally.
type prober struct {
	tr       *tracer
	root     int32
	seed     int64
	workers  int
	dir      string // scratch directory for the probe's own store
	filled   string // replay-warm: the store filled in set-up
	failures []string
	facts    map[string]string
	// Figures the arm reports rather than the spans.
	counts   map[string]float64
	simTime  time.Duration // simulated time flown through machine.Step
	newBytes []float64     // heap bytes allocated by each emr.New

	idStep, idSample, idApply, idObserve uint16
}

// probeSpans pre-sizes the span buffer above the largest probe's count
// (sel-detect: about 4.4 M, three spans per flight sample).
const probeSpans = 1 << 23

func newProber(seed int64, workers int, dir, filled string) *prober {
	p := &prober{tr: newTracer(probeSpans), seed: seed, workers: workers, dir: dir, filled: filled,
		facts: map[string]string{}, counts: map[string]float64{}}
	p.idStep = p.tr.id("machine.step")
	p.idSample = p.tr.id("machine.sample")
	p.idApply = p.tr.id("machine.apply")
	p.idObserve = p.tr.id("ild.observe")
	p.root = p.tr.begin(p.tr.id("experiments.probe"), -1)
	return p
}

func (p *prober) fail(format string, args ...any) {
	p.failures = append(p.failures, "probe: "+fmt.Sprintf(format, args...))
}

// call wraps fn in a span named "<layer>.<call>" under the probe root.
func (p *prober) call(name string, fn func()) { p.tr.do(p.tr.id(name), p.root, fn) }

// fly plays tr through m exactly as machine.RunTrace does, calling
// onSample for every sample; Step, Sample and ApplySegment each get a
// span. The arms flown here schedule no OS faults, the one RunTrace
// branch this loop leaves out.
func (p *prober) fly(m *machine.Machine, tr *trace.Trace, onSample func(machine.Telemetry)) {
	every := m.Config().SampleEvery
	pending := time.Duration(0)
	for _, seg := range tr.Segments {
		s := p.tr.begin(p.idApply, p.root)
		m.ApplySegment(seg)
		p.tr.end(s)
		remaining := seg.Duration
		for remaining > 0 {
			step := every - pending
			if step > remaining {
				step = remaining
			}
			s = p.tr.begin(p.idStep, p.root)
			m.Step(step)
			p.tr.end(s)
			p.simTime += step
			pending += step
			remaining -= step
			if pending >= every {
				pending = 0
				s = p.tr.begin(p.idSample, p.root)
				tel := m.Sample()
				p.tr.end(s)
				onSample(tel)
			}
		}
	}
}

// observe wraps one ILD detector call.
func (p *prober) observe(det *ild.Detector, tel machine.Telemetry) bool {
	s := p.tr.begin(p.idObserve, p.root)
	fired := det.Observe(tel)
	p.tr.end(s)
	return fired
}

func selMachineConfig(c experiments.SELConfig, seed int64) machine.Config {
	mc := machine.DefaultConfig()
	mc.SampleEvery = c.SampleEvery
	mc.SensorSeed = seed
	return mc
}

func selILDConfig(c experiments.SELConfig) ild.Config {
	ic := ild.DefaultConfig()
	ic.SampleEvery = c.SampleEvery
	ic.DetectionWindow = c.Window
	return ic
}

// trainILD is experiments.TrainILD, flown through the probe.
func (p *prober) trainILD(c experiments.SELConfig) (*ild.Detector, error) {
	var m *machine.Machine
	p.call("machine.new", func() { m = machine.New(selMachineConfig(c, c.Seed+100)) })
	trainer := ild.NewTrainer(selILDConfig(c))
	var quiet *trace.Trace
	p.call("trace.quiescent", func() { quiet = trace.Quiescent(rand.New(rand.NewSource(c.Seed+101)), c.TrainFor, 10*time.Second) })
	add := p.tr.id("ild.add")
	p.fly(m, quiet, func(tel machine.Telemetry) {
		p.tr.do(add, p.root, func() { trainer.Add(tel) })
	})
	var det *ild.Detector
	var err error
	p.call("ild.fit", func() { det, err = trainer.Fit() })
	return det, err
}

var heapAllocs = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocated() uint64 {
	metrics.Read(heapAllocs)
	return heapAllocs[0].Value.Uint64()
}

// newRuntime builds a fresh EMR runtime, recording the bytes it
// allocates. Campaigns recycle runtimes through a pool whose reuse is
// output-invariant; the probe always pays for a fresh one, which is
// what emr.new_ns and emr.new_mb price.
func (p *prober) newRuntime(cfg emr.Config) (*emr.Runtime, error) {
	before := heapAllocated()
	var rt *emr.Runtime
	var err error
	p.call("emr.new", func() { rt, err = emr.New(cfg) })
	p.newBytes = append(p.newBytes, float64(heapAllocated()-before))
	return rt, err
}

// runPayload builds b's spec on a fresh runtime for cfg and runs it.
func (p *prober) runPayload(cfg emr.Config, b workloads.Builder, size int, seed int64, hook func(*emr.Runtime) emr.Hook) (*emr.Result, error) {
	rt, err := p.newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	var spec emr.Spec
	p.call("workloads.build", func() { spec, err = b.Build(rt, size, seed) })
	if err != nil {
		return nil, err
	}
	if hook != nil {
		spec.Hook = hook(rt)
	}
	var res *emr.Result
	p.call("emr.run", func() { res, err = rt.Run(spec) })
	return res, err
}

// probeStore times the result-store calls every cold campaign arm
// makes — key, miss, put, hit — on the arm's own result, in a fresh
// store of the probe's own.
func (p *prober) probeStore(result string) {
	var store *resultcache.Store
	var err error
	p.call("resultcache.open", func() { store, err = resultcache.Open(filepath.Join(p.dir, "probe-store")) })
	if err != nil {
		p.fail("open store: %v", err)
		return
	}
	defer store.Close()
	var e resultcache.Enc
	e.Int(p.seed)
	e.Str(result)
	var key resultcache.Key
	p.call("resultcache.key", func() { key = store.Key("perfbench-probe/v1", &e) })
	var hit bool
	p.call("resultcache.get", func() { _, hit = store.Get(key) })
	p.call("resultcache.put", func() { store.Put(key, e.Bytes()) })
	var got []byte
	p.call("resultcache.get", func() { got, hit = store.Get(key) })
	if !hit || !bytes.Equal(got, e.Bytes()) {
		p.fail("result store did not return the arm's result")
	}
}

// schedJobs is the no-op job count sched.overhead_ns_per_trial divides by.
const schedJobs = 20000

// probeSched runs sched.Map over no-op jobs at the workload's width.
// Jobs run concurrently, so each records its span into its own slot;
// the slots join the trace after Map returns.
func (p *prober) probeSched() {
	job := p.tr.id("sched.job")
	slots := make([]span, schedJobs)
	m := p.tr.begin(p.tr.id("sched.map"), p.root)
	_, err := sched.Map(schedJobs, p.workers, func(i int) (struct{}, error) {
		//radlint:allow armpurity the job only times itself into its own slot; no campaign output depends on it
		slots[i].start = p.tr.now()
		slots[i].end = p.tr.now()
		return struct{}{}, nil
	})
	p.tr.end(m)
	if err != nil {
		p.fail("sched.Map: %v", err)
	}
	for i := range slots {
		slots[i].name, slots[i].parent = job, m
	}
	p.tr.spans = append(p.tr.spans, slots...)
}

// finish closes the root span and derives the per-layer figures.
func (p *prober) finish() (map[string]float64, summary) {
	p.tr.end(p.root)
	s := summarize(p.tr)
	mean := func(name string) float64 { return s.calls[name].mean() }
	count := func(name string) float64 { return float64(s.calls[name].count) }
	m := map[string]float64{
		"machine.step_ns":             mean("machine.step"),
		"machine.sample_ns":           mean("machine.sample"),
		"machine.samples":             count("machine.sample"),
		"machine.self_frac":           s.selfFrac("machine") + s.selfFrac("trace"),
		"ild.observe_ns":              mean("ild.observe"),
		"ild.fit_ms":                  mean("ild.fit") / 1e6,
		"ild.samples":                 count("ild.observe"),
		"ild.self_frac":               s.selfFrac("ild"),
		"emr.new_ns":                  mean("emr.new"),
		"emr.run_ns":                  mean("emr.run"),
		"emr.runs":                    count("emr.run"),
		"mem.newdram_ns":              mean("mem.newdram"),
		"emr.self_frac":               s.selfFrac("emr") + s.selfFrac("workloads"),
		"fault.schedule_ns":           mean("fault.schedule"),
		"mission.schedule_ns":         mean("mission.schedule"),
		"downlink.encode_ns":          mean("downlink.encode"),
		"downlink.decode_ns":          mean("downlink.decode"),
		"downlink.self_frac":          s.selfFrac("downlink"),
		"guard.observe_ns":            mean("guard.observe"),
		"adapt.observe_ns":            mean("adapt.observe"),
		"sched.overhead_ns_per_trial": float64(s.selfOf["sched.map"]) / schedJobs,
		"resultcache.open_ms":         mean("resultcache.open") / 1e6,
		"resultcache.key_ns":          mean("resultcache.key"),
		"resultcache.get_ns":          mean("resultcache.get"),
		"resultcache.put_ns":          mean("resultcache.put"),
		"experiments.self_frac":       s.selfFrac("experiments"),
	}
	if p.simTime > 0 {
		busy := s.calls["machine.step"].total + s.calls["machine.sample"].total
		m["machine.ns_per_sim_s"] = float64(busy) / p.simTime.Seconds()
	}
	if len(p.newBytes) > 0 {
		var sum float64
		for _, b := range p.newBytes {
			sum += b
		}
		m["emr.new_mb"] = sum / float64(len(p.newBytes)) / (1 << 20)
	}
	for k, v := range p.counts {
		m[k] = v
	}
	return m, s
}

// runProbe flies w's probe arm plus the scheduler and store probes
// shared by every workload, then checks the layer split.
func runProbe(w workload, seed int64, workers int, dir, filled string) (map[string]float64, []string, map[string]string) {
	p := newProber(seed, workers, dir, filled)
	if err := w.probe(p); err != nil {
		p.fail("%v", err)
	}
	p.probeSched()
	m, s := p.finish()
	for name := range s.calls {
		for _, l := range w.untouched {
			if layerOf(name) == layerOf(l) {
				p.fail("%s called %s, a layer this workload must not touch", w.name, name)
			}
		}
	}
	return m, dedupe(p.failures), p.facts
}

// dedupe keeps the first occurrence of each message.
func dedupe(msgs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range msgs {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
