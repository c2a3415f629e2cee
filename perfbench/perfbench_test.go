package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// These tests stay cheap: none of them runs a workload.

func TestWorkloadInputsDeterministicPerSeed(t *testing.T) {
	for _, seed := range []int64{1, 7, 424242} {
		if a, b := selDetectConfig(seed, 2), selDetectConfig(seed, 2); !reflect.DeepEqual(a, b) {
			t.Errorf("sel-detect config differs for seed %d", seed)
		}
		t7a, seua := seuInjectConfigs(seed, 2)
		t7b, seub := seuInjectConfigs(seed, 2)
		if !reflect.DeepEqual(t7a, t7b) || !reflect.DeepEqual(seua, seub) {
			t.Errorf("seu-inject configs differ for seed %d", seed)
		}
		ma, mb := missionAdaptiveConfig(seed, 2), missionAdaptiveConfig(seed, 2)
		if !reflect.DeepEqual(ma, mb) {
			t.Errorf("mission-adaptive config differs for seed %d", seed)
		}
		// The probe arm's event schedule is generated from the seed alone.
		prof := ma.Profiles[probeProfile].Boosted(ma.RateBoost)
		ea, err := prof.Schedule(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		eb, _ := prof.Schedule(rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(ea, eb) {
			t.Errorf("mission-adaptive event schedule differs for seed %d", seed)
		}
		if !reflect.DeepEqual(replaySEL(seed, 2, nil, nil), replaySEL(seed, 2, nil, nil)) ||
			replayTable7(seed) != replayTable7(seed) || replaySEU(seed) != replaySEU(seed) {
			t.Errorf("replay-warm configs differ for seed %d", seed)
		}
	}
	if selDetectConfig(1, 2).Seed == selDetectConfig(2, 2).Seed {
		t.Error("the seed does not reach the sel-detect campaign")
	}
	// Worker width never changes inputs beyond the Workers field.
	a, b := selDetectConfig(3, 1), selDetectConfig(3, 8)
	b.Workers = a.Workers
	if !reflect.DeepEqual(a, b) {
		t.Error("worker width changed the sel-detect inputs")
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	d := &driver{attempts: 1}
	for _, c := range []struct {
		name     string
		declared []struct{ Name, Unit string }
		want     []metric
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		declared := map[string]string{}
		for _, m := range c.declared {
			declared[m.Name] = m.Unit
		}
		emitted := d.result(c.want, map[string]float64{}).Metrics
		for name, v := range emitted {
			if unit, ok := declared[name]; !ok || unit != v.Unit {
				t.Errorf("%s: emitted %s (%s) is not declared in BENCHMARK.json", c.name, name, v.Unit)
			}
		}
		for name := range declared {
			if _, ok := emitted[name]; !ok {
				t.Errorf("%s: BENCHMARK.json declares %s, which the benchmark never emits", c.name, name)
			}
		}
	}
	if len(f.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloadList))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)",
				i, w.Name, w.Why, workloadList[i].name, workloadList[i].why)
		}
	}
}

// Every figure the probe derives must be a declared per-layer metric;
// result drops undeclared ones, so a typo would silently lose a layer.
func TestProbeFiguresAreDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = true
	}
	p := newProber(1, 1, t.TempDir(), "")
	p.simTime, p.newBytes = 1, []float64{1}
	p.counts["adapt.moves"] = 1
	figures, _ := p.finish()
	for name := range figures {
		if !declared[name] {
			t.Errorf("probe figure %s is not a declared per-layer metric", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100}, // 0: root
		{parent: 0, start: 10, end: 30},  // 1
		{parent: 0, start: 20, end: 50},  // 2: overlaps 1
		{parent: 1, start: 15, end: 25},  // 3: grandchild, charged to 1 only
		{parent: 0, start: 90, end: 120}, // 4: runs past the root, clipped
		{parent: 0, start: 60, end: 70},  // 5: recorded out of start order
		{parent: 0, start: 60, end: 65},  // 6: inside 5
	}
	want := []int64{100 - 40 - 10 - 10, 20 - 10, 30, 10, 30, 10, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSummaryChargesLayers(t *testing.T) {
	tr := newTracer(8)
	root, step, newdram := tr.id("experiments.probe"), tr.id("machine.step"), tr.id("mem.newdram")
	tr.spans = []span{
		{name: root, parent: -1, start: 0, end: 100},
		{name: step, parent: 0, start: 0, end: 30},
		{name: step, parent: 0, start: 40, end: 50},
		{name: newdram, parent: 0, start: 60, end: 80},
	}
	s := summarize(tr)
	if got := s.calls["machine.step"]; got.count != 2 || got.mean() != 20 {
		t.Errorf("machine.step stats = %+v", got)
	}
	if s.selfFrac("machine") != 0.4 || s.selfFrac("emr") != 0.2 || s.selfFrac("experiments") != 0.4 {
		t.Errorf("self fractions: machine %v emr %v experiments %v",
			s.selfFrac("machine"), s.selfFrac("emr"), s.selfFrac("experiments"))
	}
}

func TestMedianAndMean(t *testing.T) {
	for _, c := range []struct {
		in       []float64
		med, avg float64
	}{{nil, 0, 0}, {[]float64{3}, 3, 3}, {[]float64{5, 1, 3}, 3, 3}, {[]float64{4, 1, 3, 8}, 3.5, 4}} {
		if got := median(c.in); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.med)
		}
		if got := mean(c.in); got != c.avg {
			t.Errorf("mean(%v) = %v, want %v", c.in, got, c.avg)
		}
	}
}

func TestSplitFailures(t *testing.T) {
	sel, _ := workloadByName("sel-detect")
	seu, _ := workloadByName("seu-inject")
	warm, _ := workloadByName("replay-warm")
	for _, c := range []struct {
		w        workload
		counters map[string]float64
		fails    int
	}{
		{sel, map[string]float64{"ild_samples_total": 1440000, "machine_sel_injected_total": 7}, 0},
		{sel, map[string]float64{"ild_samples_total": 1440000, "machine_sel_injected_total": 7, "emr_pool_misses_total": 1}, 1},
		{sel, map[string]float64{"machine_sel_injected_total": 7}, 1}, // ILD did no work
		{seu, map[string]float64{"emr_runs_total": 115, "emr_pool_hits_total": 105, "emr_pool_misses_total": 10}, 0},
		{seu, map[string]float64{"emr_runs_total": 115, "ild_samples_total": 1}, 1},
		{warm, map[string]float64{"resultcache_hits_total": 53}, 0},
		{warm, map[string]float64{"emr_runs_total": 1, "machine_sel_injected_total": 1}, 2},
	} {
		if got := c.w.splitFailures(c.counters); len(got) != c.fails {
			t.Errorf("%s %v: %d failures %q, want %d", c.w.name, c.counters, len(got), got, c.fails)
		}
	}
}
