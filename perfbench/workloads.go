package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"radshield/internal/adapt"
	"radshield/internal/downlink"
	"radshield/internal/experiments"
	"radshield/internal/fault"
	"radshield/internal/machine"
	"radshield/internal/mission"
	"radshield/internal/power"
	"radshield/internal/resultcache"
	"radshield/internal/telemetry"
)

// runEnv is what one fresh process hands a workload's timed run.
type runEnv struct {
	seed    int64
	workers int
	tel     *telemetry.Registry // nil: tracing off
	// store is opened in set-up, as a radbench -resultcache run opens
	// its store before the first campaign: fresh and empty for the cold
	// workloads, filled by a set-up process for replay-warm.
	store *resultcache.Store
}

// outcome is a timed run's rendered output and its checks. facts are
// quantities the layer probe must reproduce for the same seed and arm.
type outcome struct {
	render   string
	failures []string
	verdicts []string
	facts    map[string]string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// verdict records a paper-shape claim. Those hold on the campaigns'
// default seeds only, so they are reported, never failed.
func (o *outcome) verdict(ok bool, claim string) {
	mark := "holds"
	if !ok {
		mark = "does not hold"
	}
	o.verdicts = append(o.verdicts, claim+": "+mark)
}

type workload struct {
	name, why string
	run       func(runEnv) (outcome, error)
	probe     func(*prober) error
	// filled marks the workload whose set-up fills a result store in a
	// process of its own, once per run; every timed process replays it.
	filled bool
	// untouched lists the layers the workload must never call, and works
	// the layers it was chosen to exercise: the layer split, confirmed
	// by measurement in the probe's spans and in the counters the
	// campaigns' own instrumentation keeps (see splitFailures).
	untouched, works []string
}

// layerCounters are the telemetry counters through which a layer
// reports work when a registry is attached to the campaign config.
var layerCounters = map[string][]string{
	"machine": {"machine_sel_injected_total"},
	"ild":     {"ild_samples_total"},
	"emr":     {"emr_runs_total", "emr_pool_hits_total", "emr_pool_misses_total"},
}

// splitFailures checks the layer split against a registry-attached
// run's counters: every layer the workload must not touch counts
// nothing, and every layer it was chosen for counts some work.
func (w workload) splitFailures(counters map[string]float64) []string {
	var out []string
	for _, l := range w.untouched {
		for _, c := range layerCounters[l] {
			if counters[c] != 0 {
				out = append(out, fmt.Sprintf("layer split: %s = %v, but %s must not touch %s", c, counters[c], w.name, l))
			}
		}
	}
	for _, l := range w.works {
		var sum float64
		for _, c := range layerCounters[l] {
			sum += counters[c]
		}
		if sum == 0 {
			out = append(out, fmt.Sprintf("layer split: %s counted no %s work (%s)", w.name, l, strings.Join(layerCounters[l], ", ")))
		}
	}
	return out
}

var simulationLayers = []string{"machine", "ild", "emr", "fault", "mission", "downlink", "guard", "adapt", "workloads", "trace"}

var workloadList = []workload{
	{
		name:      "sel-detect",
		why:       "Table 2 at 4 h / 10 ms: board model and ILD do the work, no EMR runtime is built",
		run:       runSELDetect,
		probe:     probeSELDetect,
		untouched: []string{"emr", "mem", "downlink", "adapt", "guard", "mission", "fault"},
		works:     []string{"machine", "ild"},
	},
	{
		name:      "seu-inject",
		why:       "Table 7 then Fig 11: EMR runtimes over mem/ecc/cache with fault injection, no board flown",
		run:       runSEUInject,
		probe:     probeSEUInject,
		untouched: []string{"machine", "ild", "trace", "downlink", "adapt", "guard", "mission"},
		works:     []string{"emr"},
	},
	{
		name:  "mission-adaptive",
		why:   "adaptive campaign over the 5-profile catalog: boards, ILD, adapt, EMR contacts and downlink ARQ",
		run:   runMissionAdaptive,
		probe: probeMissionAdaptive,
	},
	{
		name:      "replay-warm",
		why:       "every cached campaign replayed from a store filled in set-up: resultcache reads, decoders, renderers",
		run:       runReplayWarm,
		probe:     probeReplayWarm,
		filled:    true,
		untouched: simulationLayers,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Workload inputs. Each is a pure function of the seed, which goes into
// every campaign config's Seed; Workers never changes results.

func selDetectConfig(seed int64, workers int) experiments.SELConfig {
	c := experiments.DefaultSELConfig()
	c.Seed = seed
	c.Workers = workers
	return c
}

func seuInjectConfigs(seed int64, workers int) (experiments.Table7Config, experiments.SEUConfig) {
	t7 := experiments.DefaultTable7Config()
	t7.Seed = seed
	t7.Workers = workers
	seu := experiments.DefaultSEUConfig()
	seu.Seed = seed
	seu.Workers = workers
	return t7, seu
}

func missionAdaptiveConfig(seed int64, workers int) experiments.AdaptiveCampaignConfig {
	c := experiments.DefaultAdaptiveCampaignConfig()
	c.SEL.Seed = seed
	c.SEL.Workers = workers
	return c
}

func runSELDetect(env runEnv) (outcome, error) {
	c := selDetectConfig(env.seed, env.workers)
	c.Telemetry, c.Cache = env.tel, env.store
	res, tbl, err := experiments.Table2(c)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{render: tbl.String(), facts: map[string]string{}}
	o.check(len(res) == 5, "table 2 has %d detectors, want 5", len(res))
	for _, r := range res {
		o.check(r.Episodes > 0 && r.Episodes == res[0].Episodes,
			"%s: %d episodes, want %d > 0 like every detector", r.Name, r.Episodes, res[0].Episodes)
		o.check(rate(r.FalseNegativeRate) && rate(r.FalsePositiveRate),
			"%s: rates FN %v FP %v outside [0, 1]", r.Name, r.FalseNegativeRate, r.FalsePositiveRate)
	}
	if len(res) > 0 {
		o.facts["ild"] = fmt.Sprintf("%+v", res[0])
		o.verdict(res[0].FalseNegativeRate == 0 && res[0].FalsePositiveRate < 0.005,
			"Table 2: ILD has 0% false negatives and < 0.5% false positives")
	}
	return o, nil
}

func rate(x float64) bool { return x >= 0 && x <= 1 }

func runSEUInject(env runEnv) (outcome, error) {
	t7, seu := seuInjectConfigs(env.seed, env.workers)
	t7.Telemetry, t7.Cache = env.tel, env.store
	seu.Telemetry, seu.Cache = env.tel, env.store
	tallies, t7tbl, err := experiments.Table7(t7)
	if err != nil {
		return outcome{}, err
	}
	rows, f11tbl, err := experiments.Fig11(seu)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{render: t7tbl.String() + f11tbl.String(), facts: map[string]string{}}
	for name, t := range tallies {
		o.check(t.Total() == t7.Runs, "table 7 %s: %d runs tallied, want %d", name, t.Total(), t7.Runs)
	}
	// Single upsets never reach the output through a voting scheme.
	for _, name := range []string{"3-MR", "EMR"} {
		t := tallies[name]
		o.check(t != nil && t.Counts[fault.SDC] == 0, "table 7 %s: silent data corruption under a single upset", name)
	}
	o.check(len(rows) == 5, "fig 11 has %d rows, want 5", len(rows))
	for _, r := range rows {
		o.check(positive(r.EMRRel) && positive(r.Serial3MRRel), "fig 11 %s: relative runtimes %v, %v", r.Workload, r.EMRRel, r.Serial3MRRel)
	}
	o.facts["fig11"] = fmt.Sprintf("%+v", rows)
	if none, emr, mbu := tallies["None"], tallies["EMR"], tallies["EMR + MBU"]; none != nil && emr != nil && mbu != nil {
		o.verdict(none.Counts[fault.SDC] > 0 && emr.Counts[fault.Corrected] > 0 && mbu.Counts[fault.SDC] == 0,
			"Table 7: unprotected runs show SDC, EMR corrects, EMR + MBU shows no SDC")
	}
	return o, nil
}

func positive(x float64) bool { return x > 0 && !math.IsInf(x, 0) }

func runMissionAdaptive(env runEnv) (outcome, error) {
	c := missionAdaptiveConfig(env.seed, env.workers)
	c.SEL.Telemetry, c.SEL.Cache = env.tel, env.store
	trials, tbl, err := experiments.AdaptiveCampaign(c)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{render: tbl.String(), facts: map[string]string{}}
	o.check(len(trials) == len(c.Profiles), "%d trials, want %d", len(trials), len(c.Profiles))
	matched := true
	for _, tr := range trials {
		st, ad := tr.Static, tr.Adaptive
		o.check(st.FinalLevel == adapt.LevelMax && st.Dwell[adapt.LevelMax] > 0,
			"%s: static arm left the max posture", tr.Profile)
		o.check(st.P0Enqueued > 0 && ad.P0Enqueued > 0, "%s: no priority-0 events enqueued", tr.Profile)
		for i := 1; i < len(tr.Moves); i++ {
			o.check(tr.Moves[i].T >= tr.Moves[i-1].T, "%s: decision trace out of order at move %d", tr.Profile, i)
		}
		matched = matched && ad.Survived == st.Survived && ad.MissedSELs <= st.MissedSELs
	}
	if len(trials) > probeProfile {
		tr := trials[probeProfile]
		o.facts["adaptive"] = fmt.Sprintf("%+v moves=%+v", tr.Adaptive, tr.Moves)
	}
	o.verdict(matched, "adaptive arm matches static-max survival and missed SELs on every profile")
	return o, nil
}

// replayCampaign is one cached campaign at the small size replay-warm
// fills its store with.
type replayCampaign struct {
	name string
	run  func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, facts map[string]string) (string, error)
}

// replayPasses is how many times the timed run replays every campaign
// from the one store set-up opened: a pass takes under 1 ms, so the
// loop is sized to last about as long as a cold workload's run.
const replayPasses = 2500

func replaySEL(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store) experiments.SELConfig {
	c := experiments.DefaultSELConfig()
	c.Duration = 30 * time.Minute
	c.SELEvery = 8 * time.Minute
	c.Seed, c.Workers, c.Telemetry, c.Cache = seed, workers, tel, store
	return c
}

func replayTable7(seed int64) experiments.Table7Config {
	return experiments.Table7Config{Runs: 2, Size: 16 << 10, Seed: seed}
}

func replaySEU(seed int64) experiments.SEUConfig {
	return experiments.SEUConfig{Size: 16 << 10, Seed: seed}
}

var replayCampaigns = []replayCampaign{
	{"missions", func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, _ map[string]string) (string, error) {
		c := experiments.DefaultMissionConfig()
		c.Missions, c.Duration = 1, time.Hour
		c.Seed, c.Workers, c.Telemetry, c.Cache = seed, workers, tel, store
		_, _, tbl, err := experiments.MissionSurvival(c)
		return str(tbl, err)
	}},
	{"tab2", func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, _ map[string]string) (string, error) {
		_, tbl, err := experiments.Table2(replaySEL(seed, workers, tel, store))
		return str(tbl, err)
	}},
	{"fig10", func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, _ map[string]string) (string, error) {
		fig, err := experiments.Fig10(replaySEL(seed, workers, tel, store), 2)
		return str(fig, err)
	}},
	{"threshold", func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, _ map[string]string) (string, error) {
		_, tbl, err := experiments.ThresholdSweep(replaySEL(seed, workers, tel, store), 2)
		return str(tbl, err)
	}},
	{"tab7", func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, facts map[string]string) (string, error) {
		c := replayTable7(seed)
		c.Workers, c.Telemetry, c.Cache = workers, tel, store
		tallies, tbl, err := experiments.Table7(c)
		facts["tab7"] = formatTallies(tallies)
		return str(tbl, err)
	}},
	{"fig11", func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, facts map[string]string) (string, error) {
		c := replaySEU(seed)
		c.Workers, c.Telemetry, c.Cache = workers, tel, store
		rows, tbl, err := experiments.Fig11(c)
		facts["fig11"] = fmt.Sprintf("%+v", rows)
		return str(tbl, err)
	}},
	{"guard", func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, _ map[string]string) (string, error) {
		c := experiments.DefaultGuardCampaignConfig()
		c.Kinds = []power.FaultKind{power.FaultStuck, power.FaultOffset}
		c.FaultDurations = []time.Duration{6 * time.Minute}
		c.SEL.Seed, c.SEL.Workers, c.SEL.Telemetry, c.SEL.Cache = seed, workers, tel, store
		_, tbl, err := experiments.GuardCampaign(c)
		return str(tbl, err)
	}},
	{"watchdog", func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, _ map[string]string) (string, error) {
		c := experiments.DefaultWatchdogCampaignConfig()
		c.Seed, c.Workers, c.Telemetry, c.Cache = seed+8, workers, tel, store
		_, tbl, err := experiments.WatchdogCampaign(c)
		return str(tbl, err)
	}},
	{"downlink", func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, _ map[string]string) (string, error) {
		c := experiments.DefaultDownlinkCampaignConfig()
		c.LossRates = []float64{0.2}
		c.BlackoutDurations = []time.Duration{0, 2 * time.Minute}
		c.Policies = []downlink.Policy{downlink.PolicyPriority}
		c.Seed, c.Workers, c.Telemetry, c.Cache = seed+23, workers, tel, store
		_, tbl, err := experiments.DownlinkCampaign(c)
		return str(tbl, err)
	}},
	{"oskernel", func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, _ map[string]string) (string, error) {
		c := experiments.DefaultOSFaultCampaignConfig()
		c.Classes = []machine.OSFaultKind{machine.OSFaultKernelPanic, machine.OSFaultKernelHang}
		c.Onsets = []time.Duration{10 * time.Minute}
		c.SEL.Seed, c.SEL.Workers, c.SEL.Telemetry, c.SEL.Cache = seed, workers, tel, store
		_, tbl, err := experiments.OSFaultCampaign(c)
		return str(tbl, err)
	}},
	{"adaptive", func(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, _ map[string]string) (string, error) {
		c := experiments.DefaultAdaptiveCampaignConfig()
		c.Profiles = []mission.Profile{{
			Name: "mini-leo-saa",
			Base: fault.LEO,
			Phase: []mission.Phase{
				mission.NewPhase(mission.PhaseLEO, 6*time.Minute),
				mission.NewPhase(mission.PhaseSAA, 6*time.Minute),
				mission.NewPhase(mission.PhaseLEO, 6*time.Minute),
			},
		}}
		c.RateBoost, c.ContactEvery, c.Drain = 60000, 5*time.Minute, 5*time.Minute
		c.SEL.Seed, c.SEL.Workers, c.SEL.Telemetry, c.SEL.Cache = seed, workers, tel, store
		_, tbl, err := experiments.AdaptiveCampaign(c)
		return str(tbl, err)
	}},
}

func str(v fmt.Stringer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// formatTallies renders Table 7's tallies in scheme-name order.
func formatTallies(t map[string]*fault.Tally) string {
	names := make([]string, 0, len(t))
	for n := range t {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%v;", n, t[n].Counts)
	}
	return b.String()
}

// replayAll runs every replay campaign once against store.
func replayAll(seed int64, workers int, tel *telemetry.Registry, store *resultcache.Store, facts map[string]string) (string, error) {
	var b strings.Builder
	for _, rc := range replayCampaigns {
		out, err := rc.run(seed, workers, tel, store, facts)
		if err != nil {
			return "", fmt.Errorf("%s: %w", rc.name, err)
		}
		b.WriteString(out)
	}
	return b.String(), nil
}

// fillStore is replay-warm's set-up: run every campaign cold into a
// fresh store and return the cold rendering.
func fillStore(dir string, seed int64, workers int) (string, error) {
	store, err := resultcache.Open(dir)
	if err != nil {
		return "", err
	}
	render, err := replayAll(seed, workers, nil, store, map[string]string{})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return render, err
}

func runReplayWarm(env runEnv) (outcome, error) {
	o := outcome{facts: map[string]string{}}
	for pass := 0; pass < replayPasses; pass++ {
		render, err := replayAll(env.seed, env.workers, env.tel, env.store, o.facts)
		if err != nil {
			return outcome{}, err
		}
		if pass == 0 {
			o.render = render
		}
		o.check(render == o.render, "pass %d rendered differently from pass 0", pass)
	}
	st := env.store.Stats()
	o.check(st.Misses == 0 && st.Hits > 0, "warm replay hit ratio %d/%d, want 1", st.Hits, st.Hits+st.Misses)
	return o, nil
}
