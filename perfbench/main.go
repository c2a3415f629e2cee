// Command perfbench is the repo's end-to-end benchmark: four campaign
// workloads, each run in fresh processes, reporting end-to-end figures
// with tracing off and per-layer figures from a separate traced run.
// See README.md; run it from the repo root as
//
//	bash perfbench/run.sh --workload sel-detect --seed 1 --seconds 28 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"radshield/internal/resultcache"
	"radshield/internal/telemetry"
)

// buildDir is where the benchmark keeps everything it writes, relative
// to the checkout it runs in.
const buildDir = ".bench_build"

// childTimeout bounds one fresh process; the slowest takes a few seconds.
const childTimeout = 120 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(driverMain(os.Args[1:]))
}

// report is what one fresh process prints as its only stdout line.
type report struct {
	Render    string             `json:"render,omitempty"` // SHA-256 of the rendered tables
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	AllocMB   float64            `json:"alloc_mb"`
	GCCPUFrac float64            `json:"gc_cpu_frac"`
	Failures  []string           `json:"failures,omitempty"`
	Verdicts  []string           `json:"verdicts,omitempty"`
	Facts     map[string]string  `json:"facts,omitempty"`
	Counters  map[string]float64 `json:"counters,omitempty"` // traced run: telemetry snapshot values
	Layer     map[string]float64 `json:"layer,omitempty"`    // probe: per-layer figures
}

// Child roles: an untraced timed run, the same run with a telemetry
// registry attached, replay-warm's store fill, and the layer probe.
const (
	roleRun    = "run"
	roleTraced = "traced"
	roleFill   = "fill"
	roleProbe  = "probe"
)

func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	role := fs.String("role", roleRun, "run, traced, fill or probe")
	seed := fs.Int64("seed", 1, "workload seed")
	workers := fs.Int("workers", 1, "campaign scheduler width")
	dir := fs.String("dir", "", "this process's scratch directory")
	storeDir := fs.String("store", "", "the result store: fresh for a cold workload, filled for replay-warm")
	spawned := fs.Int64("spawned", 0, "Unix ns at which the parent started this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *dir == "" || *storeDir == "" {
		fmt.Fprintf(os.Stderr, "perfbench child: bad workload %q, dir %q or store %q\n", *name, *dir, *storeDir)
		return 2
	}
	rep, err := child(w, *role, *seed, *workers, *dir, *storeDir, time.Unix(0, *spawned))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s/%s: %v\n", w.name, *role, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	return 0
}

func child(w workload, role string, seed int64, workers int, dir, storeDir string, spawned time.Time) (report, error) {
	switch role {
	case roleFill:
		start := time.Now()
		render, err := fillStore(storeDir, seed, workers)
		return report{Render: digest(render), WallS: time.Since(start).Seconds()}, err
	case roleProbe:
		layer, failures, facts := runProbe(w, seed, workers, dir, storeDir)
		return report{Layer: layer, Failures: failures, Facts: facts}, nil
	case roleRun, roleTraced:
	default:
		return report{}, fmt.Errorf("unknown role %q", role)
	}

	env := runEnv{seed: seed, workers: workers}
	if role == roleTraced {
		env.tel = telemetry.NewRegistry(0)
	}
	store, err := resultcache.Open(storeDir, resultcache.WithTelemetry(env.tel))
	if err != nil {
		return report{}, err
	}
	defer store.Close()
	env.store = store

	before := sampleProcess()
	start := time.Now()
	setup := start.Sub(spawned)
	out, err := w.run(env)
	wall := time.Since(start)
	after := sampleProcess()
	if err != nil {
		return report{}, err
	}
	rep := report{
		Render:    digest(out.render),
		SetupS:    setup.Seconds(),
		WallS:     wall.Seconds(),
		CPUS:      after.cpu - before.cpu,
		AllocMB:   (after.allocs - before.allocs) / (1 << 20),
		PeakRSSMB: peakRSSMB(),
		Failures:  out.failures,
		Verdicts:  out.verdicts,
		Facts:     out.facts,
	}
	if gc := after.gcCPU - before.gcCPU; after.allCPU > before.allCPU {
		rep.GCCPUFrac = gc / (after.allCPU - before.allCPU)
	}
	if env.tel != nil {
		snap := env.tel.Snapshot()
		rep.Counters = map[string]float64{"resultcache_bytes": snap.Gauge("resultcache_bytes")}
		for _, c := range []string{"sched_trials_total", "resultcache_hits_total", "resultcache_misses_total"} {
			rep.Counters[c] = float64(snap.Counter(c))
		}
		for _, cs := range layerCounters {
			for _, c := range cs {
				rep.Counters[c] = float64(snap.Counter(c))
			}
		}
		rep.Failures = append(rep.Failures, w.splitFailures(rep.Counters)...)
	}
	return rep, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// processSample is the process-wide counters one timed run is the
// difference of.
type processSample struct {
	cpu           float64 // user + system seconds (rusage)
	allocs        float64 // heap bytes allocated
	gcCPU, allCPU float64 // runtime CPU-class estimates, seconds
}

var processMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProcess() processSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(processMetrics)
	return processSample{
		cpu:    tv(ru.Utime) + tv(ru.Stime),
		allocs: float64(processMetrics[0].Value.Uint64()),
		gcCPU:  processMetrics[1].Value.Float64(),
		allCPU: processMetrics[2].Value.Float64(),
	}
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+names())
	seed := fs.Int64("seed", 1, "input seed of the first repetition; repetition k flies seed + k×1000003")
	seconds := fs.Int("seconds", 20, "how long to keep starting fresh timed processes")
	traced := fs.Int("trace", 0, "1: report per-layer figures from a traced run instead")
	workers := fs.Int("workers", runtime.NumCPU(), "campaign scheduler width")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || *workers < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --workers >= 1, --trace 0|1\n", names())
		return 2
	}
	d, err := newDriver(w, *seed, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer d.cleanup()
	fmt.Println(d.environment())

	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res = d.tracedRun(budget)
	} else {
		res = d.timedRun(budget)
	}
	for _, v := range dedupe(d.verdicts) {
		fmt.Println("verdict (paper shape, default seeds only):", v)
	}
	for _, f := range d.failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func names() string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return strings.Join(out, ", ")
}

// driver starts the fresh processes of one benchmark run and checks
// their outputs against each other.
type driver struct {
	w        workload
	seed     int64
	workers  int
	exe      string
	exeSum   string
	work     string
	reps     int
	renders  map[int64]string            // first rendering per input seed
	fills    map[int64]storeFill         // replay-warm's filled store per input seed
	facts    map[int64]map[string]string // campaign facts per input seed
	verdicts []string
	failures []string
	attempts int
	failed   int
}

func newDriver(w workload, seed int64, workers int) (*driver, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	work := filepath.Join(buildDir, "runs", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &driver{w: w, seed: seed, workers: workers, exe: exe,
		exeSum: hex.EncodeToString(h.Sum(nil))[:16], work: work,
		renders: map[int64]string{}, fills: map[int64]storeFill{}, facts: map[int64]map[string]string{}}, nil
}

// storeFill is a store a fill process filled, and how long that took.
type storeFill struct {
	store string
	took  time.Duration
}

// inputStride spaces the input seeds of one run's repetitions, so runs
// with nearby --seed values fly disjoint inputs.
const inputStride = 1_000_003

// input is the campaign seed repetition i flies. The first repetition
// flies --seed itself. Later ones of a cold workload fly seeds derived
// from it: campaign cost and memory vary with the input (the adaptive
// controller's posture trajectory decides which EMR devices a run
// builds), so each run samples several inputs instead of one.
// replay-warm's replay cost does not depend on the input, so all its
// repetitions replay the one store its set-up filled for --seed.
func (d *driver) input(i int) int64 {
	if d.w.filled {
		return d.seed
	}
	return d.seed + int64(i)*inputStride
}

func (d *driver) cleanup() { _ = os.RemoveAll(d.work) } // scratch only

func (d *driver) environment() string {
	return fmt.Sprintf("perfbench env: workload=%s seed=%d nproc=%d GOMAXPROCS=%d workers=%d go=%s cpu=%q",
		d.w.name, d.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), d.workers, runtime.Version(), cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spawn starts one fresh process and waits for its report. The
// returned duration runs from just before the start to its exit.
func (d *driver) spawn(role, dir, store string, input int64) (report, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	start := time.Now()
	cmd := exec.CommandContext(ctx, d.exe, "child", "--workload", d.w.name, "--role", role,
		"--seed", strconv.FormatInt(input, 10), "--workers", strconv.Itoa(d.workers),
		"--dir", dir, "--store", store, "--spawned", strconv.FormatInt(start.UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	took := time.Since(start)
	if err != nil {
		return report{}, took, fmt.Errorf("%s process: %w", role, err)
	}
	var rep report
	if err := json.Unmarshal(out, &rep); err != nil {
		return report{}, took, fmt.Errorf("%s process report: %w", role, err)
	}
	return rep, took, nil
}

// filledStore is replay-warm's set-up: the first repetition on an input
// seed starts a fill process, and every repetition on that seed replays
// the store it filled. It returns the store and how long the fill took.
func (d *driver) filledStore(input int64) (string, time.Duration, error) {
	if f, ok := d.fills[input]; ok {
		return f.store, f.took, nil
	}
	dir, err := filepath.Abs(filepath.Join(d.work, fmt.Sprintf("fill-%d", input)))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		return "", 0, err
	}
	store := filepath.Join(dir, "store")
	fill, took, err := d.spawn(roleFill, dir, store, input)
	if err != nil {
		return "", 0, err
	}
	d.matchRender(input, fill.Render, "cold fill")
	d.fills[input] = storeFill{store, took}
	return store, took, nil
}

// rep runs one repetition on the given input seed in its own scratch
// directory: the timed process, after replay-warm's fill if the seed
// has none yet. A repetition whose checks fail counts as failed and
// yields no timing.
func (d *driver) rep(role string, input int64) (report, bool) {
	d.reps++
	d.attempts++
	dir, err := filepath.Abs(filepath.Join(d.work, fmt.Sprintf("rep-%d", d.reps)))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		return d.fail(err.Error())
	}
	defer os.RemoveAll(dir) // scratch only
	store := filepath.Join(dir, "store")
	var fillTook time.Duration
	if d.w.filled {
		if store, fillTook, err = d.filledStore(input); err != nil {
			return d.fail(err.Error())
		}
	}
	if role == roleProbe {
		rep, took, err := d.spawn(roleProbe, dir, store, input)
		if err != nil {
			return d.fail(err.Error())
		}
		fmt.Printf("%s probe seed %d: %.3fs\n", d.w.name, input, took.Seconds())
		keys := make([]string, 0, len(rep.Facts))
		for k := range rep.Facts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if want, ok := d.facts[input][k]; !ok || want != rep.Facts[k] {
				rep.Failures = append(rep.Failures, fmt.Sprintf("probe fidelity: %s = %s, campaign reported %s", k, rep.Facts[k], want))
			}
		}
		if len(rep.Failures) > 0 {
			return d.fail(rep.Failures...)
		}
		return rep, true
	}
	rep, _, err := d.spawn(role, dir, store, input)
	if err != nil {
		return d.fail(err.Error())
	}
	rep.SetupS += fillTook.Seconds()
	if !d.matchRender(input, rep.Render, role+" run") {
		rep.Failures = append(rep.Failures, "rendered output differs from an earlier run with the same seed")
	}
	if input == d.seed {
		d.verdicts = append(d.verdicts, rep.Verdicts...)
	}
	if len(rep.Failures) > 0 {
		return d.fail(rep.Failures...)
	}
	if d.facts[input] == nil {
		d.facts[input] = rep.Facts
	}
	fmt.Printf("%s %s seed %d: wall %.3fs cpu %.3fs rss %.0fMiB alloc %.0fMiB setup %.3fs\n",
		d.w.name, role, input, rep.WallS, rep.CPUS, rep.PeakRSSMB, rep.AllocMB, rep.SetupS)
	return rep, true
}

func (d *driver) fail(msgs ...string) (report, bool) {
	d.failed++
	d.failures = append(d.failures, msgs...)
	return report{}, false
}

// matchRender checks a rendering against the first one of this run for
// the same input seed and against the record kept for this binary,
// workload and input seed, so runs of the same build agree across
// benchmark invocations too.
func (d *driver) matchRender(input int64, render, what string) bool {
	first, seen := d.renders[input]
	if !seen {
		d.renders[input] = render
		path := filepath.Join(buildDir, "renders", fmt.Sprintf("%s-%s-%d", d.exeSum, d.w.name, input))
		if prev, err := os.ReadFile(path); err == nil {
			if string(prev) != render {
				d.failures = append(d.failures, what+": rendering differs from an earlier invocation with the same seed")
				d.renders[input] = string(prev)
				return false
			}
		} else if errors.Is(err, os.ErrNotExist) {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				_ = os.WriteFile(path, []byte(render), 0o644) // a missing record only skips the cross-invocation check
			}
		}
		return true
	}
	if render != first {
		d.failures = append(d.failures, what+": rendering differs from the first run with the same seed")
		return false
	}
	return true
}

// minReps is the fewest timed processes a run makes, however short its
// budget: the reported figures are their medians.
const minReps = 3

// fits reports whether one more repetition, as long as the n done so
// far took on average, still ends within the budget.
func fits(start time.Time, n int, budget time.Duration) bool {
	spent := time.Since(start)
	return spent+spent/time.Duration(n) <= budget
}

// timedRun starts fresh untraced processes until the budget is spent
// and reports the end-to-end figures over them.
func (d *driver) timedRun(budget time.Duration) result {
	start := time.Now()
	var reps []report
	for i := 0; i < minReps || fits(start, i, budget); i++ {
		if rep, ok := d.rep(roleRun, d.input(i)); ok {
			reps = append(reps, rep)
		}
	}
	pick := func(stat func([]float64) float64, f func(report) float64) float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r)
		}
		return stat(vals)
	}
	// Times are medians, robust to a repetition slowed by the host.
	// Memory is the mean: one process's footprint depends on when the GC
	// empties the EMR runtime pool and on which devices its input builds,
	// so single processes spread widely and the median of a few jumps
	// between modes, while their mean settles.
	values := map[string]float64{
		"wall_s":      pick(median, func(r report) float64 { return r.WallS }),
		"cpu_s":       pick(median, func(r report) float64 { return r.CPUS }),
		"setup_s":     pick(median, func(r report) float64 { return r.SetupS }),
		"peak_rss_mb": pick(mean, func(r report) float64 { return r.PeakRSSMB }),
		"alloc_mb":    pick(mean, func(r report) float64 { return r.AllocMB }),
	}
	return d.result(endToEnd, values)
}

// tracedRun alternates untraced and registry-attached processes on the
// same inputs until the budget is spent, then flies the layer probe once
// on the first input.
func (d *driver) tracedRun(budget time.Duration) result {
	start := time.Now()
	var plain, traced []report
	for i := 0; i < 1 || fits(start, i, budget); i++ {
		if rep, ok := d.rep(roleRun, d.input(i)); ok {
			plain = append(plain, rep)
		}
		if rep, ok := d.rep(roleTraced, d.input(i)); ok {
			traced = append(traced, rep)
		}
	}
	values := map[string]float64{}
	if probe, ok := d.rep(roleProbe, d.input(0)); ok {
		values = probe.Layer
	}
	var busy, gc, plainWall, tracedWall []float64
	for _, r := range plain {
		busy = append(busy, r.CPUS/(r.WallS*float64(d.workers)))
		gc = append(gc, r.GCCPUFrac)
		plainWall = append(plainWall, r.WallS)
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, r.WallS)
	}
	values["sched.busy_frac"] = median(busy)
	values["runtime.gc_cpu_frac"] = median(gc)
	if m := median(plainWall); m > 0 {
		values["telemetry.overhead_frac"] = median(tracedWall)/m - 1
	}
	if len(traced) > 0 {
		c := traced[0].Counters
		values["sched.trials"] = c["sched_trials_total"]
		values["emr.pool_hit_ratio"] = ratio(c["emr_pool_hits_total"], c["emr_pool_misses_total"])
		values["resultcache.hit_ratio"] = ratio(c["resultcache_hits_total"], c["resultcache_misses_total"])
		values["resultcache.bytes"] = c["resultcache_bytes"]
	}
	return d.result(perLayer, values)
}

// ratio is hits over hits + misses, 0 when nothing was looked up.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func (d *driver) result(want []metric, values map[string]float64) result {
	res := result{Correct: d.failed == 0 && d.attempts > 0, Attempted: d.attempts, Failed: d.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range want {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
