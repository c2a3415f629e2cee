package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"radshield/internal/adapt"
	"radshield/internal/downlink"
	"radshield/internal/emr"
	"radshield/internal/experiments"
	"radshield/internal/fault"
	"radshield/internal/guard"
	"radshield/internal/ild"
	"radshield/internal/linmodel"
	"radshield/internal/machine"
	"radshield/internal/mem"
	"radshield/internal/mission"
	"radshield/internal/resultcache"
	"radshield/internal/trace"
	"radshield/internal/workloads"
)

// The probe arms below re-fly one arm of each campaign from public
// calls, mirroring the campaign code step for step. Each records facts
// the campaign also reports for the same seed; the driver compares
// them, so an arm that drifts from its campaign fails the run instead
// of attributing time to the wrong loop.

// probeSELDetect flies Table 2's ILD arm: train on the ground twin,
// then fly the 4 h flight trace with latchups every SELEvery, observing
// every sample.
func probeSELDetect(p *prober) error {
	c := selDetectConfig(p.seed, p.workers)
	det, err := p.trainILD(c)
	if err != nil {
		return err
	}
	var m *machine.Machine
	p.call("machine.new", func() { m = machine.New(selMachineConfig(c, c.Seed)) })
	var flight *trace.Trace
	p.call("trace.flight", func() { flight = trace.FlightSoftware(rand.New(rand.NewSource(c.Seed+1)), c.Duration, 4) })
	p.call("ild.bubbles", func() {
		flight = ild.InjectBubbles(flight, ild.BubblePolicy{BubbleLen: selILDConfig(c).SustainFor + time.Second, Pause: 3 * time.Minute})
	})

	var r experiments.DetectorAccuracyResult
	var missed, fp, neg int
	var latencies []time.Duration
	nextSEL, episodeEnd, start := c.SELEvery, time.Duration(-1), time.Duration(0)
	hit := false
	p.fly(m, flight, func(tel machine.Telemetry) {
		if episodeEnd < 0 && tel.T >= nextSEL {
			p.call("machine.inject_sel", func() { err = m.InjectSEL(c.SELAmps) })
			episodeEnd, start, hit = tel.T+c.Window, tel.T, false
			r.Episodes++
		}
		inEpisode := episodeEnd >= 0
		fired := p.observe(det, tel)
		switch {
		case inEpisode && fired && !hit:
			hit = true
			latencies = append(latencies, tel.T-start)
		case !inEpisode:
			neg++
			if fired {
				fp++
			}
		}
		if inEpisode && tel.T >= episodeEnd {
			p.call("machine.clear_sel", m.ClearSEL)
			if !hit {
				missed++
			}
			episodeEnd, nextSEL = -1, tel.T+c.SELEvery
		}
	})
	if err != nil {
		return err
	}
	if episodeEnd >= 0 && !hit { // the flight ended mid-episode
		missed++
	}
	r.Name = "ILD"
	if r.Episodes > 0 {
		r.FalseNegativeRate = float64(missed) / float64(r.Episodes)
	}
	if neg > 0 {
		r.FalsePositiveRate = float64(fp) / float64(neg)
	}
	for _, l := range latencies {
		r.MeanLatency += l
		r.MaxLatency = max(r.MaxLatency, l)
	}
	if len(latencies) > 0 {
		r.MeanLatency /= time.Duration(len(latencies))
	}
	p.facts["ild"] = fmt.Sprintf("%+v", r)
	p.probeStore(p.facts["ild"])
	return nil
}

// probeSEUInject flies Fig 11's arm for every workload (unprotected,
// EMR and serial 3-MR on fresh 256 MiB devices) and Table 7's golden
// check: a fault-free EMR run must return the unprotected run's bytes.
func probeSEUInject(p *prober) error {
	t7, seu := seuInjectConfigs(p.seed, p.workers)
	device := func(s fault.Scheme) emr.Config {
		cfg := emr.DefaultConfig()
		cfg.Scheme = s
		cfg.DRAMSize, cfg.StorageSize = 256<<20, 256<<20
		return cfg
	}
	var rows []experiments.Fig11Row
	for _, b := range workloads.All() {
		var span [3]time.Duration
		for i, s := range []fault.Scheme{fault.SchemeUnprotectedParallel, fault.SchemeEMR, fault.SchemeSerial3MR} {
			res, err := p.runPayload(device(s), b, seu.Size, seu.Seed, nil)
			if err != nil {
				return fmt.Errorf("%s/%v: %w", b.Name, s, err)
			}
			span[i] = res.Report.Makespan
		}
		row := experiments.Fig11Row{
			Workload:     b.Name,
			Serial3MRRel: float64(span[2]) / float64(span[0]),
			EMRRel:       float64(span[1]) / float64(span[0]),
		}
		row.EMRSlowdownPct = (row.EMRRel - 1) * 100
		rows = append(rows, row)
	}
	p.facts["fig11"] = fmt.Sprintf("%+v", rows)

	golden, err := p.runPayload(device(fault.SchemeNone), workloads.ImageProcessing(), t7.Size, t7.Seed, nil)
	if err != nil {
		return err
	}
	voted, err := p.runPayload(device(fault.SchemeEMR), workloads.ImageProcessing(), t7.Size, t7.Seed, nil)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(voted.Outputs, golden.Outputs) {
		p.fail("seu-inject: fault-free EMR output differs from the golden run")
	}
	for i := 0; i < 3; i++ {
		p.call("mem.newdram", func() { _ = mem.NewDRAM(256<<20, true) })
	}
	p.probeStore(p.facts["fig11"])
	return nil
}

// probeProfile is the catalog profile whose adaptive arm the
// mission-adaptive probe flies.
const probeProfile = 0

// probeMissionAdaptive flies the adaptive arm of one catalog profile,
// as experiments.AdaptiveCampaign does. Two side measurements ride
// along, outside the arm's own work: the arm's fault schedule drawn
// straight from fault.Environment.SchedulePiecewise (it must equal the
// mission layer's), and every downlinked frame decoded and re-encoded
// after the flight. A shadow guard.Supervisor also observes every
// sample: the adaptive arm runs none, so guard.observe_ns is the cost
// it would add per sample.
func probeMissionAdaptive(p *prober) error {
	c := missionAdaptiveConfig(p.seed, p.workers)
	base, err := p.trainILD(c.SEL)
	if err != nil {
		return err
	}
	goldenCfg := emr.DefaultConfig()
	goldenCfg.Scheme = fault.SchemeNone
	golden, err := p.runPayload(goldenCfg, workloads.ImageProcessing(), 32<<10, 2026, nil)
	if err != nil {
		return err
	}

	seed := c.SEL.Seed + 9000 + int64(probeProfile)*37
	prof := c.Profiles[probeProfile].Boosted(c.RateBoost)
	rng := rand.New(rand.NewSource(seed))
	var events []fault.Event
	p.call("mission.schedule", func() { events, err = prof.Schedule(rng) })
	if err != nil {
		return err
	}
	var direct []fault.Event
	p.call("fault.schedule", func() {
		direct, err = prof.Base.SchedulePiecewise(rand.New(rand.NewSource(seed)), prof.Windows())
	})
	if err != nil || !reflect.DeepEqual(direct, events) {
		p.fail("mission-adaptive: mission.Profile.Schedule differs from its fault.Environment schedule (%v)", err)
	}
	var flight *trace.Trace
	p.call("trace.flight", func() { flight = trace.FlightSoftware(rng, prof.Total(), machine.DefaultConfig().Cores) })
	p.call("ild.bubbles", func() {
		flight = ild.InjectBubbles(flight, ild.BubblePolicy{
			BubbleLen: selILDConfig(c.SEL).SustainFor + time.Second,
			Pause:     adapt.PostureFor(adapt.LevelMax).BubbleEvery,
		})
	})
	ctrl, err := adapt.New(c.Controller, nil)
	if err != nil {
		return err
	}
	arm, frames, err := p.flyAdaptive(c, prof, base.Model(), golden.Outputs, events, flight, seed, ctrl)
	if err != nil {
		return err
	}
	p.facts["adaptive"] = fmt.Sprintf("%+v moves=%+v", arm, ctrl.Trace())
	p.counts["adapt.moves"] = float64(len(ctrl.Trace()))

	for _, raw := range frames {
		var f downlink.Frame
		var derr error
		p.call("downlink.decode", func() { f, _, derr = downlink.DecodeFrame(raw) })
		if derr != nil {
			continue // corrupted on the lossy link
		}
		var again []byte
		p.call("downlink.encode", func() { again, derr = downlink.EncodeFrame(f) })
		if derr != nil || !bytes.Equal(again, raw) {
			p.fail("mission-adaptive: a received frame does not re-encode to its own bytes")
			break
		}
	}
	p.probeStore(p.facts["adaptive"])
	return nil
}

// flyAdaptive mirrors the campaign's adaptive arm over the pair-shared
// events and flight, returning the arm's tallies and a copy of every
// frame the link delivered to the ground.
func (p *prober) flyAdaptive(c experiments.AdaptiveCampaignConfig, prof mission.Profile, model *linmodel.Model,
	golden [][]byte, events []fault.Event, flight *trace.Trace, seed int64, ctrl *adapt.Controller) (experiments.AdaptiveArm, [][]byte, error) {
	arm := experiments.AdaptiveArm{DrainedAt: -1}
	total := prof.Total()
	const refireWindow, downlinkTick = 5 * time.Minute, time.Second

	var dets [adapt.NumLevels]*ild.Detector
	for l := range dets {
		cfg := selILDConfig(c.SEL)
		cfg.ThresholdA = adapt.PostureFor(adapt.Level(l)).ILDThresholdA
		det, err := ild.NewDetector(model, cfg)
		if err != nil {
			return arm, nil, err
		}
		dets[l] = det
	}
	shadowDet, err := ild.NewDetector(model, selILDConfig(c.SEL))
	if err != nil {
		return arm, nil, err
	}
	shadow, err := guard.NewSupervisor(shadowDet, guard.DefaultSupervisorConfig())
	if err != nil {
		return arm, nil, err
	}

	level := ctrl.Level()
	posture := adapt.PostureFor(level)
	bubbleLen := selILDConfig(c.SEL).SustainFor + time.Second

	var m *machine.Machine
	p.call("machine.new", func() { m = machine.New(selMachineConfig(c.SEL, seed+1)) })
	tracker := mission.NewTracker(prof, nil)

	lcfg := downlink.DefaultLinkConfig()
	lcfg.Seed = seed + 2
	link, err := downlink.NewLink(lcfg)
	if err != nil {
		return arm, nil, err
	}
	if c.LinkLoss > 0 {
		if err := link.ScheduleLinkFault(downlink.LinkFault{Drop: c.LinkLoss, Corrupt: c.LinkLoss / 2, Reorder: c.LinkLoss / 4}); err != nil {
			return arm, nil, err
		}
	}
	if c.Blackout > 0 {
		if err := link.ScheduleBlackout(downlink.Blackout{Start: total / 3, Duration: c.Blackout}); err != nil {
			return arm, nil, err
		}
	}
	tx, err := downlink.NewTransmitter(link, downlink.DefaultTxConfig(1))
	if err != nil {
		return arm, nil, err
	}
	station := downlink.NewStation(downlink.DefaultStationConfig())

	var enqErr error
	enqueue := func(vc uint8, payload string, now time.Duration) {
		if enqErr != nil {
			return
		}
		p.call("downlink.enqueue", func() { enqErr = tx.Enqueue(vc, []byte(payload), now) })
		if enqErr != nil {
			return
		}
		arm.AllEnqueued++
		if vc == 0 {
			arm.P0Enqueued++
		}
	}
	var frames [][]byte
	var lastTick time.Duration
	comms := func(now time.Duration) error {
		lastTick = now
		var err error
		p.call("downlink.tick", func() { err = tx.Tick(now) })
		if err != nil {
			return err
		}
		var down [][]byte
		p.call("downlink.recv", func() { down = link.RecvDown(now) })
		var buf []byte
		for _, raw := range down {
			buf = append(buf, raw...)
			frames = append(frames, append([]byte(nil), raw...))
		}
		if len(buf) > 0 {
			var acks [][]byte
			p.call("downlink.ingest", func() { acks = station.Ingest(buf, now) })
			for _, ack := range acks {
				p.call("downlink.send_up", func() { link.SendUp(ack, now) })
			}
		}
		return nil
	}
	if tx.Beacon() != posture.Beacon {
		tx.SetBeacon(posture.Beacon, 0, "posture "+level.String())
	}

	nextEvent, pendingSEUs := 0, 0
	selSince := time.Duration(-1)
	missedCounted := false
	lastCycle := time.Duration(-refireWindow)
	nextContact, nextHk, nextBulk, nextTick := c.ContactEvery, posture.HousekeepEvery, c.BulkEvery, downlinkTick
	var loopErr error
	idGuard, idAdapt, idPhase := p.tr.id("guard.observe"), p.tr.id("adapt.observe"), p.tr.id("mission.observe")

	p.fly(m, flight, func(tel machine.Telemetry) {
		if loopErr != nil {
			return
		}
		var phase mission.Phase
		var phaseChanged bool
		p.tr.do(idPhase, p.root, func() { phase, phaseChanged = tracker.Observe(tel.T) })
		if phaseChanged {
			enqueue(0, fmt.Sprintf("mission_phase %s t=%v", phase.Kind, tel.T), tel.T)
		}
		for nextEvent < len(events) && events[nextEvent].T <= tel.T {
			ev := events[nextEvent]
			nextEvent++
			if ev.Kind == fault.SEL {
				var err error
				p.call("machine.inject_sel", func() { err = m.InjectSEL(ev.Amps) })
				if err != nil {
					loopErr = err
					return
				}
			} else {
				pendingSEUs++
			}
		}
		if selSince >= 0 && !m.SELActive() {
			selSince = -1
		}
		if selSince < 0 && m.SELActive() {
			selSince = tel.T
			missedCounted = false
		}
		if selSince >= 0 && !missedCounted && tel.T-selSince > c.SEL.Window {
			arm.MissedSELs++
			missedCounted = true
			arm.WDResets++
			p.call("machine.power_cycle", m.PowerCycle)
			dets[level].Reset()
			lastCycle = tel.T
			selSince = -1
			ctrl.Note(tel.T, adapt.SignalWatchdogReset)
			enqueue(0, fmt.Sprintf("watchdog_reset t=%v", tel.T), tel.T)
		}

		p.tr.do(idGuard, p.root, func() { shadow.Observe(tel) })
		if p.observe(dets[level], tel) {
			arm.Detections++
			p.call("machine.power_cycle", m.PowerCycle)
			dets[level].Reset()
			sig := adapt.SignalILDDetect
			if tel.T-lastCycle <= refireWindow {
				sig = adapt.SignalILDRefire
			}
			ctrl.Note(tel.T, sig)
			lastCycle = tel.T
			selSince = -1
			enqueue(0, fmt.Sprintf("sel_detected level=%s t=%v", level, tel.T), tel.T)
		}

		var d adapt.Decision
		p.tr.do(idAdapt, p.root, func() { d = ctrl.Observe(tel.T) })
		if d.Changed {
			level = d.Level
			posture = adapt.PostureFor(level)
			dets[level].Reset()
			if tx.Beacon() != posture.Beacon {
				tx.SetBeacon(posture.Beacon, tel.T, "posture "+level.String())
			}
			enqueue(0, fmt.Sprintf("adapt_level %s t=%v", level, tel.T), tel.T)
		}

		arm.Dwell[level] += c.SEL.SampleEvery
		share := time.Duration(float64(c.SEL.SampleEvery) * float64(bubbleLen) / float64(posture.BubbleEvery))
		if phase.Quiet() {
			arm.QuietBubble += share
		} else {
			arm.ActiveBubble += share
		}

		if tel.T >= nextHk {
			enqueue(1, fmt.Sprintf("hk t=%v level=%s", tel.T, level), tel.T)
			nextHk = tel.T + posture.HousekeepEvery
		}
		for c.BulkEvery > 0 && nextBulk <= tel.T {
			enqueue(3, fmt.Sprintf("bulk t=%v frame of science payload data", nextBulk), tel.T)
			nextBulk += c.BulkEvery
		}

		if tel.T >= nextContact {
			nextContact += c.ContactEvery
			res, err := p.contact(posture, seed+int64(tel.T), pendingSEUs, golden)
			if err != nil {
				loopErr = err
				return
			}
			pendingSEUs = 0
			arm.Corrected += res.corrected
			arm.Vetoed += res.vetoed
			if phase.Quiet() {
				arm.QuietJ += res.energyJ
			} else {
				arm.ActiveJ += res.energyJ
			}
			if res.sdc {
				arm.SDC = true
			}
			if res.corrected > 0 || res.vetoed > 0 {
				ctrl.Note(tel.T, adapt.SignalEMRMismatch)
			}
		}

		if tel.T >= nextTick {
			if err := comms(tel.T); err != nil {
				loopErr = err
				return
			}
			nextTick = tel.T + downlinkTick
		}
	})
	if loopErr != nil {
		return arm, nil, loopErr
	}
	if enqErr != nil {
		return arm, nil, enqErr
	}

	drainEnd := lastTick + c.Drain
	for now := lastTick + downlinkTick; now <= drainEnd; now += downlinkTick {
		if err := comms(now); err != nil {
			return arm, nil, err
		}
		if tx.Done() {
			arm.DrainedAt = now
			break
		}
	}
	var reports []downlink.LinkReport
	p.call("downlink.report", func() { reports = station.Report() })
	for _, rep := range reports {
		for vc := 0; vc < downlink.NumVC; vc++ {
			arm.AllDelivered += rep.VC[vc].Delivered
		}
		arm.P0Delivered += rep.VC[0].Delivered
	}
	arm.Survived = !m.Damaged()
	arm.FinalLevel = level

	st := tx.Stats()
	p.counts["downlink.frames_sent"] = float64(st.Sent)
	if st.Sent > 0 {
		p.counts["downlink.retx_ratio"] = float64(st.Retransmits) / float64(st.Sent)
	}
	return arm, frames, nil
}

type contactResult struct {
	sdc               bool
	corrected, vetoed int
	energyJ           float64
}

// contact is one payload contact under the posture's redundancy rung
// with the SEU backlog striking the cache.
func (p *prober) contact(posture adapt.Posture, seed int64, seus int, golden [][]byte) (contactResult, error) {
	var out contactResult
	cfg := emr.DefaultConfig()
	switch {
	case posture.SerialChecksum:
		cfg.Scheme, cfg.Executors = fault.SchemeChecksum, 1
	case posture.Redundancy == guard.RedundancyDMRChecksum:
		cfg.Scheme, cfg.Executors = fault.SchemeEMR, 2
	default:
		cfg.Scheme, cfg.Executors = fault.SchemeEMR, 3
	}
	rng := rand.New(rand.NewSource(seed))
	remaining := seus
	res, err := p.runPayload(cfg, workloads.ImageProcessing(), 32<<10, 2026, func(rt *emr.Runtime) emr.Hook {
		return func(hp *emr.HookPoint) {
			if remaining > 0 && hp.Phase == emr.PhaseAfterRead && rng.Float64() < 0.05 {
				reg := hp.Regions[rng.Intn(len(hp.Regions))]
				f := fault.RandomFlip(rng, reg.Len)
				if rt.Cache().FlipBit(reg.Addr+f.Offset, f.Bit) {
					remaining--
				}
			}
		}
	})
	if err != nil {
		return out, err
	}
	out.corrected = res.Report.Votes.Corrected
	out.energyJ = res.Report.EnergyJ
	for i := range golden {
		switch {
		case res.Outputs[i] == nil:
			out.vetoed++
		case !bytes.Equal(res.Outputs[i], golden[i]):
			out.sdc = true
		}
	}
	return out, nil
}

// probeReplayWarm re-opens the store set-up filled and reads Fig 11's
// and Table 7's entries by hand: the key each campaign derives, the
// record, the decode. The decoded rows and tallies must equal what the
// warm campaigns rendered. No simulation layer is called.
func probeReplayWarm(p *prober) error {
	var store *resultcache.Store
	var err error
	p.call("resultcache.open", func() { store, err = resultcache.Open(p.filled) })
	if err != nil {
		return err
	}
	defer store.Close()
	get := func(domain string, enc func(*resultcache.Enc)) (*resultcache.Dec, error) {
		var e resultcache.Enc
		enc(&e)
		var key resultcache.Key
		p.call("resultcache.key", func() { key = store.Key(domain, &e) })
		var payload []byte
		var ok bool
		p.call("resultcache.get", func() { payload, ok = store.Get(key) })
		if !ok {
			return nil, fmt.Errorf("replay-warm: %s entry missing from the filled store", domain)
		}
		return resultcache.NewDec(payload), nil
	}

	seu := replaySEU(p.seed)
	var rows []experiments.Fig11Row
	for _, b := range workloads.All() {
		d, err := get("fig11/v1", func(e *resultcache.Enc) { e.Int(int64(seu.Size)); e.Int(seu.Seed); e.Str(b.Name) })
		if err != nil {
			return err
		}
		var r experiments.Fig11Row
		p.call("experiments.decode", func() {
			r = experiments.Fig11Row{Workload: d.Str(), Serial3MRRel: d.Float(), EMRRel: d.Float(), EMRSlowdownPct: d.Float()}
			err = d.Close()
		})
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}
	p.facts["fig11"] = fmt.Sprintf("%+v", rows)

	t7 := replayTable7(p.seed)
	schemes := []struct {
		name string
		mbu  bool
	}{{"None", false}, {"3-MR", false}, {"EMR", false}, {"EMR + MBU", true}, {"Checksum", false}}
	tallies := map[string]*fault.Tally{}
	for _, sc := range schemes {
		tally := &fault.Tally{}
		for run := 0; run < t7.Runs; run++ {
			d, err := get("table7/v1", func(e *resultcache.Enc) {
				e.Int(int64(t7.Size))
				e.Int(t7.Seed)
				e.Str(sc.name)
				e.Bool(sc.mbu)
				e.Int(int64(run))
			})
			if err != nil {
				return err
			}
			p.call("experiments.decode", func() {
				tally.Add(fault.Outcome(d.Int()))
				err = d.Close()
			})
			if err != nil {
				return err
			}
		}
		tallies[sc.name] = tally
	}
	p.facts["tab7"] = formatTallies(tallies)
	return nil
}
