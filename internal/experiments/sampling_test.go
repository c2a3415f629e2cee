package experiments

import (
	"bytes"
	"testing"

	"radshield/internal/emr"
	"radshield/internal/fault"
	"radshield/internal/telemetry"
	"radshield/internal/workloads"
)

// resized returns cfg with its DRAM and storage set to size bytes.
func resized(cfg emr.Config, size uint64) emr.Config {
	cfg.DRAMSize, cfg.StorageSize = size, size
	return cfg
}

// TestInjectorsSampleRegionsNotDevices pins how the injectors place
// upsets: each draws its offset over the region it strikes (a cached
// dataset region, an executor output, a frontier input), never over the
// device. So the same seed on a 64 MiB and a 256 MiB board must give the
// same Table 7 outcomes, the same Figure 11 runs, and the same mission
// and adaptive payload contacts. Sampling over the device instead would
// scale the strike count with memory nobody uses.
func TestInjectorsSampleRegionsNotDevices(t *testing.T) {
	const small, large = 64 << 20, 256 << 20
	b := workloads.ImageProcessing()

	c := Table7Config{Runs: 60, Size: 16 << 10, Seed: 7}
	golden, err := runScheme(b, fault.SchemeNone, emr.FrontierDRAM, SEUConfig{Size: c.Size, Seed: c.Seed}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	struck := map[string]int{}
	for _, sc := range []struct {
		scheme fault.Scheme
		mbu    bool
	}{{fault.SchemeNone, false}, {fault.SchemeEMR, true}, {fault.SchemeChecksum, false}} {
		cfg := seuDevice(sc.scheme, emr.FrontierDRAM, nil)
		for run := int64(0); run < int64(c.Runs); run++ {
			got, err := injectOnce(b, resized(cfg, small), sc.mbu, c, run, golden.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			traced := c
			traced.Telemetry = telemetry.NewRegistry(telemetry.DefaultEventCap)
			want, err := injectOnce(b, resized(cfg, large), sc.mbu, traced, run, golden.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("Table 7 %v run %d: %v on 64 MiB, %v on 256 MiB", sc.scheme, run, got, want)
			}
			for _, ev := range traced.Telemetry.Events() {
				target := ev.Fields["target"].(string)
				struck[target]++
				// Two adjacent bits of one frontier word are always
				// detected when they land in the dataset; drawn over the
				// device they would almost never land there.
				if target != "frontier" || !sc.mbu {
					continue
				}
				struck["frontier-mbu"]++
				if want != fault.DetectedError {
					t.Errorf("Table 7 %v run %d: MBU frontier strike gave %v, want %v", sc.scheme, run, want, fault.DetectedError)
				}
			}
		}
	}
	for _, target := range []string{"cache", "pipeline", "descriptor", "frontier-mbu"} {
		if struck[target] == 0 {
			t.Fatalf("no Table 7 run struck the %s; the comparison does not cover that injector", target)
		}
	}
	t.Logf("Table 7 strikes by target: %v", struck)

	sc := SEUConfig{Size: 16 << 10, Seed: 42}
	for _, scheme := range []fault.Scheme{fault.SchemeUnprotectedParallel, fault.SchemeEMR, fault.SchemeSerial3MR} {
		cfg := seuDevice(scheme, emr.FrontierDRAM, nil)
		got, err := runOn(resized(cfg, small), b, sc, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runOn(resized(cfg, large), b, sc, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Report.Makespan != want.Report.Makespan || got.Report.EnergyJ != want.Report.EnergyJ {
			t.Errorf("Figure 11 %v: makespan %v / energy %v on 64 MiB, %v / %v on 256 MiB",
				scheme, got.Report.Makespan, got.Report.EnergyJ, want.Report.Makespan, want.Report.EnergyJ)
		}
		for i := range want.Outputs {
			if !bytes.Equal(got.Outputs[i], want.Outputs[i]) {
				t.Errorf("Figure 11 %v: output %d differs between board sizes", scheme, i)
			}
		}
	}

	missionRef, err := missionGolden()
	if err != nil {
		t.Fatal(err)
	}
	var corrected int
	for _, cfg := range []emr.Config{seuDevice(fault.SchemeUnprotectedParallel, emr.FrontierDRAM, nil), seuDevice(fault.SchemeEMR, emr.FrontierDRAM, nil)} {
		for seed := int64(1); seed <= 4; seed++ {
			got, err := strikePayload(resized(cfg, small), seed, 40, missionRef)
			if err != nil {
				t.Fatal(err)
			}
			want, err := strikePayload(resized(cfg, large), seed, 40, missionRef)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("payload %v seed %d: %+v on 64 MiB, %+v on 256 MiB", cfg.Scheme, seed, got, want)
			}
			corrected += want.corrected
		}
	}
	if corrected == 0 {
		t.Fatal("no payload strike was outvoted; the comparison proves nothing")
	}
}
