//go:build !race

// Allocation-regression tests for the campaign trials. Excluded under
// -race: race instrumentation allocates on its own.

package experiments

import (
	"runtime"
	"testing"

	"radshield/internal/emr"
	"radshield/internal/fault"
	"radshield/internal/workloads"
)

// TestAllocsTable7Trial bounds the heap one Table 7 injection trial
// allocates on its 256 MiB board. Device memory is paged, so a trial
// pays for the pages its 64 KiB dataset, replicas and outputs touch,
// not for the board: an eagerly built board alone would be 577 MiB.
func TestAllocsTable7Trial(t *testing.T) {
	const bound = 16 << 20
	b := workloads.ImageProcessing()
	c := DefaultTable7Config()
	golden, err := runScheme(b, fault.SchemeNone, emr.FrontierDRAM, SEUConfig{Size: c.Size, Seed: c.Seed}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := seuDevice(fault.SchemeEMR, emr.FrontierDRAM, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := injectOnce(b, cfg, false, c, 0, golden.Outputs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Errorf("one Table 7 trial allocated %.1f MiB, want < %d MiB", float64(got)/(1<<20), bound>>20)
	} else {
		t.Logf("one Table 7 trial allocated %.2f MiB", float64(got)/(1<<20))
	}
}
