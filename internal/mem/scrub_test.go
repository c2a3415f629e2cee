package mem

import (
	"math/rand"
	"testing"
)

func TestScrubberRequiresECC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewScrubber(non-ECC) did not panic")
		}
	}()
	NewScrubber(NewDRAM(64, false))
}

func TestScrubberCorrectsSingleFlips(t *testing.T) {
	d := NewDRAM(1024, true)
	if err := d.Write(0, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	// Ten scattered single-bit flips, at most one per word.
	for w := 0; w < 10; w++ {
		d.FlipBit(uint64(w*64), uint(w%8))
	}
	s := NewScrubber(d)
	if bad := s.Step(int(d.Size() / 8)); bad != 0 {
		t.Fatalf("scrub found %d uncorrectable words, want 0", bad)
	}
	if s.Passes() != 1 {
		t.Fatalf("Passes = %d, want 1", s.Passes())
	}
	if got := d.Stats().Corrected; got != 10 {
		t.Fatalf("Corrected = %d, want 10", got)
	}
	// All clean now: a second pass corrects nothing further.
	s.Step(int(d.Size() / 8))
	if got := d.Stats().Corrected; got != 10 {
		t.Fatalf("Corrected after second pass = %d, want still 10", got)
	}
}

func TestScrubberReportsUncorrectable(t *testing.T) {
	d := NewDRAM(256, true)
	d.FlipBit(8, 0)
	d.FlipBit(9, 3) // second flip in the same word: uncorrectable
	s := NewScrubber(d)
	if bad := s.Step(int(d.Size() / 8)); bad != 1 {
		t.Fatalf("uncorrectable = %d, want 1", bad)
	}
	if errs := s.Errors(); len(errs) != 1 {
		t.Fatalf("Errors len = %d", len(errs))
	}
	// The scrubber continued past the poisoned word.
	if s.Visited() != d.Size()/8 {
		t.Fatalf("Visited = %d, want %d", s.Visited(), d.Size()/8)
	}
}

func TestScrubberPreventsAccumulation(t *testing.T) {
	// Without scrubbing, periodic single flips accumulate into
	// uncorrectable pairs; with scrubbing between strikes, every flip is
	// repaired before the next can pair with it.
	strike := func(d *DRAM, rng *rand.Rand) {
		addr := uint64(rng.Intn(int(d.Size())))
		d.FlipBit(addr, uint(rng.Intn(8)))
	}
	run := func(scrub bool) (uncorrectable int) {
		d := NewDRAM(512, true) // small array: collisions are likely
		rng := rand.New(rand.NewSource(7))
		var s *Scrubber
		if scrub {
			s = NewScrubber(d)
		}
		for i := 0; i < 200; i++ {
			strike(d, rng)
			if scrub {
				s.Step(int(d.Size() / 8)) // full patrol between strikes
			}
		}
		// Final audit.
		audit := NewScrubber(d)
		return audit.Step(int(d.Size() / 8))
	}
	if bad := run(true); bad != 0 {
		t.Fatalf("scrubbed array still has %d uncorrectable words", bad)
	}
	if bad := run(false); bad == 0 {
		t.Fatal("unscrubbed array accumulated no uncorrectable words; strike count too low for the test")
	}
}

// TestScrubberSkipsMissingPages pins the scrubber's page skip: over a
// sparse device it must report exactly what it reports over the same
// device with every page created by zero writes — passes, visits,
// corrections and uncorrectable words — for steps that stop inside,
// at the edge of, and across pages and the end of the array. The skip
// itself must create no page.
func TestScrubberSkipsMissingPages(t *testing.T) {
	const size = 5*pageSize + 1000 // pages 2 and 4 stay missing
	strike := func(d *DRAM) {
		d.FlipBit(5, 1)                                  // page 0, single
		d.FlipBit(3*pageSize+64, 0)                      // page 3, double
		d.FlipBit(3*pageSize+65, 4)                      //
		d.FlipBit(size-3, 6)                             // partial last page
		d.Write(pageSize-4, []byte{9, 8, 7, 6, 5, 4, 3}) // straddles pages 0 and 1
	}
	sparse := NewDRAM(size, true)
	strike(sparse)
	full := NewDRAM(size, true)
	for a := uint64(0); a < size; a += pageSize {
		if err := full.Write(a, make([]byte, min(pageSize, size-a))); err != nil {
			t.Fatal(err)
		}
	}
	strike(full)
	present := sparse.present()

	ss, fs := NewScrubber(sparse), NewScrubber(full)
	words := int(size / wordSize)
	for _, n := range []int{1, pageWords - 2, 3, pageWords, 7, words, 2*words + 5, 0, pageWords/2 + 1} {
		if got, want := ss.Step(n), fs.Step(n); got != want {
			t.Fatalf("Step(%d): %d uncorrectable on sparse device, %d on full", n, got, want)
		}
		if ss.Passes() != fs.Passes() || ss.Visited() != fs.Visited() || ss.next != fs.next {
			t.Fatalf("Step(%d): sparse passes/visited/next %d/%d/%d, full %d/%d/%d", n,
				ss.Passes(), ss.Visited(), ss.next, fs.Passes(), fs.Visited(), fs.next)
		}
		if sparse.Stats().Corrected != full.Stats().Corrected {
			t.Fatalf("Step(%d): sparse corrected %d, full %d", n, sparse.Stats().Corrected, full.Stats().Corrected)
		}
		if len(ss.Errors()) != len(fs.Errors()) {
			t.Fatalf("Step(%d): sparse kept %d errors, full %d", n, len(ss.Errors()), len(fs.Errors()))
		}
	}
	if ss.Passes() < 3 || sparse.Stats().Corrected != 2 {
		t.Fatalf("scrub did too little: %d passes, %d corrected", ss.Passes(), sparse.Stats().Corrected)
	}
	if got := sparse.present(); got != present || present != 4 {
		t.Fatalf("pages present: %d before scrubbing, %d after; want 4 both", present, got)
	}
}
