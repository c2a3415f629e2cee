package mem

import "radshield/internal/telemetry"

// Scrubber implements background ECC patrol scrubbing, the standard
// defence against error accumulation in ECC memories: single-bit upsets
// are harmless individually, but two upsets landing in the same 64-bit
// word before anything reads it become uncorrectable. A scrubber walks
// the array continuously, reading (and thereby correcting) every word,
// bounding the window in which a second strike can pair with the first.
//
// The paper's reliability frontier assumes ECC devices absorb upsets;
// patrol scrubbing is what keeps that assumption sound on long missions,
// so this reproduction ships it as an optional extension.
type Scrubber struct {
	dram *DRAM
	next uint64 // next word index to visit

	passes     uint64
	visited    uint64
	lastErrors []error

	reg            *telemetry.Registry
	passesCtr      *telemetry.Counter // mem_scrub_passes_total
	visitedCtr     *telemetry.Counter // mem_scrub_words_visited_total
	correctedCtr   *telemetry.Counter // mem_scrub_corrected_total
	uncorrectedCtr *telemetry.Counter // mem_scrub_uncorrectable_total
}

// SetTelemetry attaches a metrics registry: scrub passes, word visits,
// in-place corrections, and uncorrectable hits are counted, and each
// uncorrectable word emits a scrub_error event. Nil detaches.
func (s *Scrubber) SetTelemetry(reg *telemetry.Registry) {
	s.reg = reg
	if reg == nil {
		s.passesCtr, s.visitedCtr, s.correctedCtr, s.uncorrectedCtr = nil, nil, nil, nil
		return
	}
	s.passesCtr = reg.Counter("mem_scrub_passes_total", "passes")
	s.visitedCtr = reg.Counter("mem_scrub_words_visited_total", "words")
	s.correctedCtr = reg.Counter("mem_scrub_corrected_total", "words")
	s.uncorrectedCtr = reg.Counter("mem_scrub_uncorrectable_total", "words")
}

// NewScrubber returns a scrubber over an ECC DRAM. It panics when the
// device has no ECC — scrubbing a raw array is meaningless.
func NewScrubber(d *DRAM) *Scrubber {
	if !d.HasECC() {
		//radlint:allow nopanic scrubbing a non-ECC device is a wiring bug; documented panic contract
		panic("mem: NewScrubber on non-ECC DRAM")
	}
	return &Scrubber{dram: d}
}

// Step verifies the next n words (correcting any single-bit errors in
// place) and returns how many uncorrectable words it encountered.
// Uncorrectable words are left untouched and reported via Errors; the
// scrubber continues past them. Words on a page nothing has written or
// struck are zero codewords, so the scrubber counts them as visited and
// skips their page in one step.
func (s *Scrubber) Step(n int) int {
	words := s.dram.Size() / wordSize
	if words == 0 {
		return 0
	}
	correctedBefore := s.dram.Stats().Corrected
	uncorrectable := 0
	for left := uint64(max(n, 0)); left > 0; {
		stop := min(s.next+left, words, (s.next/pageWords+1)*pageWords)
		if pg := s.dram.pages[s.next/pageWords]; pg != nil {
			for w := s.next; w < stop; w++ {
				if err := s.dram.verify(pg, w); err != nil {
					uncorrectable++
					s.record(w, err)
				}
			}
		}
		left -= stop - s.next
		s.visited += stop - s.next
		s.next = stop
		if s.next == words {
			s.next = 0
			s.passes++
			s.passesCtr.Inc()
		}
	}
	s.visitedCtr.Add(uint64(n))
	s.correctedCtr.Add(s.dram.Stats().Corrected - correctedBefore)
	return uncorrectable
}

// record keeps err among the last 16 uncorrectable-word errors and
// reports it to telemetry.
func (s *Scrubber) record(w uint64, err error) {
	s.lastErrors = append(s.lastErrors, err)
	if len(s.lastErrors) > 16 {
		s.lastErrors = s.lastErrors[1:]
	}
	if s.reg != nil {
		s.uncorrectedCtr.Inc()
		s.reg.Emit(telemetry.Event{
			Kind:   telemetry.KindScrubError,
			Fields: map[string]any{"word": w, "error": err.Error()},
		})
	}
}

// Passes returns how many full sweeps of the array have completed.
func (s *Scrubber) Passes() uint64 { return s.passes }

// Visited returns the total number of word visits.
func (s *Scrubber) Visited() uint64 { return s.visited }

// Errors returns the most recent uncorrectable-word errors (up to 16).
func (s *Scrubber) Errors() []error {
	return append([]error(nil), s.lastErrors...)
}
