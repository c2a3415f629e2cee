package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer: an interned name, the index of
// the span that caused it (-1 for the root), and its host-clock
// interval in nanoseconds since the tracer's base.
type span struct {
	name       uint16
	parent     int32
	start, end int64
}

// tracer keeps every span in memory and hands them over once the probe
// ends. It is not safe for concurrent use: concurrent jobs record into
// their own slots and are appended afterwards (see probeSched).
type tracer struct {
	base  time.Time
	names []string
	ids   map[string]uint16
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), ids: map[string]uint16{}, spans: make([]span, 0, capacity)}
}

// id interns a span name of the form "<layer>.<call>".
func (t *tracer) id(name string) uint16 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its index for end. The clock is read
// after the append, so growing the buffer is never charged to the span.
func (t *tracer) begin(id uint16, parent int32) int32 {
	t.spans = append(t.spans, span{name: id, parent: parent})
	i := int32(len(t.spans) - 1)
	t.spans[i].start = t.now()
	return i
}

func (t *tracer) end(i int32) { t.spans[i].end = t.now() }

// do wraps one call in a span.
func (t *tracer) do(id uint16, parent int32, fn func()) {
	s := t.begin(id, parent)
	fn()
	t.end(s)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its direct children. Children are clipped to the
// parent's interval and may overlap each other (jobs running on several
// workers at once); overlapping coverage is counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		self[i] = p.end - p.start - covered(spans, children[i], p.start, p.end)
	}
	return self
}

// covered is the length of the union of the given spans' intervals
// within [lo, hi].
func covered(spans []span, idx []int32, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start }) {
		idx = append([]int32(nil), idx...)
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	var total int64
	curLo, curHi := int64(0), int64(-1) // empty run
	for _, c := range idx {
		s, e := spans[c].start, spans[c].end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e <= s {
			continue
		}
		if s > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = s, e
			continue
		}
		if e > curHi {
			curHi = e
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// callStats aggregates spans by name.
type callStats struct {
	count int
	total int64 // summed durations, ns
}

func (c callStats) mean() float64 {
	if c.count == 0 {
		return 0
	}
	return float64(c.total) / float64(c.count)
}

// summary is the per-call and per-layer view of one probe's spans.
type summary struct {
	calls     map[string]callStats
	layerSelf map[string]int64 // self time per layer, ns
	selfOf    map[string]int64 // self time per span name, ns
	root      int64            // duration of the root span(s), ns
}

func summarize(t *tracer) summary {
	self := selfTimes(t.spans)
	sum := summary{calls: map[string]callStats{}, layerSelf: map[string]int64{}, selfOf: map[string]int64{}}
	for i, s := range t.spans {
		name := t.names[s.name]
		c := sum.calls[name]
		c.count++
		c.total += s.end - s.start
		sum.calls[name] = c
		sum.selfOf[name] += self[i]
		sum.layerSelf[layerOf(name)] += self[i]
		if s.parent < 0 {
			sum.root += s.end - s.start
		}
	}
	return sum
}

// layerOf maps a span name to the layer its self time is charged to.
// mem and ecc sit under emr, as in the repo's layer map.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	if l == "mem" {
		return "emr"
	}
	return l
}

// selfFrac is a layer's self time as a share of the probe's root span.
func (s summary) selfFrac(layer string) float64 {
	if s.root == 0 {
		return 0
	}
	return float64(s.layerSelf[layer]) / float64(s.root)
}
