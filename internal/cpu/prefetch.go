package cpu

import "raccd/internal/mem"

const (
	// deltaTableSize is the region-indexed trainer: one entry per 4 KiB
	// page currently being streamed. Direct-mapped, power of two.
	deltaTableSize = 256
	// filterTableSize is the direct-mapped filter of recently prefetched
	// blocks: it dedupes in-flight prefetches and classifies later demand
	// references to them as useful or late.
	filterTableSize = 512
	// confThreshold is how many consecutive matching deltas arm an entry.
	confThreshold = 2
	// confMax caps confidence so one long stream cannot pin an entry
	// against retraining forever.
	confMax = 15
	// prefetchIssueCycles is the core-side cost of injecting one prefetch:
	// the access itself runs asynchronously (its memory latency is not
	// charged to the core), but issuing it occupies an issue slot.
	prefetchIssueCycles = 1
)

// deltaEntry tracks one region's (page's) access pattern: the last block
// touched and the repeating block delta, with a confidence counter.
//
// The trainer is region-indexed rather than PC-indexed because the
// simulator executes task bodies, not instructions — there is no program
// counter, and recorded RTF traces carry only (va, write) per access.
// A page-granular region index is replay-stable and captures the same
// streaming structure: a stencil or copy kernel walks each page with a
// constant block stride.
type deltaEntry struct {
	tag       mem.Page
	lastBlock mem.Block
	delta     int64
	conf      uint8
}

// prefetchModel wraps an inner core model with a delta-pattern stride
// prefetcher. On every demand access it trains the region's delta entry;
// once a delta repeats confThreshold times it injects `degree` prefetch
// reads `distance` strides ahead of the demand stream, through the Issuer
// the runtime bound at BeginTask — real accesses against the real
// hierarchy, so every prefetch pays directory lookups, sharer updates and
// NoC hops under the run's coherence scheme.
type prefetchModel struct {
	inner    Model
	degree   int
	distance int
	missLat  uint64

	issue Issuer

	table  [deltaTableSize]deltaEntry
	filter [filterTableSize]mem.Block
	valid  [filterTableSize]bool

	stats Stats
}

func newPrefetcher(inner Model, degree, distance int, missLat uint64) *prefetchModel {
	return &prefetchModel{inner: inner, degree: degree, distance: distance, missLat: missLat}
}

func (p *prefetchModel) Name() string { return p.inner.Name() }

func (p *prefetchModel) BeginTask(issue Issuer) {
	p.issue = issue
	p.inner.BeginTask(issue)
}

func (p *prefetchModel) Access(va mem.Addr, write bool, lat uint64) uint64 {
	p.stats.Accesses++

	// Classify against the filter first: was this block prefetched?
	b := mem.BlockOf(va)
	slot := int(uint64(b) & (filterTableSize - 1))
	if p.valid[slot] && p.filter[slot] == b {
		p.valid[slot] = false // consumed
		if lat < p.missLat {
			p.stats.PrefetchUseful++
		} else {
			// Prefetched but missed anyway: evicted, or invalidated by a
			// remote writer (coherence took it back).
			p.stats.PrefetchLate++
		}
	} else if lat >= p.missLat {
		p.stats.DemandMisses++
	}

	charged := p.inner.Access(va, write, lat)

	// Train the region's delta entry and fire when confident.
	pg := mem.PageOf(va)
	e := &p.table[int(uint64(pg)&(deltaTableSize-1))]
	if e.tag != pg {
		*e = deltaEntry{tag: pg, lastBlock: b}
		return charged
	}
	d := int64(b) - int64(e.lastBlock)
	if d == 0 {
		return charged // same block re-touched; not a stride observation
	}
	if d == e.delta {
		if e.conf < confMax {
			e.conf++
		}
	} else {
		e.delta = d
		e.conf = 1
	}
	e.lastBlock = b
	if e.conf < confThreshold || p.issue == nil {
		return charged
	}
	for i := 0; i < p.degree; i++ {
		t := int64(b) + e.delta*int64(p.distance+i)
		if t <= 0 {
			continue
		}
		tb := mem.Block(t)
		fs := int(uint64(tb) & (filterTableSize - 1))
		if p.valid[fs] && p.filter[fs] == tb {
			continue // already in flight
		}
		p.issue(tb.Addr()) // async: memory latency not charged to the core
		p.stats.PrefetchIssued++
		p.filter[fs] = tb
		p.valid[fs] = true
		charged += prefetchIssueCycles
	}
	return charged
}

func (p *prefetchModel) DrainTask() uint64 { return p.inner.DrainTask() }

// Stats returns the prefetcher's counters; Accesses is counted here (the
// inner model counts its own, which would double otherwise).
func (p *prefetchModel) Stats() Stats { return p.stats }
