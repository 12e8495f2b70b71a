// Package ids implements the operational recommendation of the paper's
// Discussion section: an inline intrusion-detection component that
// tracks scan candidates at several source-aggregation levels
// *simultaneously*, with bounded per-source memory, and recommends per
// scanning entity the most specific blocklist prefix that captures its
// activity.
//
// The paper shows that any fixed aggregation mask fails: too specific
// (/128) misses actors that spread sources across a prefix (AS #9,
// AS #18), too coarse (/32) merges distinct tenants of a cloud provider
// and causes collateral damage when blocklisting (AS #6). The engine
// here resolves this by:
//
//  1. maintaining per-level candidate tables keyed by aggregated source
//     prefix, using HyperLogLog destination sketches (constant memory
//     per candidate, unlike the exact sets of the offline detector);
//  2. alerting at the *most specific* level whose estimated destination
//     cardinality crosses the threshold;
//  3. suppressing redundant coarser alerts when a more specific prefix
//     already accounts for the bulk of the coarser aggregate's
//     destinations — and escalating to the coarser prefix when it does
//     not (the spread-source case).
//
// Engine is single-goroutine and allocation-light: candidate tables are
// u128idx.Index instances (open-addressed, pointer-free U128 keys, u32
// handles into paged candidate arrays), and candidates hold their first
// destination inline, materializing the sketch only on the second
// distinct destination — at fine aggregation levels the overwhelming
// majority of candidates are short-lived background sources that never
// need one. The inline-first-destination cutoff is 1 (a single address)
// because the sketch, unlike a set, has no cheap intermediate size: the
// first distinct second address pays the full 2^precision registers, so
// there is nothing to re-tune between 1 and materialization — the only
// knob is SketchPrecision. ProcessBatch additionally groups adjacent
// same-source records so a burst of N records to one candidate costs
// one index probe per level. ShardedEngine (sharded.go) runs N engines
// in parallel, partitioned by coarsest-level source prefix, with
// byte-identical merged output.
package ids

import (
	"fmt"
	"net/netip"
	"sort"
	"sync/atomic"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
	"v6scan/internal/u128idx"
)

// Config parameterizes the engine.
type Config struct {
	// MinDsts is the destination-cardinality alert threshold
	// (default 100, the paper's large-scale scan bar).
	MinDsts int
	// Timeout evicts idle candidates (default 1 hour, the scan
	// definition's inter-arrival bound).
	Timeout time.Duration
	// Levels are the aggregation levels tracked, most specific first
	// (default /128, /64, /48, /32). New accepts any order and does not
	// modify the slice.
	Levels []netaddr6.AggLevel
	// SketchPrecision sets HyperLogLog register count = 2^precision
	// per candidate (default 10 → 1 KiB, ≈3% error).
	SketchPrecision uint8
	// CoverageShare is the fraction of a coarser aggregate's
	// destinations a more specific alert must explain to suppress the
	// coarser alert (default 0.9).
	CoverageShare float64
	// MaxCandidates bounds each level's table; when full, new
	// candidates are dropped (deployments would shard or sample).
	// Default 1<<20.
	MaxCandidates int
}

// DefaultConfig returns production-oriented defaults.
func DefaultConfig() Config {
	return Config{
		MinDsts:         100,
		Timeout:         time.Hour,
		Levels:          []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48, netaddr6.Agg32},
		SketchPrecision: 10,
		CoverageShare:   0.9,
		MaxCandidates:   1 << 20,
	}
}

// Alert is one detected scanning entity with a blocklist
// recommendation.
type Alert struct {
	// Prefix is the recommended blocklist entry: the most specific
	// aggregation that captures the entity's activity.
	Prefix netip.Prefix
	// Level is the aggregation level of Prefix.
	Level netaddr6.AggLevel
	// EstimatedDsts is the sketched destination cardinality.
	EstimatedDsts uint64
	// Packets counts packets attributed to the entity.
	Packets uint64
	// First and Last bound the observed activity.
	First, Last time.Time
	// Escalated reports that a coarser prefix was chosen because no
	// more specific candidate explained the activity (the AS #18
	// spread-source pattern).
	Escalated bool
}

// String renders a log line.
func (a Alert) String() string {
	esc := ""
	if a.Escalated {
		esc = " (escalated: spread-source entity)"
	}
	return fmt.Sprintf("scan from %v [%v]: ≈%d dsts, %d packets, %v–%v%s",
		a.Prefix, a.Level, a.EstimatedDsts, a.Packets,
		a.First.Format(time.RFC3339), a.Last.Format(time.RFC3339), esc)
}

// sortAlerts orders alerts by first activity, then address, then
// prefix length. The comparator is a total order (no two distinct
// alerts compare equal: a level appears at most once per prefix), so
// the result is deterministic regardless of accumulation order — the
// property ShardedEngine's merge relies on for byte-identical output.
func sortAlerts(alerts []Alert) {
	sort.Slice(alerts, func(i, j int) bool {
		if !alerts[i].First.Equal(alerts[j].First) {
			return alerts[i].First.Before(alerts[j].First)
		}
		if c := alerts[i].Prefix.Addr().Compare(alerts[j].Prefix.Addr()); c != 0 {
			return c < 0
		}
		return alerts[i].Prefix.Bits() < alerts[j].Prefix.Bits()
	})
}

// candidate is the in-flight state for one aggregated source prefix.
// The sketch is materialized lazily: until a second distinct
// destination arrives, the single destination lives inline and the
// candidate costs no sketch memory. HyperLogLog insertion is
// idempotent per address, so the late-materialized sketch is
// byte-identical to one fed every record.
// Candidates live in paged per-level arrays addressed by u32 handles
// and are recycled through a free list on eviction (alloc/recycle
// below), with their sketches reset and pooled alongside: steady-state
// ingest otherwise allocates one candidate per source per level, which
// dominates the engine's allocation rate on million-record days.
type candidate struct {
	firstDst    netaddr6.U128
	sketch      *core.DstSketch
	packets     uint64
	first, last time.Time
}

// estimate returns the candidate's destination cardinality: exactly 1
// on the inline fast path, the sketch estimate otherwise.
func (c *candidate) estimate() uint64 {
	if c.sketch == nil {
		return 1
	}
	return c.sketch.Estimate()
}

// level is one aggregation level's candidate table: an open-addressed
// index keyed by the masked 128-bit source (the prefix length is the
// level itself) mapping to u32 handles into paged candidate arrays —
// pointer-free keys keep the garbage collector from tracing millions
// of interned netip.Addr zone pointers on every cycle, and pages never
// move once allocated, so *candidate pointers stay valid across alloc.
type level struct {
	agg netaddr6.AggLevel
	idx u128idx.Index
	// oldest is a conservative lower bound on every live candidate's
	// last-activity time (zero when unknown/empty). Candidate activity
	// only moves last forward, so the bound lets sweep skip the whole
	// level — exactly, not heuristically — when even the stalest
	// possible candidate would not be idle yet: the common case for
	// minute-cadence Ticks over an hour-scale timeout.
	oldest time.Time
	// pages, free, next and freeSketch implement the handle-addressed
	// candidate arena: handles are page<<candidatePageShift | offset,
	// evicted candidates return through free, and their sketches are
	// reset and pooled for the next candidate that needs one.
	pages      [][]candidate
	free       []uint32
	next       uint32
	freeSketch []*core.DstSketch
}

// candidatePageShift sets the page granularity, 512 candidates/page
// (see the detector's sessionPageShift for the trade-off).
const (
	candidatePageShift = 9
	candidatePageSize  = 1 << candidatePageShift
)

// candidate returns the candidate addressed by handle h.
func (lv *level) candidate(h uint32) *candidate {
	return &lv.pages[h>>candidatePageShift][h&(candidatePageSize-1)]
}

// alloc returns a zeroed candidate and its handle, from the free list
// or by carving the next page slot.
func (lv *level) alloc() (uint32, *candidate) {
	if n := len(lv.free) - 1; n >= 0 {
		h := lv.free[n]
		lv.free = lv.free[:n]
		return h, lv.candidate(h)
	}
	if int(lv.next) == len(lv.pages)<<candidatePageShift {
		lv.pages = append(lv.pages, make([]candidate, candidatePageSize))
	}
	h := lv.next
	lv.next++
	return h, lv.candidate(h)
}

// recycle resets an evicted candidate and returns its handle (and its
// sketch, reset) to the level's pools. Callers must be done reading it.
func (lv *level) recycle(h uint32, c *candidate) {
	if c.sketch != nil {
		c.sketch.Reset()
		lv.freeSketch = append(lv.freeSketch, c.sketch)
	}
	*c = candidate{}
	lv.free = append(lv.free, h)
}

// observeDst records one destination for a candidate, materializing
// the sketch (pooled when available) on the second distinct address.
// HyperLogLog insertion is idempotent per address, so the
// late-materialized sketch is byte-identical to one fed every record.
func (lv *level) observeDst(c *candidate, d netaddr6.U128, precision uint8) {
	if c.sketch == nil {
		if d == c.firstDst {
			return
		}
		if n := len(lv.freeSketch) - 1; n >= 0 {
			c.sketch = lv.freeSketch[n]
			lv.freeSketch = lv.freeSketch[:n]
		} else {
			c.sketch = core.NewDstSketch(precision)
		}
		c.sketch.AddU128(c.firstDst)
	}
	c.sketch.AddU128(d)
}

// Engine is the dynamic-aggregation IDS.
type Engine struct {
	cfg    Config
	levels []*level // most specific first, ordered once at New
	now    time.Time

	// alerts accumulated since the last Drain.
	alerts []Alert
	// dropped counts candidates rejected by MaxCandidates. Atomic so
	// observability surfaces (the metrics registry, a serving daemon's
	// state endpoint) can read it from any goroutine while the engine
	// processes on its own — the only engine field with that property.
	dropped atomic.Uint64
	// skipped counts records ignored for a non-IPv6 source.
	skipped uint64

	// scrDst is the per-run destination scratch for ProcessBatch; one
	// backs the Process single-record wrapper.
	scrDst []netaddr6.U128
	one    [1]firewall.Record
}

// New returns an engine.
func New(cfg Config) *Engine {
	def := DefaultConfig()
	if cfg.MinDsts <= 0 {
		cfg.MinDsts = def.MinDsts
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = def.Timeout
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = def.Levels
	}
	if cfg.SketchPrecision == 0 {
		cfg.SketchPrecision = def.SketchPrecision
	}
	if cfg.CoverageShare <= 0 || cfg.CoverageShare > 1 {
		cfg.CoverageShare = def.CoverageShare
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = def.MaxCandidates
	}
	// Order levels most specific first, once: alerting prefers
	// specificity and sweep relies on this ordering every call. Sort a
	// copy — callers' Levels slices are not modified.
	levels := append([]netaddr6.AggLevel(nil), cfg.Levels...)
	sort.Slice(levels, func(i, j int) bool { return levels[i] > levels[j] })
	cfg.Levels = levels
	e := &Engine{cfg: cfg}
	for _, l := range levels {
		e.levels = append(e.levels, &level{agg: l})
	}
	return e
}

// Config returns the engine's normalized configuration (defaults
// applied, levels ordered most specific first).
func (e *Engine) Config() Config { return e.cfg }

// Process ingests one record, updating every level's candidate.
func (e *Engine) Process(r firewall.Record) {
	e.one[0] = r
	e.ProcessBatch(e.one[:])
}

// ProcessBatch ingests a run of records. The slice is not retained, so
// callers may reuse the backing array between calls.
//
// Adjacent records with the same source (the shape dispatch partitioning
// and real scan bursts produce) are grouped into runs, so N records to
// one candidate cost one index probe per aggregation level instead of
// N map lookups. A run whose source is not IPv6 (e.g. IPv4-mapped) is
// data, not a programming error: its records are counted in Skipped
// and otherwise ignored, though they still advance the engine clock,
// as they advance a ShardedEngine's.
func (e *Engine) ProcessBatch(recs []firewall.Record) {
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Src == recs[i].Src {
			j++
		}
		if netaddr6.IsIPv6(recs[i].Src) {
			e.ingestRun(recs[i:j])
		} else {
			e.skipped += uint64(j - i)
			for _, r := range recs[i:j] {
				if r.Time.After(e.now) {
					e.now = r.Time
				}
			}
		}
		i = j
	}
}

// ingestRun applies one same-source run: a single index probe per
// level resolves (or, below the MaxCandidates bound, creates in the
// same probe) the candidate, and each record then updates it through
// the cached pointer. No index mutation happens inside a run, so the
// value pointer from the initial probe stays valid throughout.
func (e *Engine) ingestRun(rs []firewall.Record) {
	e.scrDst = e.scrDst[:0]
	for _, r := range rs {
		if r.Time.After(e.now) {
			e.now = r.Time
		}
		e.scrDst = append(e.scrDst, netaddr6.ToU128(r.Dst))
	}
	src := netaddr6.ToU128(rs[0].Src)
	for _, lv := range e.levels {
		key := src.Mask(int(lv.agg))
		var c *candidate
		if lv.idx.Len() < e.cfg.MaxCandidates {
			// Below the bound, lookup and admission are one probe.
			vp, existed := lv.idx.RefH(u128idx.Hash(key), key)
			if existed {
				c = lv.candidate(*vp)
			} else {
				var h uint32
				h, c = lv.alloc()
				*vp = h
				c.firstDst, c.first = e.scrDst[0], rs[0].Time
				lv.observe(c, rs[0])
				if len(rs) == 1 {
					continue
				}
				rs := rs[1:]
				for k, r := range rs {
					lv.observeDst(c, e.scrDst[k+1], e.cfg.SketchPrecision)
					lv.observe(c, r)
				}
				continue
			}
		} else {
			// At the bound only existing candidates admit records; a
			// missing key drops every record of the run, as the
			// per-record path did.
			h, ok := lv.idx.GetH(u128idx.Hash(key), key)
			if !ok {
				e.dropped.Add(uint64(len(rs)))
				continue
			}
			c = lv.candidate(h)
		}
		for k, r := range rs {
			lv.observeDst(c, e.scrDst[k], e.cfg.SketchPrecision)
			lv.observe(c, r)
		}
	}
}

// observe applies one record's bookkeeping to a resolved candidate.
func (lv *level) observe(c *candidate, r firewall.Record) {
	c.packets++
	c.last = r.Time
	if lv.oldest.IsZero() || r.Time.Before(lv.oldest) {
		lv.oldest = r.Time
	}
}

// Tick advances time, evicting idle candidates and emitting alerts for
// entities whose activity ended. Call periodically (e.g. once per
// minute of stream time); Flush emits everything at shutdown.
func (e *Engine) Tick(now time.Time) {
	if now.After(e.now) {
		e.now = now
	}
	e.sweep(false)
}

// Flush evicts every candidate regardless of idleness and returns all
// pending alerts.
func (e *Engine) Flush() []Alert {
	e.sweep(true)
	return e.Drain()
}

// Drain returns and clears pending alerts, ordered deterministically
// (first activity, then address, then prefix length).
func (e *Engine) Drain() []Alert {
	out := e.alerts
	e.alerts = nil
	sortAlerts(out)
	return out
}

// Candidates returns the current working-set size at a level.
func (e *Engine) Candidates(l netaddr6.AggLevel) int {
	for _, lv := range e.levels {
		if lv.agg == l {
			return lv.idx.Len()
		}
	}
	return 0
}

// MemoryBytes estimates sketch memory across all levels — the quantity
// an IDS deployment budgets. Candidates on the inline single-dst fast
// path cost no sketch memory.
func (e *Engine) MemoryBytes() int {
	total := 0
	for _, lv := range e.levels {
		lv.idx.Range(func(_ netaddr6.U128, h uint32) bool {
			if c := lv.candidate(h); c.sketch != nil {
				total += c.sketch.MemoryBytes()
			}
			return true
		})
	}
	return total
}

// sweep evicts (idle or all) candidates level by level, most specific
// first, applying the suppression/escalation logic. The level order
// was fixed at New; within a level, closed candidates are visited in
// address order for determinism.
func (e *Engine) sweep(all bool) {
	type closedScan struct {
		key netaddr6.U128
		h   uint32
	}
	var (
		closed  []closedScan // reused per level
		emitted []Alert
	)
	for _, lv := range e.levels {
		if lv.idx.Len() == 0 {
			continue
		}
		if !all && e.now.Sub(lv.oldest) <= e.cfg.Timeout {
			// Even the stalest candidate is within the timeout: no
			// eviction possible at this level, skip the table scan.
			continue
		}
		closed = closed[:0]
		var oldest time.Time
		lv.idx.Range(func(key netaddr6.U128, h uint32) bool {
			c := lv.candidate(h)
			if !all && e.now.Sub(c.last) <= e.cfg.Timeout {
				if oldest.IsZero() || c.last.Before(oldest) {
					oldest = c.last
				}
				return true
			}
			lv.idx.Delete(key)
			if c.estimate() >= uint64(e.cfg.MinDsts) {
				closed = append(closed, closedScan{key: key, h: h})
			} else {
				lv.recycle(h, c)
			}
			return true
		})
		// Tighten the bound to the surviving minimum (zero when the
		// level emptied).
		lv.oldest = oldest
		if len(closed) == 0 {
			continue
		}
		sort.Slice(closed, func(i, j int) bool { return closed[i].key.Cmp(closed[j].key) < 0 })
		// Suppression: a coarser candidate is redundant if
		// already-emitted more specific alerts cover CoverageShare of
		// its destinations (approximated by cardinality sums — sketches
		// cannot intersect, and scan destination sets at different
		// levels of one entity nest).
		for _, cs := range closed {
			c := lv.candidate(cs.h)
			prefix := netip.PrefixFrom(cs.key.ToAddr(), int(lv.agg))
			var coveredDsts uint64
			for _, a := range emitted {
				if netaddr6.PrefixContains(prefix, a.Prefix) {
					coveredDsts += a.EstimatedDsts
				}
			}
			est := c.estimate()
			if float64(coveredDsts) >= e.cfg.CoverageShare*float64(est) {
				continue // explained by finer alerts
			}
			emitted = append(emitted, Alert{
				Prefix:        prefix,
				Level:         lv.agg,
				EstimatedDsts: est,
				Packets:       c.packets,
				First:         c.first,
				Last:          c.last,
				Escalated:     coveredDsts > 0 || lv.agg != e.levels[0].agg,
			})
		}
		// Alerts hold copies of everything they need; the closed
		// candidates (and their sketches) can re-enter the arena.
		for _, cs := range closed {
			lv.recycle(cs.h, lv.candidate(cs.h))
		}
	}
	e.alerts = append(e.alerts, emitted...)
}

// Skipped returns the number of records ignored for a non-IPv6
// source. The count covers this engine's own input: it is not part of
// a snapshot.
func (e *Engine) Skipped() uint64 { return e.skipped }

// DroppedCandidates reports how many candidates were rejected by the
// MaxCandidates bound. Unlike every other accessor it is safe from
// any goroutine: the counter is atomic, so metrics scrapes read it
// without synchronizing with the processing goroutine.
func (e *Engine) DroppedCandidates() uint64 { return e.dropped.Load() }
