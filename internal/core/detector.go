// Package core implements the paper's scan-detection methodology:
//
//   - the large-scale scan definition of Section 2.2 — a source
//     targeting at least 100 distinct destination IPv6 addresses with a
//     maximum packet inter-arrival time of 3,600 seconds;
//   - multi-level source aggregation (/128, /64, /48, and arbitrary
//     prefixes such as the /32 case study), applied *before* the scan
//     definition, which the paper shows changes results dramatically;
//   - the ports-per-scan classifier of Appendix A.3 (the f-rule);
//   - the MAWI detector of Section 4, an extended Fukuda–Heidemann
//     definition adding a destination threshold and a packet-length
//     entropy criterion (mawi.go).
//
// The detector is a single-pass streaming algorithm: records arrive in
// time order, per-source sessions close when the timeout elapses, and
// closed sessions that meet the destination threshold are emitted as
// scans. Memory is proportional to concurrently active sources, which
// is what an inline IDS deployment would consume.
//
// # Eviction cost
//
// Because input is time-ordered (out-of-order records are rejected),
// the order in which sessions were last touched is also the order in
// which they expire. Each level keeps its sessions on an intrusive
// last-touch list, maintained at O(1) per same-source run per level,
// and Advance pops expired sessions off the list head. A periodic
// Advance therefore costs O(expired), independent of how many
// sessions are open. Finish still closes everything in one sweep.
//
// # State index and small-set cutoffs
//
// Session lookup state lives in a u128idx.Index (open-addressed, no
// per-entry pointers) mapping masked sources to u32 handles into paged
// session arrays, and per-session destination/source sets are
// u128idx.Set values with an inline sorted-array fast path (cutoff
// u128idx.SmallSetSpill = 16) before spilling to an index. Sessions
// additionally keep their very first destination/source/service/week
// inline and materialize set or map state only on the second distinct
// value, because at fine aggregation levels most sessions close after
// a handful of packets.
//
// inlineMapHint below sizes the remaining maps (ports by service,
// packets by week) at materialization. Re-tuned against the u128idx
// port: these maps are keyed by small scalar types where the builtin
// map is already cheap, and a session that outgrows the single-value
// fast path usually keeps accumulating, so a 16-entry hint (enough
// buckets for ~26 entries growth-free) remains the measured sweet spot
// — 8 costs an extra growth step on scan-heavy sessions, 32 doubles
// the footprint of the (common) two-service sessions for no time win.
package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"v6scan/internal/entropy"
	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
	"v6scan/internal/u128idx"
)

// Config parameterizes scan detection.
type Config struct {
	// MinDsts is the minimum number of distinct destination addresses
	// for a session to qualify as a scan (paper: 100; sensitivity
	// analysis also uses 50; related work used 25 and 5).
	MinDsts int
	// Timeout is the maximum packet inter-arrival time within one scan
	// session (paper: 3600 s; sensitivity: 1800 s, 900 s).
	Timeout time.Duration
	// Levels are the source-aggregation levels to track simultaneously.
	Levels []netaddr6.AggLevel
	// TrackDsts retains each scan's distinct destination addresses,
	// needed for the DNS-provenance and targeting analyses. Costs
	// memory proportional to distinct (scan, destination) pairs.
	TrackDsts bool
	// WeekEpoch anchors per-scan weekly packet attribution (Figures 2
	// and 3). Zero disables weekly tracking.
	WeekEpoch time.Time
}

// DefaultConfig returns the paper's parameters at the three tabulated
// aggregation levels.
func DefaultConfig() Config {
	return Config{
		MinDsts: 100,
		Timeout: 3600 * time.Second,
		Levels:  netaddr6.Levels(),
	}
}

// Scan is one detected scan event: a maximal session of packets from
// one aggregated source with inter-arrival gaps below the timeout and
// at least MinDsts distinct destinations.
type Scan struct {
	Source netip.Prefix      // aggregated source prefix
	Level  netaddr6.AggLevel // aggregation level the scan was detected at
	Start  time.Time         // first packet
	End    time.Time         // last packet

	Packets uint64
	// Dsts is the number of distinct destination addresses.
	Dsts int
	// DstAddrs holds the distinct destinations when Config.TrackDsts
	// is set (order unspecified).
	DstAddrs []netip.Addr
	// SrcAddrs is the number of distinct /128 source addresses the
	// aggregate emitted from during the session.
	SrcAddrs int
	// Ports counts packets per targeted service.
	Ports map[firewall.Service]uint64
	// WeekPackets counts packets per week index relative to
	// Config.WeekEpoch; nil when weekly tracking is disabled.
	WeekPackets map[int]uint64
	// LenEntropy is the normalized packet-length entropy of the
	// session (scan traffic is near 0).
	LenEntropy float64
}

// Duration returns the scan's wall-clock span.
func (s *Scan) Duration() time.Duration { return s.End.Sub(s.Start) }

// NumPorts returns the number of distinct services targeted.
func (s *Scan) NumPorts() int { return len(s.Ports) }

// session is the in-flight state for one aggregated source. The
// address sets are u128idx.Set values — pointer-free U128 keys with an
// inline sorted-array fast path — rather than netip.Addr maps: the
// detector's working set is dominated by these sets, and flat value
// storage keeps the garbage collector from tracing millions of
// interned-zone pointers on every cycle.
//
// Sessions additionally hold their first destination, source, service
// and week inline and materialize the sets/maps only on the second
// distinct value: at fine aggregation levels the overwhelming majority
// of sessions are short-lived background sources that close below the
// threshold, and the fast path spares the set/map work entirely.
//
// Sessions themselves live in paged per-level arrays addressed by u32
// handles and are recycled through a free list when they close
// (levelState.alloc/recycle below): the detector's steady-state ingest
// otherwise allocates one session per source per level, which
// dominates the allocation rate on million-record days. A recycled
// session keeps its emptied sets and maps, so the "materialized" state
// is Len() > 0, not non-nil.
type session struct {
	start, last time.Time
	packets     uint64

	firstDst, firstSrc netaddr6.U128
	firstSvc           firewall.Service
	firstWeek          int32
	svcN               uint64
	weekN              uint64
	// prev and next link the session into its level's last-touch list
	// (noSession at either end). With firstWeek packed beside firstSvc
	// they cost no space: the struct is 424 B (TestSessionSize).
	prev, next uint32

	dsts       u128idx.Set
	srcs       u128idx.Set
	ports      map[firewall.Service]uint64
	weeks      map[int]uint64
	lenCounter entropy.Counter
}

// inlineMapHint pre-sizes the session ports/weeks maps at
// materialization (the U128 address sets use u128idx.Set with its own
// SmallSetSpill cutoff; see the package doc). A session that outgrows
// the inline single-value fast path usually keeps accumulating, and Go
// map growth allocates on every doubling: a 16-entry hint starts at
// enough buckets to absorb ~26 entries growth-free for a few hundred
// extra bytes on the (rare) two-entry sessions.
const inlineMapHint = 16

func (s *session) addDst(d netaddr6.U128) {
	if s.dsts.Len() == 0 {
		if d == s.firstDst {
			return
		}
		s.dsts.Add(s.firstDst)
	}
	s.dsts.Add(d)
}

func (s *session) addSrc(a netaddr6.U128) {
	if s.srcs.Len() == 0 {
		if a == s.firstSrc {
			return
		}
		s.srcs.Add(s.firstSrc)
	}
	s.srcs.Add(a)
}

func (s *session) addSvc(svc firewall.Service) {
	if len(s.ports) == 0 {
		if svc == s.firstSvc {
			s.svcN++
			return
		}
		if s.ports == nil {
			s.ports = make(map[firewall.Service]uint64, inlineMapHint)
		}
		s.ports[s.firstSvc] = s.svcN
	}
	s.ports[svc]++
}

func (s *session) addWeek(w int) {
	if len(s.weeks) == 0 {
		if int32(w) == s.firstWeek {
			s.weekN++
			return
		}
		if s.weeks == nil {
			s.weeks = make(map[int]uint64, inlineMapHint)
		}
		s.weeks[int(s.firstWeek)] = s.weekN
	}
	s.weeks[w]++
}

func (s *session) numDsts() int {
	if n := s.dsts.Len(); n > 0 {
		return n
	}
	return 1
}

func (s *session) numSrcs() int {
	if n := s.srcs.Len(); n > 0 {
		return n
	}
	return 1
}

// levelState tracks all sessions at one aggregation level. The index
// maps the masked 128-bit source (the prefix length is the level
// itself) to a u32 handle into the paged session store; pages never
// move once allocated, so *session pointers stay valid across alloc.
//
// Every indexed session is also on an intrusive doubly-linked
// last-touch list, linked through the sessions' prev/next handles.
// Detector input is time-ordered, so a touched session's last time is
// never below any other session's: the list is sorted by last, which
// makes it the expiry order. Keeping it costs O(1) per run per level
// in ingestRun, and Advance pops expired sessions off the head.
type levelState struct {
	level netaddr6.AggLevel
	idx   u128idx.Index
	scans []Scan
	// dropped counts sessions that closed below the destination
	// threshold (useful for diagnostics and the Figure 1 discussion).
	dropped uint64
	// pages, free and next implement the handle-addressed session
	// arena: handles are page<<sessionPageShift | offset, new sessions
	// are carved in handle order and closed sessions return through
	// free with their sets/maps emptied for reuse, keeping steady-state
	// ingest free of per-session allocations.
	pages [][]session
	free  []uint32
	next  uint32
	// head (least recently touched) and tail end the last-touch list.
	head, tail uint32
}

// sessionPageShift sets the page granularity (512 sessions/page) —
// large enough to amortize page allocation to noise, small enough that
// a mostly-idle level does not strand much memory.
const (
	sessionPageShift = 9
	sessionPageSize  = 1 << sessionPageShift
)

// noSession ends the last-touch list; handles never reach it.
const noSession = ^uint32(0)

// session returns the session addressed by handle h.
func (ls *levelState) session(h uint32) *session {
	return &ls.pages[h>>sessionPageShift][h&(sessionPageSize-1)]
}

// alloc returns a zeroed session and its handle, from the free list or
// by carving the next page slot.
func (ls *levelState) alloc() (uint32, *session) {
	if n := len(ls.free) - 1; n >= 0 {
		h := ls.free[n]
		ls.free = ls.free[:n]
		return h, ls.session(h)
	}
	if int(ls.next) == len(ls.pages)<<sessionPageShift {
		ls.pages = append(ls.pages, make([]session, sessionPageSize))
	}
	h := ls.next
	ls.next++
	return h, ls.session(h)
}

// pushTail links session h at the tail of the last-touch list.
func (ls *levelState) pushTail(h uint32, s *session) {
	s.prev, s.next = ls.tail, noSession
	if ls.tail == noSession {
		ls.head = h
	} else {
		ls.session(ls.tail).next = h
	}
	ls.tail = h
}

// unlink removes s from the last-touch list.
func (ls *levelState) unlink(s *session) {
	if s.prev == noSession {
		ls.head = s.next
	} else {
		ls.session(s.prev).next = s.next
	}
	if s.next == noSession {
		ls.tail = s.prev
	} else {
		ls.session(s.next).prev = s.prev
	}
}

// touch moves session h to the tail of the last-touch list.
func (ls *levelState) touch(h uint32, s *session) {
	if h != ls.tail {
		ls.unlink(s)
		ls.pushTail(h, s)
	}
}

// recycle unlinks a closed session, resets it and returns its handle
// to the free list. Its sets and maps are emptied and retained
// (transferred maps must be nil'd by the caller first), so reopened
// sessions skip re-materialization.
func (ls *levelState) recycle(h uint32, s *session) {
	ls.unlink(s)
	s.dsts.Reset()
	s.srcs.Reset()
	clear(s.ports)
	clear(s.weeks)
	s.lenCounter.Reset()
	*s = session{dsts: s.dsts, srcs: s.srcs, ports: s.ports, weeks: s.weeks, lenCounter: s.lenCounter}
	ls.free = append(ls.free, h)
}

// Detector runs the scan definition at several aggregation levels in a
// single pass over a time-ordered record stream.
type Detector struct {
	cfg    Config
	levels []*levelState
	// lastTime guards the time-ordering contract.
	lastTime time.Time
	strict   bool
	// skipped counts records dropped for a non-IPv6 source.
	skipped uint64

	// Per-batch scratch: ProcessBatch converts each record's
	// destination/service/week once up front, then replays them across
	// all levels, so the per-level loop touches only flat arrays.
	scrDst  []netaddr6.U128
	scrSvc  []firewall.Service
	scrWeek []int32
	// dstOut is the canonical-order scratch for TrackDsts emission.
	dstOut []netaddr6.U128
	// one backs the Process single-record wrapper.
	one [1]firewall.Record
}

// NewDetector returns a detector for the given configuration.
func NewDetector(cfg Config) *Detector {
	if cfg.MinDsts <= 0 {
		cfg.MinDsts = 100
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Hour
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = netaddr6.Levels()
	}
	d := &Detector{cfg: cfg, strict: true}
	for _, l := range cfg.Levels {
		d.levels = append(d.levels, &levelState{level: l, head: noSession, tail: noSession})
	}
	return d
}

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Process ingests one record. Records must be in non-decreasing time
// order; out-of-order input returns an error (small reorderings should
// be sorted by the caller — the simulator sorts per day).
func (d *Detector) Process(r firewall.Record) error {
	d.one[0] = r
	return d.ProcessBatch(d.one[:])
}

// ProcessBatch ingests records in order, with the same time-ordering
// contract as Process: on an out-of-order record it processes the
// in-order prefix and returns the same error Process would. A record
// whose source is not IPv6 (e.g. IPv4-mapped) is data, not a
// programming error: it is counted in Skipped and otherwise ignored.
//
// Batches are where the detector earns its keep: adjacent records from
// the same source (the shape dispatch partitioning and real scan traffic
// produce) are grouped into runs, so N records to one source cost one
// index probe per aggregation level instead of N map lookups.
func (d *Detector) ProcessBatch(recs []firewall.Record) error {
	for i := 0; i < len(recs); {
		r0 := recs[i]
		if r0.Time.Before(d.lastTime) {
			return fmt.Errorf("core: record at %v before previous %v; detector requires time order", r0.Time, d.lastTime)
		}
		if !netaddr6.IsIPv6(r0.Src) {
			d.skipped++
			d.lastTime = r0.Time
			i++
			continue
		}
		// A run is a maximal span of same-source records in time order;
		// a time violation breaks the run so the prefix is processed
		// before the next iteration reports the error.
		j := i + 1
		for j < len(recs) && recs[j].Src == r0.Src && !recs[j].Time.Before(recs[j-1].Time) {
			j++
		}
		d.ingestRun(recs[i:j])
		d.lastTime = recs[j-1].Time
		i = j
	}
	return nil
}

// ingestRun applies one same-source run of in-order records: a single
// index probe per level resolves (or creates) the session, and each
// record then updates it through the cached pointer. Mid-run timeout
// gaps close the session and splice a fresh one into the same index
// slot — no index mutation happens inside a run, so the value pointer
// from the initial probe stays valid throughout. New sessions join
// the tail of the level's last-touch list, and the run's final session
// moves there once at the end.
func (d *Detector) ingestRun(rs []firewall.Record) {
	weekly := !d.cfg.WeekEpoch.IsZero()
	d.scrDst = d.scrDst[:0]
	d.scrSvc = d.scrSvc[:0]
	if weekly {
		d.scrWeek = d.scrWeek[:0]
	}
	for _, r := range rs {
		d.scrDst = append(d.scrDst, netaddr6.ToU128(r.Dst))
		d.scrSvc = append(d.scrSvc, r.Service())
		if weekly {
			d.scrWeek = append(d.scrWeek, int32(weekIndex(d.cfg.WeekEpoch, r.Time)))
		}
	}
	src := netaddr6.ToU128(rs[0].Src)
	for _, ls := range d.levels {
		key := src.Mask(int(ls.level))
		vp, existed := ls.idx.RefH(u128idx.Hash(key), key)
		var s *session
		if existed {
			s = ls.session(*vp)
		}
		for k, r := range rs {
			if s != nil && r.Time.Sub(s.last) > d.cfg.Timeout {
				d.emitOrDrop(ls, key, *vp, s)
				s = nil
			}
			if s == nil {
				h, ns := ls.alloc()
				*vp = h
				s = ns
				ls.pushTail(h, s)
				s.start, s.last, s.packets = r.Time, r.Time, 1
				s.firstDst, s.firstSrc = d.scrDst[k], src
				s.firstSvc, s.svcN = d.scrSvc[k], 1
				if weekly {
					s.firstWeek, s.weekN = d.scrWeek[k], 1
				}
				s.lenCounter.Observe(uint64(r.Length))
				continue
			}
			s.last = r.Time
			s.packets++
			s.addDst(d.scrDst[k])
			s.addSrc(src)
			s.addSvc(d.scrSvc[k])
			s.lenCounter.Observe(uint64(r.Length))
			if weekly {
				s.addWeek(int(d.scrWeek[k]))
			}
		}
		ls.touch(*vp, s)
	}
}

// Advance closes every session whose timeout has elapsed as of now.
// Callers streaming bounded-memory deployments call this periodically;
// batch analyses can skip it and rely on Finish.
//
// Time-ordered input keeps each level's last-touch list sorted by
// last, so Advance pops expired sessions off the head and stops at
// the first live one: the cost is O(expired), not O(open). A session
// needs no stored key: every source in it masks to its index key, and
// firstSrc is one of them.
func (d *Detector) Advance(now time.Time) {
	for _, ls := range d.levels {
		for ls.head != noSession {
			h := ls.head
			s := ls.session(h)
			if now.Sub(s.last) <= d.cfg.Timeout {
				break
			}
			key := s.firstSrc.Mask(int(ls.level))
			ls.idx.Delete(key)
			d.emitOrDrop(ls, key, h, s)
		}
	}
}

// Finish closes all open sessions and returns the detector to a clean
// state. Call once after the final record.
func (d *Detector) Finish() {
	for _, ls := range d.levels {
		ls.idx.Range(func(key netaddr6.U128, h uint32) bool {
			d.emitOrDrop(ls, key, h, ls.session(h))
			ls.idx.Delete(key)
			return true
		})
	}
}

// emitOrDrop evaluates a closing session against the scan definition,
// emits it as a Scan when it qualifies, and recycles it. The caller
// owns the index entry: Process/ingestRun overwrite the slot in place
// when a timed-out session is replaced, Advance/Finish delete it.
func (d *Detector) emitOrDrop(ls *levelState, key netaddr6.U128, h uint32, s *session) {
	if s.numDsts() < d.cfg.MinDsts {
		ls.dropped++
		ls.recycle(h, s)
		return
	}
	// Qualifying sessions are the rare case. The Scan takes ownership
	// of the materialized ports/weeks maps (nil'd here so recycle does
	// not hand them to the next session); inline fast-path state gets
	// fresh maps.
	ports := s.ports
	if len(ports) == 0 {
		ports = map[firewall.Service]uint64{s.firstSvc: s.svcN}
	} else {
		s.ports = nil
	}
	weeks := s.weeks
	if len(weeks) == 0 {
		weeks = nil
		if s.weekN > 0 {
			weeks = map[int]uint64{int(s.firstWeek): s.weekN}
		}
	} else {
		s.weeks = nil
	}
	scan := Scan{
		Source:      netip.PrefixFrom(key.ToAddr(), int(ls.level)),
		Level:       ls.level,
		Start:       s.start,
		End:         s.last,
		Packets:     s.packets,
		Dsts:        s.numDsts(),
		SrcAddrs:    s.numSrcs(),
		Ports:       ports,
		WeekPackets: weeks,
		LenEntropy:  s.lenCounter.Normalized(),
	}
	if d.cfg.TrackDsts {
		scan.DstAddrs = make([]netip.Addr, 0, s.numDsts())
		if s.dsts.Len() == 0 {
			scan.DstAddrs = append(scan.DstAddrs, s.firstDst.ToAddr())
		} else {
			// Set iteration is canonical (ascending U128), which for
			// 16-byte addresses is exactly netip.Addr.Compare order, so
			// the emitted DstAddrs stay byte-identical to the sorted
			// map-era output without a re-sort.
			d.dstOut = s.dsts.AppendSorted(d.dstOut[:0])
			for _, a := range d.dstOut {
				scan.DstAddrs = append(scan.DstAddrs, a.ToAddr())
			}
		}
	}
	ls.scans = append(ls.scans, scan)
	ls.recycle(h, s)
}

// Scans returns the detected scans at one aggregation level, ordered by
// start time. Valid after Finish.
func (d *Detector) Scans(level netaddr6.AggLevel) []Scan {
	for _, ls := range d.levels {
		if ls.level == level {
			out := ls.scans
			// Tie-break on source so ordering is deterministic even when
			// sessions close in index-iteration order.
			sort.Slice(out, func(i, j int) bool {
				if !out[i].Start.Equal(out[j].Start) {
					return out[i].Start.Before(out[j].Start)
				}
				return out[i].Source.Addr().Compare(out[j].Source.Addr()) < 0
			})
			return out
		}
	}
	return nil
}

// Dropped returns the number of sessions at the level that closed
// below the destination threshold.
func (d *Detector) Dropped(level netaddr6.AggLevel) uint64 {
	for _, ls := range d.levels {
		if ls.level == level {
			return ls.dropped
		}
	}
	return 0
}

// Skipped returns the number of records ignored for a non-IPv6
// source. The count covers this detector's own input: it is not part
// of a snapshot.
func (d *Detector) Skipped() uint64 { return d.skipped }

// OpenSessions returns the number of in-flight sessions at the level —
// the detector's working-set size, the quantity the Discussion section
// worries about for IDS deployments.
func (d *Detector) OpenSessions(level netaddr6.AggLevel) int {
	for _, ls := range d.levels {
		if ls.level == level {
			return ls.idx.Len()
		}
	}
	return 0
}

// Totals summarizes one aggregation level the way Table 1 does.
type Totals struct {
	Level   netaddr6.AggLevel
	Scans   int
	Packets uint64
	Sources int // distinct scan source prefixes
	ASes    int // filled by analysis when an AS database is available
}

// TotalsFor computes the Table-1 row for a level (AS count left zero;
// the analysis package joins against asdb).
func (d *Detector) TotalsFor(level netaddr6.AggLevel) Totals {
	t := Totals{Level: level}
	srcs := make(map[netip.Prefix]struct{})
	for _, s := range d.Scans(level) {
		t.Scans++
		t.Packets += s.Packets
		srcs[s.Source] = struct{}{}
	}
	t.Sources = len(srcs)
	return t
}

// weekIndex returns whole weeks since epoch (negative before epoch).
func weekIndex(epoch, t time.Time) int {
	return int(t.Sub(epoch) / (7 * 24 * time.Hour))
}

// WeekIndex exposes weekly bucketing for the analysis package so all
// figures share the same week boundaries.
func WeekIndex(epoch, t time.Time) int { return weekIndex(epoch, t) }
