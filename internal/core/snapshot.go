package core

// Versioned snapshot/restore for the scan detector (checkpoint format
// kind 1). A snapshot is a consistent stream-time cut: it captures the
// detector exactly as it stood after processing every record with
// timestamp strictly before the mark — open sessions, accumulated
// scans, and drop counters. Restoring and replaying the records at or
// after the mark reconstructs the uninterrupted run byte-exactly.
//
// All state is written in canonical order (sessions sorted by key,
// scans sorted by start time then source, map entries sorted), and the
// per-level session sections are global — sessions from every shard of
// a ShardedDetector are merged into one sorted sequence per level. Two
// consequences:
//
//   - Snapshot∘Restore∘Snapshot is byte-identity (FuzzSnapshotRoundtrip);
//   - snapshots are shard-count independent: restore re-partitions each
//     session deterministically (dispatch.Partition over the coarsest
//     level, the same routing the dispatcher applies to records), so a
//     snapshot taken at N shards restores at any M ≥ 1.

import (
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/dispatch"
	"v6scan/internal/entropy"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
	"v6scan/internal/u128idx"
)

// preallocCap bounds slice/map preallocation hints taken from decoded
// counts, so a malformed length cannot demand gigabytes up front (the
// CRC makes this unreachable for accidental corruption; crafted inputs
// still only grow as real data arrives).
const preallocCap = 1 << 16

func preallocHint(n uint64) int {
	if n > preallocCap {
		return preallocCap
	}
	return int(n)
}

// Snapshot writes a consistent checkpoint of the detector at the given
// stream-time mark. The caller guarantees every record with timestamp
// before mark has been processed and none at or after it has (the
// pipeline checkpoint cadence arranges exactly this).
func (d *Detector) Snapshot(w io.Writer, mark time.Time) error {
	return snapshotDetectors(w, d.cfg, []*Detector{d}, mark)
}

// Snapshot writes a consistent checkpoint of the sharded detector: a
// dispatcher barrier drains in-flight batches (establishing the
// happens-before edge that makes shard state readable), then all
// shards serialize as one canonical global snapshot — byte-identical
// to the snapshot an unsharded detector would write at the same cut.
func (sd *ShardedDetector) Snapshot(w io.Writer, mark time.Time) error {
	if sd.finished {
		return fmt.Errorf("core: ShardedDetector.Snapshot after Finish")
	}
	if err := sd.disp.Barrier(); err != nil {
		return err
	}
	return snapshotDetectors(w, sd.cfg, sd.shards, mark)
}

// RestoreDetector rebuilds a detector from a snapshot opened with
// checkpoint.NewReader. The reader must be positioned at the first
// section (NewReader leaves it there).
func RestoreDetector(cr *checkpoint.Reader) (*Detector, error) {
	dets, err := restoreDetectors(cr, 1, func(cfg Config) []*Detector {
		return []*Detector{NewDetector(cfg)}
	})
	if err != nil {
		return nil, err
	}
	return dets[0], nil
}

// RestoreShardedDetector rebuilds a sharded detector from a snapshot,
// re-partitioning every session deterministically across n shards —
// n need not match the shard count the snapshot was taken at.
func RestoreShardedDetector(cr *checkpoint.Reader, n int) (*ShardedDetector, error) {
	if n < 1 {
		n = 1
	}
	var sd *ShardedDetector
	_, err := restoreDetectors(cr, n, func(cfg Config) []*Detector {
		sd = NewShardedDetector(cfg, n)
		return sd.shards
	})
	if err != nil {
		if sd != nil {
			sd.disp.Close()
		}
		return nil, err
	}
	return sd, nil
}

func snapshotDetectors(w io.Writer, cfg Config, dets []*Detector, mark time.Time) error {
	cw, err := checkpoint.NewWriter(w, checkpoint.KindDetector, mark)
	if err != nil {
		return err
	}
	var e checkpoint.Enc
	encodeDetectorConfig(&e, cfg)
	if err := cw.Section(checkpoint.SecConfig, e.B); err != nil {
		return err
	}
	// One global section per level: sessions from every shard, sorted
	// by key, so the bytes are independent of shard count and map
	// iteration order.
	type keyed struct {
		key netaddr6.U128
		s   *session
	}
	var sessions []keyed
	// setScratch is the reused sort buffer for every encoded address
	// set in the snapshot; it grows to the largest set once and keeps
	// the encode loop allocation-free (pinned by an allocs test).
	var setScratch []netaddr6.U128
	for li := range cfg.Levels {
		sessions = sessions[:0]
		for _, det := range dets {
			ls := det.levels[li]
			ls.idx.Range(func(key netaddr6.U128, h uint32) bool {
				sessions = append(sessions, keyed{key, ls.session(h)})
				return true
			})
		}
		sort.Slice(sessions, func(i, j int) bool { return sessions[i].key.Cmp(sessions[j].key) < 0 })
		e.B = e.B[:0]
		e.Varint(int64(cfg.Levels[li]))
		e.Uvarint(uint64(len(sessions)))
		for _, ks := range sessions {
			encodeSession(&e, &setScratch, ks.key, ks.s)
		}
		if err := cw.Section(checkpoint.SecLevel, e.B); err != nil {
			return err
		}
	}
	// Accumulated results, merged across shards: scans in their
	// deterministic (start, source) order, drop counters summed.
	e.B = e.B[:0]
	var scans []Scan
	for li := range cfg.Levels {
		var dropped uint64
		scans = scans[:0]
		for _, det := range dets {
			scans = append(scans, det.levels[li].scans...)
			dropped += det.levels[li].dropped
		}
		sort.Slice(scans, func(i, j int) bool {
			if !scans[i].Start.Equal(scans[j].Start) {
				return scans[i].Start.Before(scans[j].Start)
			}
			return scans[i].Source.Addr().Compare(scans[j].Source.Addr()) < 0
		})
		e.Varint(int64(cfg.Levels[li]))
		e.Uvarint(dropped)
		e.Uvarint(uint64(len(scans)))
		for i := range scans {
			encodeScan(&e, &scans[i])
		}
	}
	if err := cw.Section(checkpoint.SecResults, e.B); err != nil {
		return err
	}
	return cw.Close()
}

func restoreDetectors(cr *checkpoint.Reader, n int, mk func(cfg Config) []*Detector) ([]*Detector, error) {
	hdr := cr.Header()
	if hdr.Kind != checkpoint.KindDetector {
		return nil, fmt.Errorf("%w: snapshot kind %d, want detector (%d)",
			checkpoint.ErrFormat, hdr.Kind, checkpoint.KindDetector)
	}
	var (
		dets       []*Detector
		cfg        Config
		coarsest   netaddr6.AggLevel
		sawResults bool
	)
	for {
		kind, payload, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		dec := checkpoint.NewDec(payload)
		switch kind {
		case checkpoint.SecConfig:
			if dets != nil {
				return nil, fmt.Errorf("%w: duplicate config section", checkpoint.ErrFormat)
			}
			cfg = decodeDetectorConfig(dec)
			if err := dec.Err(); err != nil {
				return nil, err
			}
			dets = mk(cfg)
			coarsest = dispatch.CoarsestLevel(cfg.Levels)
			for _, det := range dets {
				det.lastTime = hdr.Horizon
			}
		case checkpoint.SecLevel:
			if dets == nil {
				return nil, fmt.Errorf("%w: level section before config", checkpoint.ErrFormat)
			}
			li, err := levelIndex(cfg.Levels, netaddr6.AggLevel(dec.Varint()))
			if err != nil {
				return nil, err
			}
			count := dec.Uvarint()
			for i := uint64(0); i < count && dec.Err() == nil; i++ {
				if err := decodeSession(dec, dets, li, coarsest, n, hdr.Horizon); err != nil {
					return nil, err
				}
			}
			if err := dec.Err(); err != nil {
				return nil, err
			}
		case checkpoint.SecResults:
			if dets == nil {
				return nil, fmt.Errorf("%w: results section before config", checkpoint.ErrFormat)
			}
			if sawResults {
				return nil, fmt.Errorf("%w: duplicate results section", checkpoint.ErrFormat)
			}
			sawResults = true
			// Results restore into shard 0: the deterministic merge at
			// Finish makes their placement invisible.
			for dec.Len() > 0 {
				li, err := levelIndex(cfg.Levels, netaddr6.AggLevel(dec.Varint()))
				if err != nil {
					return nil, err
				}
				ls := dets[0].levels[li]
				ls.dropped = dec.Uvarint()
				scanN := dec.Uvarint()
				for i := uint64(0); i < scanN && dec.Err() == nil; i++ {
					ls.scans = append(ls.scans, decodeScan(dec))
				}
				if err := dec.Err(); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("%w: unknown section kind %d", checkpoint.ErrFormat, kind)
		}
	}
	if dets == nil {
		return nil, fmt.Errorf("%w: missing config section", checkpoint.ErrFormat)
	}
	for _, det := range dets {
		for _, ls := range det.levels {
			ls.relink()
		}
	}
	return dets, nil
}

func encodeDetectorConfig(e *checkpoint.Enc, cfg Config) {
	e.Uvarint(uint64(cfg.MinDsts))
	e.Varint(int64(cfg.Timeout))
	if cfg.TrackDsts {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.Time(cfg.WeekEpoch)
	e.Uvarint(uint64(len(cfg.Levels)))
	for _, l := range cfg.Levels {
		e.Varint(int64(l))
	}
}

func decodeDetectorConfig(d *checkpoint.Dec) Config {
	cfg := Config{
		MinDsts:   int(d.Uvarint()),
		Timeout:   time.Duration(d.Varint()),
		TrackDsts: d.U8() != 0,
		WeekEpoch: d.Time(),
	}
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		cfg.Levels = append(cfg.Levels, netaddr6.AggLevel(d.Varint()))
	}
	return cfg
}

func levelIndex(levels []netaddr6.AggLevel, l netaddr6.AggLevel) (int, error) {
	for i, have := range levels {
		if have == l {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: level %v not in configuration", checkpoint.ErrFormat, l)
}

// encodeSession writes one session's logical state: each inline-or-set
// pair is encoded as its sorted logical contents, so the in-memory
// representation (inline fast path vs materialized set) never reaches
// the wire. scratch is the caller's reused sort buffer.
func encodeSession(e *checkpoint.Enc, scratch *[]netaddr6.U128, key netaddr6.U128, s *session) {
	e.U64(key.Hi)
	e.U64(key.Lo)
	e.Time(s.start)
	e.Time(s.last)
	e.Uvarint(s.packets)
	encodeU128Set(e, scratch, &s.dsts, s.firstDst)
	encodeU128Set(e, scratch, &s.srcs, s.firstSrc)
	encodePorts(e, s.ports, s.firstSvc, s.svcN)
	encodeWeeks(e, s.weeks, int(s.firstWeek), s.weekN)
	encodeCounter(e, &s.lenCounter)
}

// decodeSession rebuilds one session into its deterministic shard
// (dispatch.Partition over the coarsest level — the same routing the
// dispatcher applies to the session's records). Advance finds a
// session's index entry as firstSrc masked at the level and relies on
// last-touch order being expiry order, so a session is rejected unless
// its key is masked at the level, its first source masks to the key,
// the key is new, and its last packet is not after the horizon.
func decodeSession(d *checkpoint.Dec, dets []*Detector, li int, coarsest netaddr6.AggLevel, n int, horizon time.Time) error {
	key := netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
	shard := 0
	if n > 1 {
		shard = dispatch.Partition(key.ToAddr(), coarsest, n)
	}
	ls := dets[shard].levels[li]
	h, s := ls.alloc()
	s.start = d.Time()
	s.last = d.Time()
	s.packets = d.Uvarint()
	var err error
	if s.firstDst, err = decodeU128Set(d, &s.dsts); err != nil {
		return err
	}
	if s.firstSrc, err = decodeU128Set(d, &s.srcs); err != nil {
		return err
	}
	s.ports, s.firstSvc, s.svcN = decodePorts(d)
	var week int
	s.weeks, week, s.weekN = decodeWeeks(d)
	s.firstWeek = int32(week)
	decodeCounter(d, &s.lenCounter)
	if err := d.Err(); err != nil {
		return err
	}
	bits := int(ls.level)
	switch {
	case key.Mask(bits) != key:
		return fmt.Errorf("%w: session key %v is not a /%d prefix", checkpoint.ErrFormat, key.ToAddr(), bits)
	case s.firstSrc.Mask(bits) != key:
		return fmt.Errorf("%w: session source %v outside its key %v/%d",
			checkpoint.ErrFormat, s.firstSrc.ToAddr(), key.ToAddr(), bits)
	case s.last.After(horizon):
		return fmt.Errorf("%w: session last packet %v after the snapshot horizon %v",
			checkpoint.ErrFormat, s.last, horizon)
	}
	vp, existed := ls.idx.Ref(key)
	if existed {
		return fmt.Errorf("%w: duplicate session key %v/%d", checkpoint.ErrFormat, key.ToAddr(), bits)
	}
	*vp = h
	return nil
}

// relink rebuilds the last-touch list from the index after a restore.
// Every restored session ends at or before the horizon and every
// later record after it, so ordering by (last, key) gives the expiry
// order live ingestion would keep, with ties broken canonically.
func (ls *levelState) relink() {
	type entry struct {
		key netaddr6.U128
		h   uint32
		s   *session
	}
	es := make([]entry, 0, ls.idx.Len())
	ls.idx.Range(func(key netaddr6.U128, h uint32) bool {
		es = append(es, entry{key, h, ls.session(h)})
		return true
	})
	slices.SortFunc(es, func(a, b entry) int {
		if c := a.s.last.Compare(b.s.last); c != 0 {
			return c
		}
		return a.key.Cmp(b.key)
	})
	ls.head, ls.tail = noSession, noSession
	for _, e := range es {
		ls.pushTail(e.h, e.s)
	}
}

// encodeU128Set writes the logical address set of an inline-or-set
// pair: the set's canonical (sorted) members when materialized (always
// ≥ 2 entries, including the first value), the single inline value
// otherwise. scratch is a reused sort buffer threaded through the
// encoder so repeated sections don't allocate.
func encodeU128Set(e *checkpoint.Enc, scratch *[]netaddr6.U128, set *u128idx.Set, first netaddr6.U128) {
	if set.Len() == 0 {
		e.Uvarint(1)
		e.U64(first.Hi)
		e.U64(first.Lo)
		return
	}
	keys := set.AppendSorted((*scratch)[:0])
	*scratch = keys
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.U64(k.Hi)
		e.U64(k.Lo)
	}
}

// decodeU128Set fills set (assumed empty) with the encoded members and
// returns the first value; a single-member set stays on the inline
// fast path (set left empty), exactly as live ingestion would leave it.
func decodeU128Set(d *checkpoint.Dec, set *u128idx.Set) (netaddr6.U128, error) {
	n := d.Uvarint()
	if n == 0 || d.Err() != nil {
		return netaddr6.U128{}, fmt.Errorf("%w: empty address set", checkpoint.ErrFormat)
	}
	first := netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
	if n == 1 {
		return first, nil
	}
	set.Add(first)
	for i := uint64(1); i < n && d.Err() == nil; i++ {
		set.Add(netaddr6.U128{Hi: d.U64(), Lo: d.U64()})
	}
	return first, d.Err()
}

// servicesSorted returns a map's services ordered by (proto, port).
func servicesSorted(m map[firewall.Service]uint64) []firewall.Service {
	svcs := make([]firewall.Service, 0, len(m))
	for s := range m {
		svcs = append(svcs, s)
	}
	sort.Slice(svcs, func(i, j int) bool {
		if svcs[i].Proto != svcs[j].Proto {
			return svcs[i].Proto < svcs[j].Proto
		}
		return svcs[i].Port < svcs[j].Port
	})
	return svcs
}

func encodePorts(e *checkpoint.Enc, m map[firewall.Service]uint64, first firewall.Service, firstN uint64) {
	if len(m) == 0 {
		e.Uvarint(1)
		e.U8(uint8(first.Proto))
		e.Uvarint(uint64(first.Port))
		e.Uvarint(firstN)
		return
	}
	svcs := servicesSorted(m)
	e.Uvarint(uint64(len(svcs)))
	for _, s := range svcs {
		e.U8(uint8(s.Proto))
		e.Uvarint(uint64(s.Port))
		e.Uvarint(m[s])
	}
}

func decodePorts(d *checkpoint.Dec) (map[firewall.Service]uint64, firewall.Service, uint64) {
	n := d.Uvarint()
	readSvc := func() (firewall.Service, uint64) {
		var s firewall.Service
		s.Proto = layers.IPProtocol(d.U8())
		s.Port = uint16(d.Uvarint())
		return s, d.Uvarint()
	}
	if n == 0 {
		return nil, firewall.Service{}, 0
	}
	if n == 1 {
		first, firstN := readSvc()
		return nil, first, firstN
	}
	m := make(map[firewall.Service]uint64, inlineMapHint)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		s, cnt := readSvc()
		m[s] = cnt
	}
	// The inline pair is never consulted once the map is materialized;
	// leave it zero.
	return m, firewall.Service{}, 0
}

func encodeWeeks(e *checkpoint.Enc, m map[int]uint64, first int, firstN uint64) {
	if len(m) == 0 {
		if firstN == 0 {
			e.Uvarint(0)
			return
		}
		e.Uvarint(1)
		e.Varint(int64(first))
		e.Uvarint(firstN)
		return
	}
	weeks := make([]int, 0, len(m))
	for w := range m {
		weeks = append(weeks, w)
	}
	sort.Ints(weeks)
	e.Uvarint(uint64(len(weeks)))
	for _, w := range weeks {
		e.Varint(int64(w))
		e.Uvarint(m[w])
	}
}

func decodeWeeks(d *checkpoint.Dec) (map[int]uint64, int, uint64) {
	n := d.Uvarint()
	if n == 0 {
		return nil, 0, 0
	}
	if n == 1 {
		w := int(d.Varint())
		return nil, w, d.Uvarint()
	}
	m := make(map[int]uint64, inlineMapHint)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		w := int(d.Varint())
		m[w] = d.Uvarint()
	}
	return m, 0, 0
}

// encodeCounter writes an entropy counter's (value, count) pairs in
// value order.
func encodeCounter(e *checkpoint.Enc, c *entropy.Counter) {
	type vc struct{ v, n uint64 }
	var pairs []vc
	c.Each(func(v, n uint64) { pairs = append(pairs, vc{v, n}) })
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	e.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		e.Uvarint(p.v)
		e.Uvarint(p.n)
	}
}

// decodeCounter rebuilds a counter by replaying its observations in
// value order; a single distinct value lands on the inline fast path,
// exactly as live ingestion would leave it.
func decodeCounter(d *checkpoint.Dec, c *entropy.Counter) {
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		v := d.Uvarint()
		c.ObserveN(v, d.Uvarint())
	}
}

func encodeScan(e *checkpoint.Enc, s *Scan) {
	src := netaddr6.ToU128(s.Source.Addr())
	e.U64(src.Hi)
	e.U64(src.Lo)
	e.Varint(int64(s.Source.Bits()))
	e.Time(s.Start)
	e.Time(s.End)
	e.Uvarint(s.Packets)
	e.Uvarint(uint64(s.Dsts))
	e.Uvarint(uint64(s.SrcAddrs))
	e.F64(s.LenEntropy)
	addrs := append([]netip.Addr(nil), s.DstAddrs...)
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Compare(addrs[j]) < 0 })
	e.Uvarint(uint64(len(addrs)))
	for _, a := range addrs {
		u := netaddr6.ToU128(a)
		e.U64(u.Hi)
		e.U64(u.Lo)
	}
	encodePortsAlways(e, s.Ports)
	encodeWeeks(e, s.WeekPackets, 0, 0)
}

// encodePortsAlways is encodePorts for maps that are always
// materialized (scan results), with no inline fallback.
func encodePortsAlways(e *checkpoint.Enc, m map[firewall.Service]uint64) {
	svcs := servicesSorted(m)
	e.Uvarint(uint64(len(svcs)))
	for _, s := range svcs {
		e.U8(uint8(s.Proto))
		e.Uvarint(uint64(s.Port))
		e.Uvarint(m[s])
	}
}

func decodeScan(d *checkpoint.Dec) Scan {
	src := netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
	bits := int(d.Varint())
	s := Scan{
		Source:     netip.PrefixFrom(src.ToAddr(), bits),
		Level:      netaddr6.AggLevel(bits),
		Start:      d.Time(),
		End:        d.Time(),
		Packets:    d.Uvarint(),
		Dsts:       int(d.Uvarint()),
		SrcAddrs:   int(d.Uvarint()),
		LenEntropy: d.F64(),
	}
	if n := d.Uvarint(); n > 0 {
		s.DstAddrs = make([]netip.Addr, 0, preallocHint(n))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			s.DstAddrs = append(s.DstAddrs, netaddr6.U128{Hi: d.U64(), Lo: d.U64()}.ToAddr())
		}
	}
	pn := d.Uvarint()
	s.Ports = make(map[firewall.Service]uint64, preallocHint(pn))
	for i := uint64(0); i < pn && d.Err() == nil; i++ {
		var svc firewall.Service
		svc.Proto = layers.IPProtocol(d.U8())
		svc.Port = uint16(d.Uvarint())
		s.Ports[svc] = d.Uvarint()
	}
	s.WeekPackets = decodeWeeksMapOnly(d)
	return s
}

// decodeWeeksMapOnly mirrors decodeWeeks but always materializes a map
// when any entry is present (scan results hold real maps, never the
// inline pair).
func decodeWeeksMapOnly(d *checkpoint.Dec) map[int]uint64 {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	m := make(map[int]uint64, preallocHint(n))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		w := int(d.Varint())
		m[w] = d.Uvarint()
	}
	return m
}
