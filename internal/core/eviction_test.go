package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"
	"unsafe"

	"v6scan/internal/checkpoint"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

// evictionConfig uses a short timeout so session splits, expiries and
// the now − last == Timeout boundary are all common in small streams.
func evictionConfig() Config {
	return Config{
		MinDsts:   4,
		Timeout:   10 * time.Second,
		Levels:    []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48},
		TrackDsts: true,
		WeekEpoch: time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC),
	}
}

// evictionStream is a random time-ordered stream over a small source
// pool (4 /48s × 2 /64s × 3 /128s) and 8 destinations. Half the
// records repeat the previous source, so batches hold same-source
// runs; 40 % of gaps are zero (equal timestamps); and one gap in ten
// exceeds evictionConfig's timeout, which splits a session inside a
// run when the repeat lands in the same batch.
func evictionStream(seed int64, n int) []firewall.Record {
	rng := rand.New(rand.NewSource(seed))
	base := netaddr6.MustPrefix("2001:db8::/32")
	var srcs []netip.Addr
	for p48 := uint64(0); p48 < 4; p48++ {
		for p64 := uint64(0); p64 < 2; p64++ {
			pfx := netaddr6.NthSubprefix(netaddr6.NthSubprefix(base, 48, p48*7), 64, p64)
			for iid := uint64(1); iid <= 3; iid++ {
				srcs = append(srcs, netaddr6.WithIID(pfx.Addr(), iid))
			}
		}
	}
	dst := netaddr6.MustPrefix("2001:db8:ff::/64").Addr()
	ts := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	src := srcs[0]
	out := make([]firewall.Record, 0, n)
	for len(out) < n {
		if rng.Intn(2) == 0 {
			src = srcs[rng.Intn(len(srcs))]
		}
		out = append(out, firewall.Record{
			Time: ts, Src: src, Dst: netaddr6.WithIID(dst, uint64(1+rng.Intn(8))),
			Proto: layers.ProtoTCP, DstPort: uint16(22 + rng.Intn(3)), Length: uint16(60 + rng.Intn(2)),
		})
		switch r := rng.Intn(10); {
		case r < 4:
		case r < 9:
			ts = ts.Add(time.Duration(1+rng.Intn(4)) * time.Second)
		default:
			ts = ts.Add(time.Duration(11+rng.Intn(15)) * time.Second)
		}
	}
	return out
}

// referenceAdvance is the eviction rule the last-touch list replaced,
// kept as the test oracle: sweep every open session and close each
// one with now − last > Timeout.
func referenceAdvance(d *Detector, now time.Time) {
	for _, ls := range d.levels {
		ls.idx.Range(func(key netaddr6.U128, h uint32) bool {
			s := ls.session(h)
			if now.Sub(s.last) > d.cfg.Timeout {
				d.emitOrDrop(ls, key, h, s)
				ls.idx.Delete(key)
			}
			return true
		})
	}
}

// checkLastTouch walks every level's last-touch list and fails unless
// the links are consistent in both directions, the list is sorted by
// last, every entry is the index's session for its derived key, and
// the list holds exactly the indexed sessions.
func checkLastTouch(t *testing.T, d *Detector) {
	t.Helper()
	for _, ls := range d.levels {
		n, prev := 0, noSession
		var last time.Time
		for h := ls.head; h != noSession; h = ls.session(h).next {
			if n > ls.idx.Len() {
				t.Fatalf("/%d: list longer than the index (%d sessions)", ls.level, ls.idx.Len())
			}
			s := ls.session(h)
			if s.prev != prev {
				t.Fatalf("/%d: handle %d has prev %d, want %d", ls.level, h, s.prev, prev)
			}
			if n > 0 && s.last.Before(last) {
				t.Fatalf("/%d: list not sorted by last: %v after %v", ls.level, s.last, last)
			}
			if got, ok := ls.idx.Get(s.firstSrc.Mask(int(ls.level))); !ok || got != h {
				t.Fatalf("/%d: handle %d is not indexed under its source's key", ls.level, h)
			}
			last, prev = s.last, h
			n++
		}
		if ls.tail != prev {
			t.Fatalf("/%d: tail %d, want %d", ls.level, ls.tail, prev)
		}
		if n != ls.idx.Len() {
			t.Fatalf("/%d: list holds %d sessions, index %d", ls.level, n, ls.idx.Len())
		}
	}
}

// shardState sums OpenSessions and Dropped over a sharded detector's
// shards and checks each shard's lists. The barrier makes shard state
// readable from the test goroutine.
func shardState(t *testing.T, sd *ShardedDetector, level netaddr6.AggLevel) (open int, dropped uint64) {
	t.Helper()
	if err := sd.disp.Barrier(); err != nil {
		t.Fatal(err)
	}
	for _, det := range sd.shards {
		checkLastTouch(t, det)
		open += det.OpenSessions(level)
		dropped += det.Dropped(level)
	}
	return open, dropped
}

// advanceTime is the stream clock for an Advance after recs[:end]: the
// last processed time plus offset seconds, capped at the next record's
// time, as a live cadence would see it. (An Advance past unprocessed
// records could close and reopen a session at the same start time,
// which Scans cannot order deterministically.)
func advanceTime(recs []firewall.Record, end, offset int) time.Time {
	now := recs[end-1].Time.Add(time.Duration(offset) * time.Second)
	if end < len(recs) && now.After(recs[end].Time) {
		now = recs[end].Time
	}
	return now
}

// TestEvictionMatchesFullScan: under random batch splits and random
// Advance points, list-based eviction at 1, 2 and 8 shards closes
// exactly the sessions the full-scan rule closes. OpenSessions and
// Dropped agree after every Advance, and the final scans are
// identical.
func TestEvictionMatchesFullScan(t *testing.T) {
	cfg := evictionConfig()
	var equalTimes, midRunSplits int
	for seed := int64(1); seed <= 10; seed++ {
		recs := evictionStream(seed, 3000)
		for i := 1; i < len(recs); i++ {
			if recs[i].Time.Equal(recs[i-1].Time) {
				equalTimes++
			}
			if recs[i].Src == recs[i-1].Src && recs[i].Time.Sub(recs[i-1].Time) > cfg.Timeout {
				midRunSplits++
			}
		}
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed%d/shards%d", seed, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*31 + int64(shards)))
				ref := NewDetector(cfg)
				sd := NewShardedDetector(cfg, shards)
				defer sd.Finish()
				evicted := false
				for i := 0; i < len(recs); {
					j := min(len(recs), i+1+rng.Intn(16))
					if err := ref.ProcessBatch(recs[i:j]); err != nil {
						t.Fatal(err)
					}
					if err := sd.ProcessBatch(recs[i:j]); err != nil {
						t.Fatal(err)
					}
					i = j
					if rng.Intn(3) != 0 {
						continue
					}
					now := advanceTime(recs, j, rng.Intn(21))
					referenceAdvance(ref, now)
					if err := sd.Advance(now); err != nil {
						t.Fatal(err)
					}
					checkLastTouch(t, ref)
					for _, lvl := range cfg.Levels {
						open, dropped := shardState(t, sd, lvl)
						if want := ref.OpenSessions(lvl); open != want {
							t.Fatalf("record %d, Advance(%v): %v open = %d, full scan %d", j, now, lvl, open, want)
						}
						if want := ref.Dropped(lvl); dropped != want {
							t.Fatalf("record %d, Advance(%v): %v dropped = %d, full scan %d", j, now, lvl, dropped, want)
						}
						evicted = evicted || dropped > 0
					}
				}
				if !evicted {
					t.Fatal("no Advance evicted anything; the stream does not exercise eviction")
				}
				ref.Finish()
				if err := sd.Finish(); err != nil {
					t.Fatal(err)
				}
				for _, lvl := range cfg.Levels {
					if got, want := renderLevel(sd.Scans(lvl)), renderLevel(ref.Scans(lvl)); got != want {
						t.Fatalf("%v scans differ from the full-scan run:\n%s\nwant:\n%s", lvl, got, want)
					}
					if got, want := sd.Dropped(lvl), ref.Dropped(lvl); got != want {
						t.Fatalf("%v final dropped = %d, full scan %d", lvl, got, want)
					}
				}
			})
		}
	}
	if equalTimes == 0 || midRunSplits == 0 {
		t.Fatalf("streams lack equal timestamps (%d) or same-source timeout gaps (%d)", equalTimes, midRunSplits)
	}
}

// TestRestoreAdvanceParity: a snapshot taken mid-stream and restored
// at another shard count evicts, at every following Advance, exactly
// what the uninterrupted run evicts.
func TestRestoreAdvanceParity(t *testing.T) {
	cfg := evictionConfig()
	recs := evictionStream(7, 4000)
	const batch = 20
	// Cut at a batch boundary where time strictly increases, so the
	// mark separates processed from unprocessed records.
	cut := len(recs) / 2 / batch * batch
	for !recs[cut].Time.After(recs[cut-1].Time) {
		cut += batch
	}
	// advanceAt is the shared schedule: after batch k, Advance by
	// (k mod 3) × 7 s past the batch's last time.
	advanceAt := func(end int) time.Time { return advanceTime(recs, end, end/batch%3*7) }

	type point struct {
		open    [3]int
		dropped [3]uint64
	}
	full := NewDetector(cfg)
	var snap bytes.Buffer
	var want []point
	for i := 0; i < len(recs); i += batch {
		if i == cut {
			if err := full.Snapshot(&snap, recs[cut].Time); err != nil {
				t.Fatal(err)
			}
		}
		if err := full.ProcessBatch(recs[i : i+batch]); err != nil {
			t.Fatal(err)
		}
		full.Advance(advanceAt(i + batch))
		if i >= cut {
			var p point
			for li, lvl := range cfg.Levels {
				p.open[li], p.dropped[li] = full.OpenSessions(lvl), full.Dropped(lvl)
			}
			want = append(want, p)
		}
	}

	for _, shards := range []int{0, 3, 8} { // 0: a plain Detector
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cr, err := checkpoint.NewReader(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var (
				process func([]firewall.Record) error
				advance func(time.Time)
				state   func(netaddr6.AggLevel) (int, uint64)
			)
			if shards == 0 {
				d, err := RestoreDetector(cr)
				if err != nil {
					t.Fatal(err)
				}
				checkLastTouch(t, d)
				process, advance = d.ProcessBatch, d.Advance
				state = func(l netaddr6.AggLevel) (int, uint64) { return d.OpenSessions(l), d.Dropped(l) }
			} else {
				sd, err := RestoreShardedDetector(cr, shards)
				if err != nil {
					t.Fatal(err)
				}
				defer sd.Finish()
				process = sd.ProcessBatch
				advance = func(now time.Time) {
					if err := sd.Advance(now); err != nil {
						t.Fatal(err)
					}
				}
				state = func(l netaddr6.AggLevel) (int, uint64) { return shardState(t, sd, l) }
			}
			k := 0
			for i := cut; i < len(recs); i += batch {
				if err := process(recs[i : i+batch]); err != nil {
					t.Fatal(err)
				}
				advance(advanceAt(i + batch))
				for li, lvl := range cfg.Levels {
					open, dropped := state(lvl)
					if open != want[k].open[li] || dropped != want[k].dropped[li] {
						t.Fatalf("Advance after record %d: %v open/dropped = %d/%d, uninterrupted %d/%d",
							i+batch, lvl, open, dropped, want[k].open[li], want[k].dropped[li])
					}
				}
				k++
			}
		})
	}
}

// TestSessionSize pins the session layout: the last-touch links live
// in padding, so adding them did not grow the struct.
func TestSessionSize(t *testing.T) {
	if got := unsafe.Sizeof(session{}); got != 424 {
		t.Fatalf("unsafe.Sizeof(session{}) = %d, want 424", got)
	}
}

// TestNonIPv6SourceSkipped: a record with an IPv4-mapped source is
// counted and skipped, not a panic, on the plain and sharded paths,
// and the records around it are detected as usual.
func TestNonIPv6SourceSkipped(t *testing.T) {
	cfg := evictionConfig()
	recs := evictionStream(3, 400)
	mapped := netip.MustParseAddr("::ffff:1.2.3.4")
	recs[100].Src = mapped
	recs[101].Src = mapped
	recs[300].Src = mapped

	ref := NewDetector(cfg)
	for i, r := range recs {
		if i == 100 || i == 101 || i == 300 {
			continue
		}
		if err := ref.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	ref.Finish()

	d := NewDetector(cfg)
	if err := d.ProcessBatch(recs); err != nil {
		t.Fatal(err)
	}
	d.Finish()
	sd := NewShardedDetector(cfg, 4)
	if err := sd.ProcessBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := sd.Finish(); err != nil {
		t.Fatal(err)
	}
	if d.Skipped() != 3 || sd.Skipped() != 3 {
		t.Fatalf("Skipped = %d (plain), %d (sharded), want 3", d.Skipped(), sd.Skipped())
	}
	for _, lvl := range cfg.Levels {
		want := renderLevel(ref.Scans(lvl))
		if got := renderLevel(d.Scans(lvl)); got != want {
			t.Fatalf("%v plain scans differ from the run without the mapped records", lvl)
		}
		if got := renderLevel(sd.Scans(lvl)); got != want {
			t.Fatalf("%v sharded scans differ from the run without the mapped records", lvl)
		}
	}
}
