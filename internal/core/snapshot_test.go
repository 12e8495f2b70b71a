package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/netaddr6"
)

// craftedSnapshots returns snapshots with a valid container and CRC
// whose sessions break what Advance relies on, keyed by the broken
// rule. Each is made by corrupting live detector state before
// Snapshot, so only the session contents are wrong.
func craftedSnapshots(t testing.TB) map[string][]byte {
	t.Helper()
	cfg := evictionConfig()
	recs := evictionStream(5, 40)
	mark := recs[len(recs)-1].Time.Add(time.Second)
	build := func() *Detector {
		d := NewDetector(cfg)
		if err := d.ProcessBatch(recs); err != nil {
			t.Fatal(err)
		}
		return d
	}
	snap := func(dets []*Detector, mark time.Time) []byte {
		var buf bytes.Buffer
		if err := snapshotDetectors(&buf, cfg, dets, mark); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// anySession returns one open /64 session and its key.
	anySession := func(d *Detector) (*levelState, netaddr6.U128, uint32) {
		ls := d.levels[1]
		var key netaddr6.U128
		var h uint32
		ls.idx.Range(func(k netaddr6.U128, v uint32) bool {
			key, h = k, v
			return false
		})
		return ls, key, h
	}
	out := map[string][]byte{"valid": snap([]*Detector{build()}, mark)}

	d := build()
	ls, key, h := anySession(d)
	ls.idx.Delete(key)
	ls.idx.Put(netaddr6.U128{Hi: key.Hi, Lo: key.Lo | 1}, h)
	out["key-not-masked"] = snap([]*Detector{d}, mark)

	d = build()
	ls, _, h = anySession(d)
	s := ls.session(h)
	s.srcs.Reset() // back to the inline first source, which is encoded
	s.firstSrc = netaddr6.ToU128(netaddr6.MustAddr("2001:db8:ffff::1"))
	out["source-outside-key"] = snap([]*Detector{d}, mark)

	out["duplicate-key"] = snap([]*Detector{build(), build()}, mark)
	out["last-after-horizon"] = snap([]*Detector{build()}, recs[len(recs)-1].Time)
	return out
}

// TestRestoreRejectsInconsistentSessions: a snapshot whose session
// key is not masked at its level, whose first source lies outside the
// key, whose key repeats, or whose last packet follows the horizon is
// rejected with checkpoint.ErrFormat at any shard count.
func TestRestoreRejectsInconsistentSessions(t *testing.T) {
	for name, b := range craftedSnapshots(t) {
		t.Run(name, func(t *testing.T) {
			for _, shards := range []int{0, 4} { // 0: a plain Detector
				cr, err := checkpoint.NewReader(bytes.NewReader(b))
				if err != nil {
					t.Fatal(err)
				}
				if shards == 0 {
					_, err = RestoreDetector(cr)
				} else {
					var sd *ShardedDetector
					if sd, err = RestoreShardedDetector(cr, shards); err == nil {
						sd.Finish()
					}
				}
				switch {
				case name == "valid" && err != nil:
					t.Fatalf("shards=%d: valid snapshot rejected: %v", shards, err)
				case name != "valid" && !errors.Is(err, checkpoint.ErrFormat):
					t.Fatalf("shards=%d: err = %v, want checkpoint.ErrFormat", shards, err)
				}
			}
		})
	}
}
