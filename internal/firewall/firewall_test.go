package firewall

import (
	"bytes"
	"io"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
)

var t0 = time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)

func rec(ts time.Time, src, dst string, proto layers.IPProtocol, dport uint16) Record {
	return Record{
		Time: ts, Src: netaddr6.MustAddr(src), Dst: netaddr6.MustAddr(dst),
		Proto: proto, SrcPort: 54321, DstPort: dport, Length: 60,
	}
}

func TestServiceString(t *testing.T) {
	if s := (Service{layers.ProtoTCP, 22}).String(); s != "TCP/22" {
		t.Errorf("got %q", s)
	}
	if s := (Service{layers.ProtoUDP, 500}).String(); s != "UDP/500" {
		t.Errorf("got %q", s)
	}
	if s := (Service{layers.ProtoICMPv6, 0}).String(); s != "ICMPv6" {
		t.Errorf("got %q", s)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := rec(t0, "2001:db8::1", "2001:db8:f::2", layers.ProtoTCP, 22)
	b := r.AppendBinary(nil)
	if len(b) != recordWireSize {
		t.Fatalf("size %d", len(b))
	}
	var got Record
	if err := got.DecodeBinary(b); err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("got %+v want %+v", got, r)
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(ns int64, hi1, lo1, hi2, lo2 uint64, proto uint8, sp, dp, ln uint16) bool {
		r := Record{
			Time:  time.Unix(0, ns).UTC(),
			Src:   netaddr6.U128{Hi: hi1, Lo: lo1}.ToAddr(),
			Dst:   netaddr6.U128{Hi: hi2, Lo: lo2}.ToAddr(),
			Proto: layers.IPProtocol(proto), SrcPort: sp, DstPort: dp, Length: ln,
		}
		var got Record
		if err := got.DecodeBinary(r.AppendBinary(nil)); err != nil {
			return false
		}
		return got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShort(t *testing.T) {
	var r Record
	if err := r.DecodeBinary(make([]byte, 10)); err != ErrShortRecord {
		t.Errorf("got %v", err)
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []Record
	for i := 0; i < 500; i++ {
		r := rec(t0.Add(time.Duration(i)*time.Second), "2001:db8::1", "2001:db8:f::2", layers.ProtoTCP, uint16(i))
		want = append(want, r)
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 500 {
		t.Errorf("count %d", w.Count())
	}
	rd := NewReader(&buf)
	for i := 0; ; i++ {
		r, err := rd.Next()
		if err == io.EOF {
			if i != 500 {
				t.Fatalf("read %d", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if r != want[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReaderTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(rec(t0, "2001:db8::1", "2001:db8::2", layers.ProtoTCP, 22))
	w.Flush()
	data := buf.Bytes()[:recordWireSize-3]
	rd := NewReader(bytes.NewReader(data))
	if _, err := rd.Next(); err == nil || err == io.EOF {
		t.Errorf("got %v", err)
	}
}

func TestCollectPolicy(t *testing.T) {
	p := DefaultCollectPolicy()
	tests := []struct {
		r    Record
		want bool
	}{
		{rec(t0, "2001:db8::1", "2001:db8::2", layers.ProtoTCP, 22), true},
		{rec(t0, "2001:db8::1", "2001:db8::2", layers.ProtoTCP, 80), false},
		{rec(t0, "2001:db8::1", "2001:db8::2", layers.ProtoTCP, 443), false},
		{rec(t0, "2001:db8::1", "2001:db8::2", layers.ProtoUDP, 443), true}, // only TCP excluded
		{rec(t0, "2001:db8::1", "2001:db8::2", layers.ProtoICMPv6, 0), false},
		{rec(t0, "2001:db8::1", "2001:db8::2", layers.ProtoUDP, 500), true},
	}
	for i, tt := range tests {
		if got := p.Admit(tt.r); got != tt.want {
			t.Errorf("case %d: Admit = %v, want %v", i, got, tt.want)
		}
	}
	// Non-IPv6 records are never admitted.
	bad := Record{Proto: layers.ProtoTCP, DstPort: 22}
	if p.Admit(bad) {
		t.Error("zero addresses admitted")
	}
}

func TestFromDecoded(t *testing.T) {
	src, dst := netaddr6.MustAddr("2001:db8::1"), netaddr6.MustAddr("2001:db8::2")
	frame, err := layers.BuildTCPSYN(src, dst, 1234, 22, layers.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var d layers.Decoded
	if err := layers.ParseFrame(frame, layers.LinkTypeRaw, &d); err != nil {
		t.Fatal(err)
	}
	r := FromDecoded(t0, &d)
	if r.Src != src || r.Dst != dst || r.Proto != layers.ProtoTCP || r.DstPort != 22 {
		t.Errorf("record %+v", r)
	}
	if int(r.Length) != len(frame) {
		t.Errorf("length %d, frame %d", r.Length, len(frame))
	}
}

// --- artifact filter ---

func TestArtifactFilterDropsSMTPRetries(t *testing.T) {
	f := NewArtifactFilter()
	// An SMTP server retrying delivery: 20 packets to each of 3
	// telescope IPs on TCP/25 — 15 duplicates out of 20 per pair, well
	// above 30%.
	var n int
	for i := 0; i < 20; i++ {
		for j := 0; j < 3; j++ {
			dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(j))
			out := f.Push(rec(t0.Add(time.Duration(n)*time.Second), "2001:db8:bad::1", dst.String(), layers.ProtoTCP, 25))
			if len(out) != 0 {
				t.Fatal("unexpected early emit")
			}
			n++
		}
	}
	// A legitimate-looking scanner: 1 packet each to 50 dsts.
	for j := 0; j < 50; j++ {
		dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(100+j))
		f.Push(rec(t0.Add(time.Duration(n)*time.Second), "2001:db8:5ca::1", dst.String(), layers.ProtoTCP, 22))
		n++
	}
	out := f.Close()
	for _, r := range out {
		if r.DstPort == 25 {
			t.Fatal("SMTP artifact survived filter")
		}
	}
	if len(out) != 50 {
		t.Errorf("survivors = %d, want 50", len(out))
	}
	st := f.Stats()
	if st.SourcesDropped != 1 || st.PacketsDropped != 60 {
		t.Errorf("stats: %+v", st)
	}
	top := st.TopFilteredServices(5)
	if len(top) != 1 || top[0].Service.String() != "TCP/25" || top[0].Packets != 60 || top[0].Sources != 1 {
		t.Errorf("top filtered: %+v", top)
	}
}

func TestArtifactFilterKeepsScannersHittingManyDsts(t *testing.T) {
	f := NewArtifactFilter()
	// A scanner probing 200 dsts twice each: duplicates are 0 (2 ≤ 5).
	n := 0
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < 200; j++ {
			dst := netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(j))
			f.Push(rec(t0.Add(time.Duration(n)*time.Millisecond), "2001:db8:5ca::1", dst.String(), layers.ProtoTCP, 22))
			n++
		}
	}
	out := f.Close()
	if len(out) != 400 {
		t.Errorf("survivors = %d, want 400", len(out))
	}
}

func TestArtifactFilterDayBoundary(t *testing.T) {
	f := NewArtifactFilter()
	day1 := time.Date(2021, 6, 1, 23, 0, 0, 0, time.UTC)
	day2 := time.Date(2021, 6, 2, 1, 0, 0, 0, time.UTC)
	// 6 packets to one (dst,port) on day 1 → 1 duplicate / 6 = 17% → kept.
	for i := 0; i < 6; i++ {
		if out := f.Push(rec(day1.Add(time.Duration(i)*time.Minute), "2001:db8::1", "2001:db8:f::1", layers.ProtoUDP, 500)); len(out) != 0 {
			t.Fatal("premature emit")
		}
	}
	// First packet of day 2 flushes day 1.
	out := f.Push(rec(day2, "2001:db8::1", "2001:db8:f::1", layers.ProtoUDP, 500))
	if len(out) != 6 {
		t.Fatalf("day flush emitted %d", len(out))
	}
	// Times must be ordered.
	for i := 1; i < len(out); i++ {
		if out[i].Time.Before(out[i-1].Time) {
			t.Fatal("emitted out of order")
		}
	}
	if len(f.Close()) != 1 {
		t.Error("day 2 record lost")
	}
}

func TestArtifactFilterPerDayIndependence(t *testing.T) {
	// 10 packets to one pair within a single day trips the filter (5
	// duplicates / 10 = 50%); the same 10 packets spread across two days
	// (5+5) do not.
	oneDay := NewArtifactFilter()
	for i := 0; i < 10; i++ {
		oneDay.Push(rec(t0.Add(time.Duration(i)*time.Hour), "2001:db8::1", "2001:db8:f::1", layers.ProtoTCP, 25))
	}
	if out := oneDay.Close(); len(out) != 0 {
		t.Errorf("single-day: %d survived, want 0", len(out))
	}

	twoDays := NewArtifactFilter()
	total := 0
	for d := 0; d < 2; d++ {
		for i := 0; i < 5; i++ {
			ts := t0.Add(time.Duration(d)*24*time.Hour + time.Duration(i)*time.Hour)
			total += len(twoDays.Push(rec(ts, "2001:db8::1", "2001:db8:f::1", layers.ProtoTCP, 25)))
		}
	}
	total += len(twoDays.Close())
	if total != 10 {
		t.Errorf("two-day: %d survived, want 10", total)
	}
}

func TestArtifactFilterAggregatesBySlash64(t *testing.T) {
	f := NewArtifactFilter()
	// Two /128s in the same /64, each 4 packets to the same (dst,port):
	// combined 8 packets → 3 duplicates / 8 = 37.5% → the whole /64 drops.
	for i := 0; i < 4; i++ {
		f.Push(rec(t0.Add(time.Duration(i)*time.Second), "2001:db8:a::1", "2001:db8:f::1", layers.ProtoUDP, 500))
		f.Push(rec(t0.Add(time.Duration(i)*time.Second), "2001:db8:a::2", "2001:db8:f::1", layers.ProtoUDP, 500))
	}
	if out := f.Close(); len(out) != 0 {
		t.Errorf("%d survived, want 0 (per-/64 aggregation)", len(out))
	}
}

func TestFilterStatsPacketsIn(t *testing.T) {
	f := NewArtifactFilter()
	f.Push(rec(t0, "2001:db8::1", "2001:db8:f::1", layers.ProtoTCP, 22))
	f.Close()
	if f.Stats().PacketsIn != 1 {
		t.Errorf("PacketsIn = %d", f.Stats().PacketsIn)
	}
}

// TestArtifactFilterSkipsNonIPv6: IPv4-mapped sources are counted and
// skipped — neither buffered, emitted nor part of PacketsIn — and the
// rest of the stream filters as if they were absent.
func TestArtifactFilterSkipsNonIPv6(t *testing.T) {
	var recs []Record
	for i := 0; i < 12; i++ {
		recs = append(recs, rec(t0.Add(time.Duration(i)*time.Second), "2001:db8::1", "2001:db8:f::1", layers.ProtoUDP, 500))
		recs = append(recs, rec(t0.Add(time.Duration(i)*time.Second), "2001:db8:5ca::1",
			netaddr6.WithIID(netaddr6.MustAddr("2001:db8:f::"), uint64(i+1)).String(), layers.ProtoTCP, 22))
	}
	mapped := rec(t0.Add(time.Minute), "2001:db8::1", "2001:db8:f::1", layers.ProtoUDP, 500)
	mapped.Src = netip.MustParseAddr("::ffff:1.2.3.4")

	ref := NewArtifactFilter()
	f := NewArtifactFilter()
	var want, got []Record
	for i, r := range recs {
		want = append(want, ref.Push(r)...)
		got = append(got, f.Push(r)...)
		if i%5 == 0 {
			got = append(got, f.Push(mapped)...)
		}
	}
	want = append(want, ref.Close()...)
	got = append(got, f.Close()...)
	if len(got) != 12 || !reflect.DeepEqual(got, want) {
		t.Fatalf("survivors %d, want the 12 the run without mapped records keeps (%d)", len(got), len(want))
	}
	st := f.Stats()
	if st.Skipped != 5 || st.PacketsIn != ref.Stats().PacketsIn || st.PacketsDropped != ref.Stats().PacketsDropped {
		t.Fatalf("stats %+v, want Skipped 5 and the reference's counts %+v", st, ref.Stats())
	}
}
