package firewall

import (
	"net/netip"
	"sort"
	"time"

	"v6scan/internal/netaddr6"
)

// ArtifactFilter implements the CDN artifact pre-filter of Section 2.1
// and Appendix A.1: for each UTC day, a source /64 is dropped entirely
// if more than MaxDupShare of its packets are "k-duplicates" — packets
// hitting a (destination IP, destination port) pair that receives more
// than DupThreshold packets from that source over the course of the
// day. This removes repeated failing connection attempts (SMTP
// fallback to AAAA records, ISAKMP re-tries) which otherwise mimic
// scans by touching many telescope addresses.
//
// The filter is port-agnostic by design: the paper filters on the
// duplicate *pattern*, not on port numbers, since any port may also be
// scanned legitimately.
//
// Records are buffered per day and emitted when the day completes, so
// input must be time-ordered across days (the order log files are
// written in). Within a day, any order is accepted.
type ArtifactFilter struct {
	// DupThreshold is the per-(dst,port) daily packet count above which
	// further packets count as duplicates (paper: 5).
	DupThreshold int
	// MaxDupShare is the duplicate share above which the source /64 is
	// dropped for the day (paper: 0.30).
	MaxDupShare float64

	day     time.Time // start of the buffered UTC day; zero when empty
	sources map[netip.Prefix]*daySource
	stats   FilterStats
}

type daySource struct {
	records []Record
	// dupCount counts packets per (dst, proto, port) triple.
	dupCount map[dupKey]int
}

type dupKey struct {
	dst netip.Addr
	svc Service
}

// FilterStats accumulates what the filter removed, powering the
// Appendix A.1 analysis (ISAKMP and SMTP dominate filtered traffic).
type FilterStats struct {
	PacketsIn           uint64
	PacketsDropped      uint64
	SourcesDropped      uint64
	DroppedByService    map[Service]uint64
	DroppedSrcByService map[Service]map[netip.Prefix]struct{}
	// Skipped counts records ignored for a non-IPv6 (e.g.
	// IPv4-mapped) source; they are neither buffered nor emitted, and
	// not part of PacketsIn.
	Skipped uint64
}

// NewArtifactFilter returns a filter with the paper's parameters
// (5-duplicate, 30% share).
func NewArtifactFilter() *ArtifactFilter {
	return &ArtifactFilter{
		DupThreshold: 5,
		MaxDupShare:  0.30,
		sources:      make(map[netip.Prefix]*daySource),
		stats: FilterStats{
			DroppedByService:    make(map[Service]uint64),
			DroppedSrcByService: make(map[Service]map[netip.Prefix]struct{}),
		},
	}
}

// Push adds one record. If the record starts a new UTC day, the
// previous day is finalized and its surviving records returned in
// timestamp order. A record whose source is not IPv6 is data, not a
// programming error: it is counted in FilterStats.Skipped and
// otherwise ignored.
func (f *ArtifactFilter) Push(r Record) []Record {
	if !netaddr6.IsIPv6(r.Src) {
		f.stats.Skipped++
		return nil
	}
	day := r.Time.UTC().Truncate(24 * time.Hour)
	var out []Record
	if !f.day.IsZero() && day.After(f.day) {
		out = f.flush()
	}
	f.day = day
	f.stats.PacketsIn++
	src, _ := r.Src.Prefix(int(netaddr6.Agg64)) // IPv6, checked above
	ds := f.sources[src]
	if ds == nil {
		ds = &daySource{dupCount: make(map[dupKey]int)}
		f.sources[src] = ds
	}
	ds.records = append(ds.records, r)
	ds.dupCount[dupKey{dst: r.Dst, svc: r.Service()}]++
	return out
}

// Close finalizes the buffered day and returns its surviving records.
func (f *ArtifactFilter) Close() []Record {
	out := f.flush()
	f.day = time.Time{}
	return out
}

// Stats returns what has been filtered so far. Valid after flushes;
// callers typically read it after Close.
func (f *ArtifactFilter) Stats() FilterStats { return f.stats }

func (f *ArtifactFilter) flush() []Record {
	var out []Record
	// Deterministic iteration: sort sources.
	srcs := make([]netip.Prefix, 0, len(f.sources))
	for p := range f.sources {
		srcs = append(srcs, p)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Addr().Compare(srcs[j].Addr()) < 0 })
	for _, p := range srcs {
		ds := f.sources[p]
		if f.isArtifact(ds) {
			f.stats.SourcesDropped++
			f.stats.PacketsDropped += uint64(len(ds.records))
			for _, r := range ds.records {
				svc := r.Service()
				f.stats.DroppedByService[svc]++
				set := f.stats.DroppedSrcByService[svc]
				if set == nil {
					set = make(map[netip.Prefix]struct{})
					f.stats.DroppedSrcByService[svc] = set
				}
				set[p] = struct{}{}
			}
			continue
		}
		out = append(out, ds.records...)
	}
	f.sources = make(map[netip.Prefix]*daySource)
	sort.Slice(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// isArtifact applies the k-duplicate share rule to one source-day.
func (f *ArtifactFilter) isArtifact(ds *daySource) bool {
	if len(ds.records) == 0 {
		return false
	}
	var dupPackets int
	for _, cnt := range ds.dupCount {
		if cnt > f.DupThreshold {
			// Packets beyond the threshold are the duplicates.
			dupPackets += cnt - f.DupThreshold
		}
	}
	return float64(dupPackets)/float64(len(ds.records)) > f.MaxDupShare
}

// TopFilteredServices returns the services that dominate dropped
// traffic, ordered by dropped packets (Appendix A.1: UDP/500 and
// TCP/25 lead).
func (s FilterStats) TopFilteredServices(n int) []ServiceCount {
	out := make([]ServiceCount, 0, len(s.DroppedByService))
	for svc, c := range s.DroppedByService {
		out = append(out, ServiceCount{
			Service: svc,
			Packets: c,
			Sources: uint64(len(s.DroppedSrcByService[svc])),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].Service.String() < out[j].Service.String()
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ServiceCount pairs a service with dropped packet/source counts.
type ServiceCount struct {
	Service Service
	Packets uint64
	Sources uint64
}
