package main

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"

	"v6scan/internal/core"
	"v6scan/internal/netaddr6"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A layer a workload bypasses reports 0 (see README.md).
var perLayer = []struct{ name, unit string }{
	{"records_per_s", "records/s"},
	{"alert_latency_p50_ms", "ms"},
	{"alert_latency_p99_ms", "ms"},
	{"firewall.decode.ns_per_record", "ns"},
	{"firewall.policy.ns_per_record", "ns"},
	{"firewall.artifact.ns_per_record", "ns"},
	{"firewall.artifact.kept_share", "fraction"},
	{"firewall.artifact.buffered_peak_records", "count"},
	{"pipeline.merge.ns_per_record", "ns"},
	{"pipeline.tail.lag_ms_p99", "ms"},
	{"pipeline.cadence.fires", "count"},
	{"dispatch.ns_per_record", "ns"},
	{"dispatch.queue_depth_mean", "batches"},
	{"core.ingest.ns_per_record", "ns"},
	{"core.advance.ns_per_record", "ns"},
	{"core.advance.evicted_share", "fraction"},
	{"core.open_sessions_peak", "count"},
	{"core.heap_bytes_per_session", "B"},
	{"core.finish.ms", "ms"},
	{"core.scans_128", "count"},
	{"core.scans_64", "count"},
	{"core.scans_48", "count"},
	{"ids.ingest.ns_per_record", "ns"},
	{"ids.tick.ns_per_call", "ns"},
	{"ids.candidates_peak", "count"},
	{"ids.dropped_candidates", "count"},
	{"ids.alerts", "count"},
	{"checkpoint.encode.ms_per_snapshot", "ms"},
	{"checkpoint.bytes_per_snapshot", "B"},
	{"checkpoint.restore.ms", "ms"},
	{"bus.publish.ns_per_record", "ns"},
	{"bus.subscribe.ns_per_record", "ns"},
	{"events.wire_bytes_per_record", "B"},
	{"serve.api_state_ms_p99", "ms"},
	{"runtime.gc_cpu_share", "fraction"},
	{"runtime.mallocs_per_record", "count"},
	{"loadgen.late_ms_p99", "ms"},
}

// newLayerResult starts a traced run's result with every per-layer
// metric at 0.
func newLayerResult() *result {
	r := &result{Correct: true}
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
	return r
}

// setLayer sets a per-layer metric, refusing names outside perLayer.
func (r *result) setLayer(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			r.set(name, v, m.unit)
			return
		}
	}
	panic("unknown per-layer metric " + name)
}

// runtimeLayer fills the runtime metrics from an untraced interval.
func (r *result) runtimeLayer(u usage, records int64) {
	if u.totalCPU > 0 {
		r.setLayer("runtime.gc_cpu_share", u.gcCPU/u.totalCPU)
	}
	r.setLayer("runtime.mallocs_per_record", float64(u.mallocs)/float64(records))
}

// The wall-clock figures — records/s and, on live-ids, the alert
// latency — are printed every run and reported unbounded by traced
// runs. They are not bounded end-to-end metrics because CPU time
// stolen by the hypervisor of a shared VM swings them by up to 2x from
// one minute to the next, which no allowed bound covers.

// scanLevels are the paper's tabulated aggregation levels.
var scanLevels = []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48}

type scanSet map[netaddr6.AggLevel][]core.Scan

func scansOf(d *core.Detector) scanSet {
	out := scanSet{}
	for _, l := range scanLevels {
		out[l] = d.Scans(l)
	}
	return out
}

// canonical orders scans independently of how shards interleaved.
func canonical(s []core.Scan) []core.Scan {
	s = slices.Clone(s)
	slices.SortFunc(s, func(a, b core.Scan) int {
		return cmp.Or(a.Start.Compare(b.Start), a.Source.Addr().Compare(b.Source.Addr()),
			cmp.Compare(a.Source.Bits(), b.Source.Bits()), a.End.Compare(b.End))
	})
	return s
}

// compareScans checks got against want level by level, as multisets.
func compareScans(want, got scanSet) error {
	for _, l := range scanLevels {
		w, g := canonical(want[l]), canonical(got[l])
		if len(w) != len(g) {
			return fmt.Errorf("%w: %v: %d scans, reference has %d", errMismatch, l, len(g), len(w))
		}
		for i := range w {
			if !reflect.DeepEqual(w[i], g[i]) {
				return fmt.Errorf("%w: %v scan %d differs: got %+v, reference %+v", errMismatch, l, i, g[i], w[i])
			}
		}
	}
	return nil
}

func (r *result) scanCounts(s scanSet) {
	r.setLayer("core.scans_128", float64(len(s[netaddr6.Agg128])))
	r.setLayer("core.scans_64", float64(len(s[netaddr6.Agg64])))
	r.setLayer("core.scans_48", float64(len(s[netaddr6.Agg48])))
}

// openSessions is a detector's working set over all levels.
func openSessions(d *core.Detector) int64 {
	var n int64
	for _, l := range d.Config().Levels {
		n += int64(d.OpenSessions(l))
	}
	return n
}

const mib = 1 << 20
