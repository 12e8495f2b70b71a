package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/pipeline"
)

// The traced run records spans in memory around the benchmark's own
// calls into layer entry points. Each goroutine that calls into a
// layer owns a lane, so recording needs no locks; a span's parent is
// the span open on the same lane when it began. A layer's self time is
// its span's duration minus the time its child spans cover.

type span struct {
	name       string
	parent     int32
	start, end time.Duration // since the tracer's origin
}

type lane struct {
	name   string
	origin time.Time
	spans  []span
	stack  []int32
}

func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.stack = append(l.stack, int32(len(l.spans)))
	l.spans = append(l.spans, span{name: name, parent: parent, start: time.Since(l.origin)})
}

func (l *lane) end() {
	if l == nil {
		return
	}
	n := len(l.stack) - 1
	l.spans[l.stack[n]].end = time.Since(l.origin)
	l.stack = l.stack[:n]
}

type tracer struct {
	run    string
	origin time.Time
	mu     sync.Mutex
	lanes  []*lane
}

func newTracer(run string) *tracer { return &tracer{run: run, origin: time.Now()} }

// lane registers a new lane; call it before the goroutine that owns
// the lane starts.
func (t *tracer) lane(name string) *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{name: name, origin: t.origin}
	t.lanes = append(t.lanes, l)
	return l
}

type layerTime struct {
	self  time.Duration
	calls int
}

// selfTimes sums self time per span name over the given lanes (all
// lanes when none are named by prefix).
func (t *tracer) selfTimes(lanePrefix string) map[string]*layerTime {
	out := map[string]*layerTime{}
	for _, l := range t.lanes {
		if !strings.HasPrefix(l.name, lanePrefix) {
			continue
		}
		child := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			lt := out[s.name]
			if lt == nil {
				lt = &layerTime{}
				out[s.name] = lt
			}
			lt.self += s.end - s.start - child[i]
			lt.calls++
		}
	}
	return out
}

func (t *tracer) self(name string) time.Duration {
	if lt := t.selfTimes("")[name]; lt != nil {
		return lt.self
	}
	return 0
}

// write dumps every span as CSV: run, lane, index, parent, name,
// start and end in nanoseconds since the tracer's origin.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run,lane,span,parent,name,start_ns,end_ns")
	for _, l := range t.lanes {
		for i, s := range l.spans {
			fmt.Fprintf(w, "%s,%s,%d,%d,%s,%d,%d\n", t.run, l.name, i, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printAttribution prints per-layer self time, the sum over the lanes
// of the dispatching goroutine against the untraced wall time, and the
// tracing overhead (traced minus untraced wall).
func (t *tracer) printAttribution(w io.Writer, workload string, traced, untraced time.Duration) {
	fmt.Fprintf(w, "\n== attribution: %s (run %s) ==\n", workload, t.run)
	fmt.Fprintf(w, "%-26s %-10s %12s %8s %10s\n", "layer", "lanes", "self_ms", "calls", "%untraced")
	type row struct {
		name, lanes string
		lt          *layerTime
	}
	var rows []row
	groups := []string{}
	for _, l := range t.lanes {
		g := laneGroup(l.name)
		if !slices.Contains(groups, g) {
			groups = append(groups, g)
		}
	}
	sums := map[string]time.Duration{}
	for _, g := range groups {
		for name, lt := range t.selfTimes(g) {
			rows = append(rows, row{name, g, lt})
			sums[g] += lt.self
		}
	}
	slices.SortFunc(rows, func(a, b row) int {
		if c := strings.Compare(a.lanes, b.lanes); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %-10s %12.2f %8d %9.1f%%\n", r.name, r.lanes, ms(r.lt.self), r.lt.calls,
			100*float64(r.lt.self)/float64(untraced))
	}
	for _, g := range groups {
		fmt.Fprintf(w, "lane group %-10s busy %10.2f ms\n", g, ms(sums[g]))
	}
	main := sums["main"]
	fmt.Fprintf(w, "layer sum on main lane %.2f ms vs untraced wall %.2f ms: gap %.2f ms (%.1f%%)\n",
		ms(main), ms(untraced), ms(untraced-main), 100*float64(untraced-main)/float64(untraced))
	fmt.Fprintf(w, "traced wall %.2f ms, tracing overhead %.2f ms (%.1f%%)\n",
		ms(traced), ms(traced-untraced), 100*float64(traced-untraced)/float64(untraced))
}

// laneGroup maps "shard1" to "shard", "pub0" to "pub" and so on.
func laneGroup(name string) string { return strings.TrimRight(name, "0123456789") }

// tracedSink wraps a stage or terminal: every call into it is a span
// on the dispatching goroutine's lane, and it counts the records it
// was handed.
type tracedSink struct {
	l    *lane
	name string
	next pipeline.RecordSink
	in   uint64
	// after, when set, runs after every call (the artifact stage uses
	// it to track how many records it holds back).
	after func()
}

func (s *tracedSink) Consume(r firewall.Record) error {
	s.in++
	s.l.begin(s.name)
	err := s.next.Consume(r)
	s.l.end()
	s.done()
	return err
}

func (s *tracedSink) ConsumeBatch(recs []firewall.Record) error {
	s.in += uint64(len(recs))
	s.l.begin(s.name)
	var err error
	if bs, ok := s.next.(pipeline.BatchSink); ok {
		err = bs.ConsumeBatch(recs)
	} else {
		for _, r := range recs {
			if err = s.next.Consume(r); err != nil {
				break
			}
		}
	}
	s.l.end()
	s.done()
	return err
}

func (s *tracedSink) Flush() error {
	s.l.begin(s.name)
	err := s.next.Flush()
	s.l.end()
	s.done()
	return err
}

func (s *tracedSink) done() {
	if s.after != nil {
		s.after()
	}
}

// tracedSource wraps a batch source: the whole emission is one span on
// the lane, so its self time is the source's own work (and its waits)
// with the consumer's spans subtracted. When handoff is set, each
// delivery into the consumer is a child span of that name, for sources
// whose consumer runs on another goroutine.
type tracedSource struct {
	l       *lane
	name    string
	handoff string
	src     pipeline.BatchSource
}

func (s *tracedSource) Emit(emit func(r firewall.Record) error) error {
	return s.EmitBatch(pipeline.DefaultBatchSize, func(recs []firewall.Record) error {
		for _, r := range recs {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *tracedSource) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	s.l.begin(s.name)
	err := s.src.EmitBatch(batchSize, func(recs []firewall.Record) error {
		if s.handoff == "" {
			return emit(recs)
		}
		s.l.begin(s.handoff)
		err := emit(recs)
		s.l.end()
		return err
	})
	s.l.end()
	return err
}

// firstBatch wraps a batch source and notes when its first batch
// reaches the consumer — the end of set-up. With stop set, it ends the
// run right there, for set-up-only trials.
type firstBatch struct {
	src   pipeline.BatchSource
	stop  bool
	first time.Time
}

var errSetupDone = fmt.Errorf("set-up trial done")

func (s *firstBatch) Emit(emit func(r firewall.Record) error) error {
	return s.EmitBatch(pipeline.DefaultBatchSize, func(recs []firewall.Record) error {
		for _, r := range recs {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *firstBatch) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	return s.src.EmitBatch(batchSize, func(recs []firewall.Record) error {
		if s.first.IsZero() {
			s.first = time.Now()
			if s.stop {
				return errSetupDone
			}
		}
		return emit(recs)
	})
}
