package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"v6scan/internal/bus"
	"v6scan/internal/core"
	"v6scan/internal/dispatch"
	"v6scan/internal/events"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
	"v6scan/internal/pipeline"
)

// The churn workload is singleton-heavy background traffic: every
// record comes from a fresh /64, at 100 records/s of stream time, so
// the detector holds a large open-session working set that the
// eviction sweep walks every stream minute. It runs in the
// `v6scan -publish 2` topology: two publishers split the log onto the
// in-process bus and one aggregator merges the topics into the sharded
// detector with a one-minute Advance cadence and a 15-minute
// checkpoint cadence.
const (
	churnRecords   = 500_000
	churnStep      = 10 * time.Millisecond
	churnTopics    = 4 // per publisher, as cmd/v6scan -publish uses
	churnAdvance   = time.Minute
	churnCkptEvery = 15 * time.Minute
)

var churnStart = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

// genChurn writes the churn log and returns its records.
func genChurn(seed int64, path string) ([]firewall.Record, error) {
	rng := rand.New(rand.NewSource(seed))
	scanBase := netaddr6.MustPrefix("2001:db8::/36")
	dstBase := netaddr6.MustPrefix("2001:db8:f000::/44")
	recs := make([]firewall.Record, 0, churnRecords)
	ts := churnStart
	for i := 0; i < churnRecords; i++ {
		src := netaddr6.RandomSubprefix(scanBase, 64, rng).Addr()
		recs = append(recs, firewall.Record{
			Time: ts, Src: netaddr6.WithIID(src, uint64(i%64)),
			Dst:   netaddr6.RandomAddrIn(dstBase, rng),
			Proto: layers.ProtoTCP, DstPort: uint16(1 + i%1024), Length: 60,
		})
		ts = ts.Add(churnStep)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	w := firewall.NewWriter(bw)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return recs, f.Close()
}

// churnReference feeds the records to one plain detector: no bus, no
// shards, no cadence.
func churnReference(recs []firewall.Record, cfg core.Config) (scanSet, error) {
	d := core.NewDetector(cfg)
	for i := 0; i < len(recs); i += pipeline.DefaultBatchSize {
		if err := d.ProcessBatch(recs[i:min(i+pipeline.DefaultBatchSize, len(recs))]); err != nil {
			return nil, err
		}
	}
	d.Finish()
	return scansOf(d), nil
}

// busSplit is the publisher half of the topology: the log is split
// into contiguous record-aligned chunks, one publisher per chunk, each
// partitioning its records over its own topics.
type busSplit struct {
	b      *bus.Bus
	f      *os.File
	chunks []firewall.Chunk
	topics [][]string
	all    []string
	level  netaddr6.AggLevel
}

func newBusSplit(path string, n int, level netaddr6.AggLevel) (*busSplit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &busSplit{b: bus.New(), f: f, chunks: firewall.PlanChunks(fi.Size(), n), level: level}
	// Publisher-major topic order is the merge tie-break order.
	for i := range s.chunks {
		s.topics = append(s.topics, events.RecordTopics(fmt.Sprintf("pub%d", i), churnTopics))
		s.all = append(s.all, s.topics[i]...)
	}
	return s, nil
}

// publish starts one goroutine per chunk running run(i, src) and
// returns a wait func reporting the first error that is not the
// cancellation the aggregator's end causes.
func (s *busSplit) publish(run func(i int, src pipeline.BatchSource) error) func() error {
	errs := make([]error, len(s.chunks))
	var wg sync.WaitGroup
	for i, c := range s.chunks {
		wg.Add(1)
		go func(i int, c firewall.Chunk) {
			defer wg.Done()
			errs[i] = run(i, pipeline.NewLogSource(io.NewSectionReader(s.f, c.Offset, c.Length)))
		}(i, c)
	}
	return func() error {
		wg.Wait()
		s.f.Close()
		for _, e := range errs {
			if e != nil && !errors.Is(e, context.Canceled) {
				return fmt.Errorf("publisher: %w", e)
			}
		}
		return nil
	}
}

// churnPass runs the deployed topology once and returns its set-up
// time, from the first constructor to the aggregator's first batch.
// With stop set it ends there, as a set-up trial.
func churnPass(path string, cfg core.Config, nPub, nShards int, ckdir string, stop bool) (*core.Detector, time.Duration, error) {
	if err := os.RemoveAll(ckdir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	split, err := newBusSplit(path, nPub, dispatch.CoarsestLevel(cfg.Levels))
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	subs := make([]pipeline.Source, len(split.all))
	for i, tp := range split.all {
		subs[i] = pipeline.NewSubscribeSource(ctx, split.b, tp)
	}
	src := &firstBatch{src: pipeline.NewMergeSource(subs...), stop: stop}
	wait := split.publish(func(i int, s pipeline.BatchSource) error {
		return pipeline.From(s).PublishInto(ctx, split.b, split.level, split.topics[i]...)
	})
	det, err := pipeline.From(src).
		AdvanceEvery(churnAdvance).
		CheckpointEvery(churnCkptEvery, ckdir).
		Detect(ctx, cfg, nShards)
	cancel()
	werr := wait()
	if stop && errors.Is(err, errSetupDone) {
		err = nil
	}
	if err == nil {
		err = werr
	}
	return det, src.first.Sub(t0), err
}

func runChurn(r *run) (*result, error) {
	path := filepath.Join(r.work, "churn.log")
	ckdir := filepath.Join(r.work, "ckpt")
	recs, err := genChurn(r.seed, path)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	ref, err := churnReference(recs, cfg)
	if err != nil {
		return nil, err
	}
	records := int64(len(recs))
	recs = nil
	fmt.Printf("generated %d records; reference scans /128 %d, /64 %d, /48 %d\n", records,
		len(ref[scanLevels[0]]), len(ref[scanLevels[1]]), len(ref[scanLevels[2]]))
	if r.trace {
		return traceChurn(r, path, ckdir, cfg, ref, records)
	}

	defer os.RemoveAll(ckdir)
	return measureOffline(r, ref, records, func(stop bool) (*core.Detector, time.Duration, error) {
		return churnPass(path, cfg, publishers, shards, ckdir, stop)
	}, func() (string, error) {
		n, size, err := checkpointFiles(ckdir)
		return fmt.Sprintf(", %d checkpoints of %d MB on average", n, size/max(int64(n), 1)/mib), err
	})
}

// checkpointFiles counts the published checkpoints in dir and their
// total size.
func checkpointFiles(dir string) (int, int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	var n int
	var size int64
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".ckpt" {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		n++
		size += fi.Size()
	}
	return n, size, nil
}

// churnTerminal is the traced stand-in for the aggregator's
// ShardedSink: the same cadence rules (Advance at the first record a
// minute past the last fire, a checkpoint riding on the fires that are
// 15 minutes apart), with every call a span on the main lane.
type churnTerminal struct {
	st               *shardedTrace
	ckdir            string
	lastAdv, lastCkp time.Time
	fires, ckpts     int
}

func due(last *time.Time, every time.Duration, t time.Time) bool {
	if last.IsZero() || t.Sub(*last) >= every {
		fire := !last.IsZero()
		*last = t
		return fire
	}
	return false
}

func (c *churnTerminal) Consume(r firewall.Record) error {
	return c.ConsumeBatch([]firewall.Record{r})
}

func (c *churnTerminal) ConsumeBatch(recs []firewall.Record) error {
	start := 0
	for i := range recs {
		t := recs[i].Time
		if !due(&c.lastAdv, churnAdvance, t) {
			continue
		}
		if err := c.st.ConsumeBatch(recs[start:i]); err != nil {
			return err
		}
		start = i
		c.fires++
		if err := c.st.advance(t); err != nil {
			return err
		}
		if due(&c.lastCkp, churnCkptEvery, t) {
			c.st.main.begin("checkpoint.encode")
			err := pipeline.WriteCheckpoint(c.ckdir, c, t)
			c.st.main.end()
			if err != nil {
				return err
			}
			c.ckpts++
		}
	}
	return c.st.ConsumeBatch(recs[start:])
}

// Checkpoint writes every shard's detector state after a barrier.
func (c *churnTerminal) Checkpoint(w io.Writer, mark time.Time) error {
	if err := c.st.disp.Barrier(); err != nil {
		return err
	}
	for _, d := range c.st.dets {
		if err := d.Snapshot(w, mark); err != nil {
			return err
		}
	}
	return nil
}

func (c *churnTerminal) Flush() error { return c.st.Flush() }

func traceChurn(r *run, path, ckdir string, cfg core.Config, ref scanSet, records int64) (*result, error) {
	res := newLayerResult()
	res.Attempted = records

	m := startMeter()
	_, _, err := churnPass(path, cfg, publishers, shards, ckdir, false)
	untraced := m.end()
	if err != nil {
		return nil, err
	}
	res.runtimeLayer(untraced, records)
	res.setLayer("records_per_s", offlineRate([]usage{untraced}, records))
	if err := os.RemoveAll(ckdir); err != nil {
		return nil, err
	}

	tr := newTracer(fmt.Sprintf("churn-seed%d", r.seed))
	main := tr.lane("main")
	split, err := newBusSplit(path, publishers, dispatch.CoarsestLevel(cfg.Levels))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	subs := make([]pipeline.Source, len(split.all))
	for i, tp := range split.all {
		subs[i] = &tracedSource{l: tr.lane(fmt.Sprintf("sub%d", i)), name: "bus.subscribe",
			handoff: "pipeline.merge.handoff", src: pipeline.NewSubscribeSource(ctx, split.b, tp)}
	}
	st := newShardedTrace(tr, main, cfg, shards)
	term := &churnTerminal{st: st, ckdir: ckdir}
	pubLanes := make([]*lane, len(split.chunks))
	sinks := make([]*pipeline.PublishSink, len(split.chunks))
	published := make([]*tracedSink, len(split.chunks))
	for i := range split.chunks {
		pubLanes[i] = tr.lane(fmt.Sprintf("pub%d", i))
		sinks[i] = pipeline.NewPublishSink(ctx, split.b, split.level, split.topics[i]...)
		published[i] = &tracedSink{l: pubLanes[i], name: "bus.publish", next: sinks[i]}
	}

	stop := make(chan struct{})
	qmean := sampleQueue(st.disp, stop)
	m = startMeter()
	wait := split.publish(func(i int, s pipeline.BatchSource) error {
		src := &tracedSource{l: pubLanes[i], name: "firewall.decode", src: s}
		err := pipeline.New(src, published[i]).RunContext(ctx)
		if cerr := sinks[i].Close(); err == nil {
			err = cerr
		}
		return err
	})
	merged := &tracedSource{l: main, name: "pipeline.merge", src: pipeline.NewMergeSource(subs...)}
	err = pipeline.New(merged, term).RunContext(ctx)
	cancel()
	if werr := wait(); err == nil {
		err = werr
	}
	traced := m.end()
	close(stop)
	if err != nil {
		return nil, err
	}
	if err := compareScans(ref, st.scans()); err != nil {
		res.Correct = false
		return res, err
	}
	res.scanCounts(st.scans())
	n, size, err := checkpointFiles(ckdir)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(ckdir)

	var envelopes uint64
	for _, s := range sinks {
		envelopes += s.Envelopes()
	}
	empty, err := (&events.Envelope{Kind: events.KindRecords, Topic: split.all[0]}).Append(nil)
	if err != nil {
		return nil, err
	}

	per := func(name string, n int64) float64 { return float64(tr.self(name).Nanoseconds()) / float64(n) }
	res.setLayer("firewall.decode.ns_per_record", per("firewall.decode", records))
	res.setLayer("pipeline.merge.ns_per_record", per("pipeline.merge", records))
	res.setLayer("pipeline.cadence.fires", float64(term.fires))
	res.setLayer("dispatch.ns_per_record", per("dispatch", records))
	res.setLayer("dispatch.queue_depth_mean", <-qmean)
	res.setLayer("core.ingest.ns_per_record", per("core.ingest", records))
	res.setLayer("core.advance.ns_per_record", per("core.advance", records))
	if b := st.before.Load(); b > 0 {
		res.setLayer("core.advance.evicted_share", float64(st.evicted.Load())/float64(b))
	}
	res.setLayer("core.open_sessions_peak", float64(st.peak.Load()))
	if p := st.peak.Load(); p > 0 {
		res.setLayer("core.heap_bytes_per_session", float64(traced.peakLive)/float64(p))
	}
	res.setLayer("core.finish.ms", ms(tr.self("core.finish")))
	if term.ckpts > 0 {
		res.setLayer("checkpoint.encode.ms_per_snapshot", ms(tr.self("checkpoint.encode"))/float64(term.ckpts))
		res.setLayer("checkpoint.bytes_per_snapshot", float64(size)/float64(n))
	}
	res.setLayer("bus.publish.ns_per_record", per("bus.publish", records))
	res.setLayer("bus.subscribe.ns_per_record", per("bus.subscribe", records))
	res.setLayer("events.wire_bytes_per_record",
		float64(int64(envelopes)*int64(len(empty))+records*firewall.RecordWireSize)/float64(records))

	tr.printAttribution(os.Stdout, "churn", traced.wall, untraced.wall)
	if err := tr.write(filepath.Join(r.traces, "churn.csv")); err != nil {
		return nil, err
	}

	m = startMeter()
	_, _, err = churnPass(path, cfg, 1, 1, ckdir, false)
	serial := m.end()
	os.RemoveAll(ckdir)
	if err != nil {
		return nil, err
	}
	fmt.Printf("single-threaded baseline (1 publisher, 1 shard): %.3f s, %.0f records/s (deployed: %.3f s, %.0f records/s)\n",
		serial.wall.Seconds(), float64(records)/serial.wall.Seconds(),
		untraced.wall.Seconds(), float64(records)/untraced.wall.Seconds())
	return res, nil
}
