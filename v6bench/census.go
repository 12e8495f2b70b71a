package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
	"v6scan/internal/pipeline"
	"v6scan/internal/sim"
)

// The census workload is the paper's experiment: the simulator's raw
// CDN stream over the full window, 2021-01-01 plus 62 weeks, run
// offline through policy, day sort, artifact filter and the sharded
// detector.
var censusStart = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)

const censusWeeks = 62

// setupTrials is how many set-up-only trials run before each measured
// pass, so the trials sample the whole run; setup_s is the median over
// them and the passes' own set-ups. Each trial starts from a collected
// heap: a trial stopped at its first batch leaves decode workers and
// garbage behind, and without the collection the next trial's time
// depends on how much of that is still running.
const setupTrials = 31

// genCensus writes the simulator's raw stream (day-sorted, as
// telescope-sim -raw writes it) to path and returns the scans the
// simulator's own single-shard run found, with the detector config it
// used.
func genCensus(seed int64, path string) (scanSet, core.Config, int64, error) {
	cfg := sim.DefaultConfig()
	cfg.Telescope.Machines = 2000
	cfg.Telescope.ASes = 25
	cfg.Telescope.Seed = seed
	cfg.Census.Start = censusStart
	cfg.Census.End = censusStart.Add(censusWeeks * 7 * 24 * time.Hour)
	cfg.Census.Seed = seed + 1
	cfg.Detector.WeekEpoch = censusStart
	cfg.Shards = 1

	f, err := os.Create(path)
	if err != nil {
		return nil, core.Config{}, 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	w := firewall.NewWriter(bw)
	cfg.RawSink = pipeline.Chain().DaySort().Into(pipeline.NewLogSink(w))
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, core.Config{}, 0, err
	}
	if err := w.Flush(); err != nil {
		return nil, core.Config{}, 0, err
	}
	if err := bw.Flush(); err != nil {
		return nil, core.Config{}, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, core.Config{}, 0, err
	}
	return scansOf(res.Detector), res.Detector.Config(), int64(w.Count()), nil
}

// censusPass runs the deployed chain once:
// FromFiles(log).DecodeWorkers(n).Policy(DefaultCollectPolicy()).DaySort().Artifact().Detect(cfg, shards).
// It returns the set-up time, from the first constructor to the first
// batch reaching the chain; with stop set it ends there, as a set-up
// trial.
func censusPass(path string, cfg core.Config, nShards, workers int, stop bool) (*core.Detector, time.Duration, error) {
	t0 := time.Now()
	fs := pipeline.NewFilesSource(path)
	fs.SetDecodeWorkers(workers)
	src := &firstBatch{src: fs, stop: stop}
	det, err := pipeline.From(src).
		Policy(firewall.DefaultCollectPolicy()).
		DaySort().
		Artifact().
		Detect(context.Background(), cfg, nShards)
	if stop && errors.Is(err, errSetupDone) {
		err = nil
	}
	return det, src.first.Sub(t0), err
}

func runCensus(r *run) (*result, error) {
	path := filepath.Join(r.work, "census.log")
	t := time.Now()
	ref, cfg, records, err := genCensus(r.seed, path)
	if err != nil {
		return nil, err
	}
	fmt.Printf("generated %d records (%d MB) in %.1f s; reference scans /128 %d, /64 %d, /48 %d\n",
		records, records*firewall.RecordWireSize/mib, time.Since(t).Seconds(),
		len(ref[scanLevels[0]]), len(ref[scanLevels[1]]), len(ref[scanLevels[2]]))
	if r.trace {
		return traceCensus(r, path, cfg, ref, records)
	}

	return measureOffline(r, ref, records, func(stop bool) (*core.Detector, time.Duration, error) {
		return censusPass(path, cfg, shards, decodeWorkers, stop)
	}, nil)
}

// measureOffline runs an offline workload's measured passes, each
// after a block of set-up trials, checks every pass's scans against
// ref, and reports the bounded metrics and the wall-clock rate. pass
// runs the deployed chain once, ending at the first batch when stop is
// set, and returns its set-up time; note, when set, adds to each
// pass's report line.
func measureOffline(r *run, ref scanSet, records int64,
	pass func(stop bool) (*core.Detector, time.Duration, error), note func() (string, error)) (*result, error) {
	var setups []time.Duration
	var samples []usage
	res := &result{Correct: true}
	err := passes(r.seconds, func(i int) (time.Duration, error) {
		for j := 0; j < setupTrials; j++ {
			runtime.GC()
			_, d, err := pass(true)
			if err != nil {
				return 0, err
			}
			setups = append(setups, d)
		}
		m := startMeter()
		det, setup, err := pass(false)
		u := m.end()
		if err != nil {
			return 0, err
		}
		extra := ""
		if note != nil {
			if extra, err = note(); err != nil {
				return 0, err
			}
		}
		setups = append(setups, setup)
		samples = append(samples, u)
		res.Attempted += records
		fmt.Printf("pass %d: %.3f s, %.0f records/s%s\n", i, u.wall.Seconds(), float64(records)/u.wall.Seconds(), extra)
		if err := compareScans(ref, scansOf(det)); err != nil {
			res.Correct = false
			return u.wall, err
		}
		return u.wall, nil
	})
	if err != nil && !errors.Is(err, errMismatch) {
		return nil, err
	}
	offlineMetrics(res, samples, setups, records)
	fmt.Printf("wall clock: %.0f records/s\n", offlineRate(samples, records))
	return res, err
}

// offlineMetrics reports an offline workload's bounded end-to-end
// metrics: medians over the passes, and over every set-up.
func offlineMetrics(res *result, samples []usage, setups []time.Duration, records int64) {
	var cpu, alloc, heap, setup []float64
	for _, u := range samples {
		cpu = append(cpu, float64(u.cpu.Nanoseconds())/float64(records))
		alloc = append(alloc, float64(u.allocB)/float64(records))
		heap = append(heap, float64(u.peakLive)/mib)
	}
	for _, s := range setups {
		setup = append(setup, s.Seconds())
	}
	res.set("cpu_ns_per_record", median(cpu), "ns")
	res.set("alloc_bytes_per_record", median(alloc), "B")
	res.set("peak_heap_mb", median(heap), "MiB")
	res.set("setup_s", median(setup), "s")
	fmt.Printf("%d passes, %d set-ups (median %.3f ms)\n", len(samples), len(setups), 1e3*median(setup))
}

// offlineRate is an offline workload's records/s, the median over its
// passes.
func offlineRate(samples []usage, records int64) float64 {
	var rate []float64
	for _, u := range samples {
		rate = append(rate, float64(records)/u.wall.Seconds())
	}
	return median(rate)
}

// shardedTrace drives the detector shards through a dispatcher the
// benchmark owns, so each shard's detector calls are spans on the
// shard's lane: this is what core.ShardedDetector does inside the
// deployed terminal, where the calls cannot be timed from outside.
type shardedTrace struct {
	main    *lane
	lanes   []*lane
	dets    []*core.Detector
	disp    *dispatch.Dispatcher
	in      uint64
	open    []atomic.Int64
	peak    atomic.Int64
	evicted atomic.Int64 // sessions Advance closed
	before  atomic.Int64 // sessions open before each Advance
}

func newShardedTrace(tr *tracer, main *lane, cfg core.Config, n int) *shardedTrace {
	st := &shardedTrace{main: main, open: make([]atomic.Int64, n)}
	for i := 0; i < n; i++ {
		st.lanes = append(st.lanes, tr.lane(fmt.Sprintf("shard%d", i)))
		st.dets = append(st.dets, core.NewDetector(cfg))
	}
	st.disp = dispatch.New(dispatch.Config{Shards: n, Level: dispatch.CoarsestLevel(cfg.Levels)},
		func(shard int, recs []firewall.Record, mark time.Time) error {
			l, d := st.lanes[shard], st.dets[shard]
			if !mark.IsZero() {
				open := openSessions(d)
				l.begin("core.advance")
				d.Advance(mark)
				l.end()
				st.before.Add(open)
				st.evicted.Add(open - openSessions(d))
			}
			if len(recs) == 0 {
				return nil
			}
			l.begin("core.ingest")
			err := d.ProcessBatch(recs)
			l.end()
			st.open[shard].Store(openSessions(d))
			var total int64
			for i := range st.open {
				total += st.open[i].Load()
			}
			for {
				p := st.peak.Load()
				if total <= p || st.peak.CompareAndSwap(p, total) {
					break
				}
			}
			return err
		})
	return st
}

func (st *shardedTrace) Consume(r firewall.Record) error {
	return st.ConsumeBatch([]firewall.Record{r})
}

func (st *shardedTrace) ConsumeBatch(recs []firewall.Record) error {
	st.in += uint64(len(recs))
	st.main.begin("dispatch")
	err := st.disp.ProcessBatch(recs)
	st.main.end()
	return err
}

func (st *shardedTrace) advance(t time.Time) error {
	st.main.begin("dispatch")
	err := st.disp.Mark(t)
	st.main.end()
	return err
}

// Flush drains the shards (the wait is the dispatcher's) and finishes
// every detector.
func (st *shardedTrace) Flush() error {
	st.main.begin("dispatch.drain")
	err := st.disp.Close()
	st.main.end()
	st.main.begin("core.finish")
	for _, d := range st.dets {
		d.Finish()
	}
	st.main.end()
	return err
}

func (st *shardedTrace) scans() scanSet {
	out := scanSet{}
	for _, d := range st.dets {
		for l, s := range scansOf(d) {
			out[l] = append(out[l], s...)
		}
	}
	return out
}

// sampleQueue samples the dispatcher's queue depth every millisecond
// until stop is closed, and returns the mean.
func sampleQueue(disp *dispatch.Dispatcher, stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		var sum, n float64
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				if n == 0 {
					n = 1
				}
				out <- sum / n
				return
			case <-tk.C:
				sum += float64(disp.QueueDepth())
				n++
			}
		}
	}()
	return out
}

func traceCensus(r *run, path string, cfg core.Config, ref scanSet, records int64) (*result, error) {
	res := newLayerResult()
	res.Attempted = records

	m := startMeter()
	_, _, err := censusPass(path, cfg, shards, decodeWorkers, false)
	untraced := m.end()
	if err != nil {
		return nil, err
	}
	res.runtimeLayer(untraced, records)
	res.setLayer("records_per_s", offlineRate([]usage{untraced}, records))

	tr := newTracer(fmt.Sprintf("census-seed%d", r.seed))
	main := tr.lane("main")
	st := newShardedTrace(tr, main, cfg, shards)
	fs := pipeline.NewFilesSource(path)
	fs.SetDecodeWorkers(decodeWorkers)
	filter := firewall.NewArtifactFilter()
	artifact := &tracedSink{l: main, name: "firewall.artifact", next: pipeline.NewArtifactStage(filter, st)}
	// Records the filter holds back: in, minus passed on, minus dropped.
	var buffered uint64
	artifact.after = func() {
		if b := artifact.in - st.in - filter.Stats().PacketsDropped; b > buffered {
			buffered = b
		}
	}
	daysort := &tracedSink{l: main, name: "pipeline.daysort", next: pipeline.NewDaySort(artifact)}
	policy := &tracedSink{l: main, name: "firewall.policy",
		next: pipeline.Policy(firewall.DefaultCollectPolicy(), daysort)}
	src := &tracedSource{l: main, name: "firewall.decode", src: fs}

	stop := make(chan struct{})
	qmean := sampleQueue(st.disp, stop)
	m = startMeter()
	err = pipeline.New(src, policy).Run()
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

	per := func(name string, n uint64) float64 { return float64(tr.self(name).Nanoseconds()) / float64(n) }
	res.setLayer("firewall.decode.ns_per_record", per("firewall.decode", uint64(records)))
	res.setLayer("firewall.policy.ns_per_record", per("firewall.policy", policy.in))
	res.setLayer("firewall.artifact.ns_per_record", per("firewall.artifact", artifact.in))
	res.setLayer("firewall.artifact.kept_share", float64(st.in)/float64(artifact.in))
	res.setLayer("firewall.artifact.buffered_peak_records", float64(buffered))
	res.setLayer("dispatch.ns_per_record", per("dispatch", st.in))
	res.setLayer("dispatch.queue_depth_mean", <-qmean)
	res.setLayer("core.ingest.ns_per_record", per("core.ingest", st.in))
	res.setLayer("core.open_sessions_peak", float64(st.peak.Load()))
	if p := st.peak.Load(); p > 0 {
		res.setLayer("core.heap_bytes_per_session", float64(traced.peakLive)/float64(p))
	}
	res.setLayer("core.finish.ms", ms(tr.self("core.finish")))

	tr.printAttribution(os.Stdout, "census", traced.wall, untraced.wall)
	if err := tr.write(filepath.Join(r.traces, "census.csv")); err != nil {
		return nil, err
	}

	m = startMeter()
	_, _, err = censusPass(path, cfg, 1, 1, false)
	serial := m.end()
	if err != nil {
		return nil, err
	}
	fmt.Printf("single-threaded baseline (1 shard, 1 decoder): %.3f s, %.0f records/s (deployed: %.3f s, %.0f records/s)\n",
		serial.wall.Seconds(), float64(records)/serial.wall.Seconds(),
		untraced.wall.Seconds(), float64(records)/untraced.wall.Seconds())
	return res, nil
}
