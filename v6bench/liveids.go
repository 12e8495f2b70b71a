package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/metrics"
	"v6scan/internal/pipeline"
	"v6scan/internal/serve"
)

// The live-ids workload is the operator's view: the v6scand runtime
// (serve.Daemon: 2 IDS shards, a one-minute tick, blocklist on) tails
// a log the benchmark writes. It warm-starts from a checkpoint cut at
// census week liveA, catches up on the backlog [liveA, liveB), and then
// an open-loop generator appends the following records at liveRate
// records/s, one SSE client receiving alerts and one HTTP client
// polling /api/state.
const (
	liveA        = 8  // census week the warm-start checkpoint is cut at
	liveB        = 12 // census week the live phase starts at
	liveRate     = 80_000
	livePoll     = 10 * time.Millisecond
	liveLimit    = 500 * time.Millisecond // alert latency limit
	liveTick     = time.Minute
	statePollGap = 20 * time.Millisecond
	catchUps     = 5 // catch-up phases per run, the last one continuing live
	resumeTrials = 7 // resume-only set-up trials before each catch-up
	// liveWindow splits the live phase for the p99: each window's 99th
	// percentile has over ten samples beyond it, and the median of the
	// windows is not set by one stall.
	liveWindow = 5 * time.Second
)

// liveInput is the census stream cut into the workload's phases, with
// the alerts the offline IDS raises on it.
type liveInput struct {
	path             string // the full census log
	idxA, idxB, idxC int64  // record indices of the phase cuts
	preCut, expected []ids.Alert
	warmStart        string // the checkpoint cut at week liveA
	cfg              ids.Config
}

var errStop = errors.New("stop")

// eachBatch decodes records [from, to) of a log in batches and calls fn
// on each; every decode is a span on l.
func eachBatch(path string, from, to int64, l *lane, fn func([]firewall.Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := int64(firewall.RecordWireSize)
	raw := make([]byte, pipeline.DefaultBatchSize*w)
	var recs []firewall.Record
	for off := from; off < to; off += pipeline.DefaultBatchSize {
		n := min(pipeline.DefaultBatchSize, to-off)
		if _, err := f.ReadAt(raw[:n*w], off*w); err != nil {
			return err
		}
		l.begin("firewall.decode")
		recs, err = firewall.DecodeChunk(raw[:n*w], recs[:0])
		l.end()
		if err != nil {
			return err
		}
		if err := fn(recs); err != nil {
			return err
		}
	}
	return nil
}

// feedIDS drives an IDS engine over time-ordered records the way the
// daemon's pump does, for the traced replay, where the calls must be
// timed one by one: at each one-minute cadence point it ingests what
// precedes the point, ticks, and drains the alerts the tick fired.
// Calls are spans on l. It returns the number of ticks.
func feedIDS(e *ids.Engine, lastTick *time.Time, recs []firewall.Record, l *lane, alerts *[]ids.Alert) int {
	ticks, start := 0, 0
	for i := range recs {
		if !due(lastTick, liveTick, recs[i].Time) {
			continue
		}
		l.begin("ids.ingest")
		e.ProcessBatch(recs[start:i])
		l.end()
		start = i
		l.begin("ids.tick")
		e.Tick(recs[i].Time)
		l.end()
		ticks++
		*alerts = append(*alerts, e.Drain()...)
	}
	l.begin("ids.ingest")
	e.ProcessBatch(recs[start:])
	l.end()
	return ticks
}

// liveReference finds the phase cuts in the census log and runs the
// library's offline IDS terminal up to the end of the live phase: the
// IDSSink with a one-minute AdvanceEvery cadence that
// From(records).AdvanceEvery(1m).IDS(cfg, 1) builds, fed batch by
// batch. IDS() would return the tick alerts and the end-of-stream
// flush merged and sorted together; the daemon discards the flush by
// design, so the reference drains the tick alerts from the engine
// instead, once at the checkpoint cut and once at the end, and never
// flushes.
func liveReference(path string, records, liveRecords int64) (*liveInput, error) {
	in := &liveInput{path: path, cfg: ids.DefaultConfig(), idxA: -1, idxB: -1}
	cutA := censusStart.Add(liveA * 7 * 24 * time.Hour)
	cutB := censusStart.Add(liveB * 7 * 24 * time.Hour)
	var idx int64
	err := eachBatch(path, 0, records, nil, func(recs []firewall.Record) error {
		for _, r := range recs {
			if in.idxA < 0 && !r.Time.Before(cutA) {
				in.idxA = idx
			}
			if !r.Time.Before(cutB) {
				in.idxB = idx
				return errStop
			}
			idx++
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		return nil, fmt.Errorf("census stream ends before week %d (%v)", liveB, err)
	}
	in.idxC = min(in.idxB+liveRecords, records)

	sink := pipeline.NewIDSSink(ids.New(in.cfg))
	sink.AdvanceEvery = liveTick
	if err := eachBatch(path, 0, in.idxA, nil, sink.ConsumeBatch); err != nil {
		return nil, err
	}
	in.preCut = sink.E.Drain()
	if err := eachBatch(path, in.idxA, in.idxC, nil, sink.ConsumeBatch); err != nil {
		return nil, err
	}
	in.expected = sink.E.Drain()
	return in, nil
}

// sameAlerts compares two alert lists as multisets: the reference
// drains once per phase, the replay once per tick, so the orders differ.
func sameAlerts(a, b []ids.Alert) bool {
	if len(a) != len(b) {
		return false
	}
	keys := func(as []ids.Alert) []string {
		k := make([]string, len(as))
		for i, x := range as {
			k[i] = alertKey(x)
		}
		sort.Strings(k)
		return k
	}
	return slices.Equal(keys(a), keys(b))
}

// alertKey identifies an alert by every field the SSE feed carries.
func alertKey(a ids.Alert) string {
	return sseAlert{Prefix: a.Prefix.String(), Level: a.Level.String(), EstimatedDsts: a.EstimatedDsts,
		Packets: a.Packets, First: a.First, Last: a.Last, Escalated: a.Escalated}.key()
}

// sseAlert is the wire shape of one /api/alerts/stream event.
type sseAlert struct {
	Seq           uint64    `json:"seq"`
	Prefix        string    `json:"prefix"`
	Level         string    `json:"level"`
	EstimatedDsts uint64    `json:"estimated_dsts"`
	Packets       uint64    `json:"packets"`
	First         time.Time `json:"first"`
	Last          time.Time `json:"last"`
	Escalated     bool      `json:"escalated"`
}

func (a sseAlert) key() string {
	return fmt.Sprintf("%s|%s|%d|%d|%d|%d|%t", a.Prefix, a.Level, a.EstimatedDsts, a.Packets,
		a.First.UnixNano(), a.Last.UnixNano(), a.Escalated)
}

func daemonConfig(work, logPath, ckdir string) serve.Config {
	return serve.Config{
		LogPath:       logPath,
		Shards:        shards,
		IDS:           ids.DefaultConfig(),
		AdvanceEvery:  liveTick,
		CheckpointDir: ckdir,
		Poll:          livePoll,
		BlocklistPath: filepath.Join(work, "blocklist.txt"),
		// Every alert of a run stays pageable and no SSE client drops.
		AlertBacklog: 1 << 17,
		SSEBuffer:    1 << 17,
	}
}

// appendRecords appends records [from, to) of the log at src to dst.
func appendRecords(src, dst string, from, to int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := int64(firewall.RecordWireSize)
	if _, err := io.Copy(out, io.NewSectionReader(in, from*w, (to-from)*w)); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// prepareCheckpoint runs the daemon over weeks [0, liveA) and stops
// it, which cuts the warm-start checkpoint, then appends the backlog
// [liveA, liveB) to the tailed log.
func prepareCheckpoint(in *liveInput, work, logPath, ckdir string) error {
	if err := appendRecords(in.path, logPath, 0, in.idxA); err != nil {
		return err
	}
	d, err := serve.NewDaemon(daemonConfig(work, logPath, ckdir))
	if err != nil {
		return err
	}
	// A cancelled daemon drains what is already in the log, then cuts
	// its final checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Run(ctx); err != nil {
		return err
	}
	if got := d.State().Records; got != uint64(in.idxA) {
		return fmt.Errorf("warm-start daemon consumed %d records, want %d", got, in.idxA)
	}
	path, err := pipeline.LatestCheckpoint(ckdir)
	if err != nil {
		return err
	}
	in.warmStart = path
	return appendRecords(in.path, logPath, in.idxA, in.idxB)
}

// resumeTrial times what a resuming daemon does until its pump
// consumes its first records after the cut — NewDaemon with Resume,
// then, in Run, the checkpoint sweep, restore and sidecar read and the
// tail's replay skip over the log prefix — and stops it.
func resumeTrial(cfg serve.Config) (time.Duration, error) {
	cfg.Resume = true
	t := time.Now()
	d, err := serve.NewDaemon(cfg)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()
	at, ok := firstConsumed(d)
	cancel()
	if err := <-runErr; err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("resumed daemon consumed no record within 30 s")
	}
	return at.Sub(t), nil
}

// firstConsumed waits until the daemon's pump has consumed its first
// records after the cut. The pump publishes its state at its first tick
// fire or at the end of its first batch, whichever comes first; until
// then the published record count (the source's, skipped prefix
// included) stays 0. The poll is fine enough for a set-up time of
// milliseconds.
func firstConsumed(d *serve.Daemon) (time.Time, bool) {
	end := time.Now().Add(30 * time.Second)
	for d.State().Records == 0 {
		if time.Now().After(end) {
			return time.Time{}, false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return time.Now(), true
}

// liveStats is what one daemon run observed.
type liveStats struct {
	setup                             time.Duration // as resumeTrial times it
	start, caughtUp, t0, genEnd, done time.Time
	u                                 usage
	arrivals                          map[string]time.Time
	late, lag, api                    []float64
	candPeak                          float64
	dropped                           uint64
	fires                             float64
}

// sched is when the live generator was due to append live record i.
func (s *liveStats) sched(i int64) time.Time {
	return s.t0.Add(time.Duration(float64(i) / liveRate * float64(time.Second)))
}

// waitFor polls cond every millisecond until it holds or the timeout
// passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	end := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(end) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// liveRun runs the resuming daemon through catch-up and the live
// phase.
func liveRun(in *liveInput, cfg serve.Config, catchUpOnly bool) (*liveStats, error) {
	st := &liveStats{arrivals: map[string]time.Time{}}
	reg := metrics.NewRegistry()
	cfg.Registry = reg
	cfg.Resume = true
	t := time.Now()
	d, err := serve.NewDaemon(cfg)
	if err != nil {
		return nil, err
	}
	st.setup = time.Since(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: d.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/api/alerts/stream")
	if err != nil {
		return nil, err
	}
	var (
		mu       sync.Mutex
		received atomic.Int64
		readers  sync.WaitGroup
	)
	readers.Add(1)
	go func() {
		defer readers.Done()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte("data: ")) {
				continue
			}
			at := time.Now()
			var a sseAlert
			if json.Unmarshal(line[len("data: "):], &a) != nil {
				continue
			}
			mu.Lock()
			if _, ok := st.arrivals[a.key()]; !ok {
				st.arrivals[a.key()] = at
			}
			mu.Unlock()
			received.Add(1)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	m := startMeter()
	st.start = time.Now()
	go func() { runErr <- d.Run(ctx) }()
	stopRun := func() error {
		cancel()
		err := <-runErr
		srv.Close()
		readers.Wait()
		return err
	}
	first, ok := firstConsumed(d)
	if !ok {
		stopRun()
		return nil, fmt.Errorf("resumed daemon consumed no record within 30 s")
	}
	st.setup += first.Sub(st.start)
	// The published State counts records at ticks and throttled
	// refreshes, so after the last batch it can stay behind; the
	// pipeline's records counter moves with every batch but is only
	// readable through the exposition, which is too costly to poll
	// every millisecond.
	var lastProm time.Time
	consumed := func() int64 {
		n := int64(d.State().Records)
		if time.Since(lastProm) >= 50*time.Millisecond {
			lastProm = time.Now()
			var b strings.Builder
			reg.WritePrometheus(&b)
			n = max(n, int64(promValue(b.String(), "v6scan_pipeline_records_total")))
		}
		return n
	}
	if !waitFor(60*time.Second, func() bool { return consumed() >= in.idxB }) {
		stopRun()
		return nil, fmt.Errorf("daemon did not catch up on the backlog within 60 s")
	}
	st.caughtUp = time.Now()
	if catchUpOnly {
		st.u = m.end()
		return st, stopRun()
	}

	// Live phase: an open loop appends records on a fixed schedule and
	// stamps each with its scheduled time.
	st.t0 = time.Now().Add(20 * time.Millisecond)
	var written atomic.Int64
	var wg sync.WaitGroup
	stopObs := make(chan struct{})
	genErr := make(chan error, 1)
	go func() { genErr <- st.generate(in, cfg.LogPath, &written) }()
	wg.Add(2)
	go func() {
		defer wg.Done()
		st.observe(d, in, &written, stopObs)
	}()
	go func() {
		defer wg.Done()
		st.pollState(base, stopObs)
	}()
	err = <-genErr
	st.genEnd = time.Now()
	if err == nil && !waitFor(30*time.Second, func() bool { return consumed() >= in.idxC }) {
		err = fmt.Errorf("daemon did not consume the live phase within 30 s")
	}
	if err != nil {
		close(stopObs)
		wg.Wait()
		stopRun()
		return nil, err
	}
	waitFor(2*time.Second, func() bool { return received.Load() >= int64(len(in.expected)) })
	st.done = time.Now()
	st.u = m.end()
	close(stopObs)
	wg.Wait()
	var prom strings.Builder
	reg.WritePrometheus(&prom)
	st.fires = promValue(prom.String(), "v6scan_pipeline_advances_total")
	return st, stopRun()
}

// generate appends live records [idxB, idxC) to the tailed log as they
// come due at liveRate, and records how late each write landed
// relative to the schedule of its oldest record.
func (st *liveStats) generate(in *liveInput, logPath string, written *atomic.Int64) error {
	src, err := os.Open(in.path)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := int64(firewall.RecordWireSize)
	total := in.idxC - in.idxB
	buf := make([]byte, 64<<10*w)
	time.Sleep(time.Until(st.t0))
	var n int64
	for n < total {
		due := min(int64(time.Since(st.t0).Seconds()*liveRate)+1, total, n+64<<10)
		if due <= n {
			time.Sleep(time.Until(st.sched(n)))
			continue
		}
		b := buf[:(due-n)*w]
		if _, err := src.ReadAt(b, (in.idxB+n)*w); err != nil {
			dst.Close()
			return err
		}
		if _, err := dst.Write(b); err != nil {
			dst.Close()
			return err
		}
		st.late = append(st.late, ms(time.Since(st.sched(n))))
		n = due
		written.Store(n)
		time.Sleep(time.Millisecond)
	}
	return dst.Close()
}

// observe samples, every 5 ms, how far the tail is behind the appended
// log, and the IDS working set the daemon publishes.
func (st *liveStats) observe(d *serve.Daemon, in *liveInput, written *atomic.Int64, stop <-chan struct{}) {
	tk := time.NewTicker(5 * time.Millisecond)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
		}
		s := d.State()
		consumed := s.Tail.Offset/firewall.RecordWireSize - in.idxB
		var lag float64
		if consumed < written.Load() {
			lag = ms(time.Since(st.sched(max(consumed, 0))))
		}
		st.lag = append(st.lag, lag)
		var cand float64
		for _, n := range s.Candidates {
			cand += float64(n)
		}
		st.candPeak = max(st.candPeak, cand)
		st.dropped = s.DroppedCandidates
	}
}

// pollState is the HTTP client reading /api/state beside the ingest.
func (st *liveStats) pollState(base string, stop <-chan struct{}) {
	tk := time.NewTicker(statePollGap)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
		}
		t := time.Now()
		resp, err := http.Get(base + "/api/state")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		st.api = append(st.api, ms(time.Since(t)))
	}
}

// promValue reads one unlabelled sample from Prometheus text.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var f float64
			fmt.Sscan(v, &f)
			return f
		}
	}
	return 0
}

// recordTimes reads the timestamps of records [from, to).
func recordTimes(path string, from, to int64) ([]time.Time, error) {
	out := make([]time.Time, 0, to-from)
	err := eachBatch(path, from, to, nil, func(recs []firewall.Record) error {
		for _, r := range recs {
			out = append(out, r.Time)
		}
		return nil
	})
	return out, err
}

// liveCheck compares the daemon's alerts with the offline reference
// and measures each live alert's latency: from the scheduled append of
// the first record whose stream time exceeds the alert's Last plus the
// IDS timeout (the record that lets a tick close it) to its arrival on
// the SSE stream.
func liveCheck(in *liveInput, st *liveStats) (lat []float64, p99 float64, attempted, failed int64, err error) {
	pre := map[string]bool{}
	for _, a := range in.preCut {
		pre[alertKey(a)] = true
	}
	want := map[string]bool{}
	for _, a := range in.expected {
		want[alertKey(a)] = true
	}
	// The alerts of the fire the checkpoint was cut at may be published
	// again on resume (at-least-once); those are not new alerts.
	var extra []string
	got := 0
	for k := range st.arrivals {
		if pre[k] {
			continue
		}
		got++
		if !want[k] {
			extra = append(extra, k)
		}
	}
	times, err := recordTimes(in.path, in.idxA, in.idxC)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	missing := 0
	// Latencies are grouped into windows of the live phase by the
	// schedule of their closing record.
	span := float64(in.idxC - in.idxB)
	windows := make([][]float64, max(1, int(span/liveRate/liveWindow.Seconds())))
	for _, a := range in.expected {
		at, ok := st.arrivals[alertKey(a)]
		if !ok {
			missing++
		}
		thr := a.Last.Add(in.cfg.Timeout)
		j := int64(sort.Search(len(times), func(i int) bool { return times[i].After(thr) })) + in.idxA
		if j < in.idxB || j >= in.idxC {
			continue // closed during catch-up
		}
		attempted++
		if !ok {
			failed++
			continue
		}
		l := at.Sub(st.sched(j - in.idxB))
		lat = append(lat, ms(l))
		w := int(float64(j-in.idxB) / span * float64(len(windows)))
		windows[w] = append(windows[w], ms(l))
		if l > liveLimit {
			failed++
		}
	}
	var wp99 []float64
	for _, w := range windows {
		if len(w) > 0 {
			wp99 = append(wp99, quantile(w, 0.99))
		}
	}
	p99 = median(wp99)
	if missing > 0 || len(extra) > 0 {
		sort.Strings(extra)
		return lat, p99, attempted, failed, fmt.Errorf("%w: daemon published %d new alerts, reference %d: %d missing, %d unexpected %v",
			errMismatch, got, len(in.expected), missing, len(extra), extra[:min(len(extra), 3)])
	}
	return lat, p99, attempted, failed, nil
}

func runLiveIDS(r *run) (*result, error) {
	census := filepath.Join(r.work, "census.log")
	t := time.Now()
	_, _, records, err := genCensus(r.seed, census)
	if err != nil {
		return nil, err
	}
	in, err := liveReference(census, records, int64(liveRate*r.seconds.Seconds()))
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(r.work, "live.log")
	ckdir := filepath.Join(r.work, "ckpt")
	if err := prepareCheckpoint(in, r.work, logPath, ckdir); err != nil {
		return nil, err
	}
	fmt.Printf("prepared in %.1f s: warm start at record %d (week %d), backlog to %d (week %d), live to %d; %d alerts expected after the cut\n",
		time.Since(t).Seconds(), in.idxA, liveA, in.idxB, liveB, in.idxC, len(in.expected))
	cfg := daemonConfig(r.work, logPath, ckdir)

	// Each daemon resumes from its own copy of the warm-start
	// checkpoint: a stopping daemon cuts a final checkpoint of its own.
	trialDir := func(name string) (string, error) {
		dir := filepath.Join(r.work, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
		for _, name := range []string{in.warmStart, in.warmStart + ".marks"} {
			b, err := os.ReadFile(name)
			if err != nil {
				return "", err
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), b, 0o644); err != nil {
				return "", err
			}
		}
		return dir, nil
	}
	// Resume-only trials tail a log that ends one batch past the cut,
	// so a stopping daemon has little left to drain.
	trialCfg := cfg
	trialCfg.LogPath = filepath.Join(r.work, "resume.log")
	if err := appendRecords(in.path, trialCfg.LogPath, 0, min(in.idxA+pipeline.DefaultBatchSize, in.idxB)); err != nil {
		return nil, err
	}

	// The catch-up rate is the median of several catch-ups, the last of
	// which continues into the live phase. Before each, a block of
	// resume-only trials runs, each from a collected heap as the offline
	// set-up trials do; setup_s is the median over them and the
	// catch-ups' own resumes.
	var rates, setups []float64
	var st *liveStats
	for i := 0; i < catchUps; i++ {
		for j := 0; j < resumeTrials && !r.trace; j++ {
			if trialCfg.CheckpointDir, err = trialDir("resume"); err != nil {
				return nil, err
			}
			runtime.GC()
			d, err := resumeTrial(trialCfg)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			if err := os.RemoveAll(trialCfg.CheckpointDir); err != nil {
				return nil, err
			}
		}
		if cfg.CheckpointDir, err = trialDir(fmt.Sprintf("ckpt-%d", i)); err != nil {
			return nil, err
		}
		st, err = liveRun(in, cfg, i < catchUps-1)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(in.idxB-in.idxA)/st.caughtUp.Sub(st.start).Seconds())
		setups = append(setups, st.setup.Seconds())
		if err := os.RemoveAll(cfg.CheckpointDir); err != nil {
			return nil, err
		}
	}
	lat, p99, attempted, failed, cerr := liveCheck(in, st)
	if cerr != nil && !errors.Is(cerr, errMismatch) {
		return nil, cerr
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no alert closed during the live phase")
	}
	live := in.idxC - in.idxB
	ingested := in.idxC - in.idxA
	fmt.Printf("set-up: %d resumes, median %.3f ms (catch-up resumes: %.3f ms)\n",
		len(setups), 1e3*median(setups), 1e3*median(setups[len(setups)-catchUps:]))
	fmt.Printf("catch-up: %d records, %d times, median %.0f records/s (min %.0f, max %.0f)\n",
		in.idxB-in.idxA, len(rates), median(rates), quantile(rates, 0), quantile(rates, 1))
	fmt.Printf("live: offered %d records/s, achieved %.0f records/s over %.3f s; generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
		liveRate, float64(live)/st.genEnd.Sub(st.t0).Seconds(), st.genEnd.Sub(st.t0).Seconds(),
		median(st.late), quantile(st.late, 0.99), quantile(st.late, 1))
	fmt.Printf("alerts: %d live of %d expected after the cut; latency p50 %.3f ms, p99 %.3f ms (median of the p99s of %v windows; whole run %.3f ms), max %.3f ms (limit %v); tail lag p99 %.3f ms; /api/state p99 %.3f ms\n",
		attempted, len(in.expected), median(lat), p99, liveWindow, quantile(lat, 0.99), quantile(lat, 1), liveLimit,
		quantile(st.lag, 0.99), quantile(st.api, 0.99))

	if r.trace {
		res := newLayerResult()
		res.setLayer("records_per_s", median(rates))
		res.setLayer("alert_latency_p50_ms", median(lat))
		res.setLayer("alert_latency_p99_ms", p99)
		res.Attempted, res.Failed = attempted, failed
		res.Correct = cerr == nil
		res.runtimeLayer(st.u, ingested)
		res.setLayer("pipeline.tail.lag_ms_p99", quantile(st.lag, 0.99))
		res.setLayer("pipeline.cadence.fires", st.fires)
		res.setLayer("serve.api_state_ms_p99", quantile(st.api, 0.99))
		res.setLayer("loadgen.late_ms_p99", quantile(st.late, 0.99))
		res.setLayer("ids.candidates_peak", st.candPeak)
		res.setLayer("ids.dropped_candidates", float64(st.dropped))
		res.setLayer("ids.alerts", float64(len(st.arrivals)))
		if err := traceLiveReplay(r, in, res, st.done.Sub(st.start)); err != nil {
			return res, err
		}
		return res, cerr
	}

	res := &result{Correct: cerr == nil, Attempted: attempted, Failed: failed}
	res.set("cpu_ns_per_record", float64(st.u.cpu.Nanoseconds())/float64(ingested), "ns")
	res.set("alloc_bytes_per_record", float64(st.u.allocB)/float64(ingested), "B")
	res.set("peak_heap_mb", float64(st.u.peakLive)/mib, "MiB")
	res.set("setup_s", median(setups), "s")
	return res, cerr
}

// liveReplay drives a restored IDS engine directly over the records the
// daemon ingested after the cut, with the daemon's tick cadence, so its
// calls can be timed: the daemon's pump hides them. With l nil it runs
// untraced.
func liveReplay(in *liveInput, l *lane) (time.Duration, []ids.Alert, int, error) {
	t := time.Now()
	l.begin("checkpoint.restore")
	res, err := pipeline.ResumeFile(in.warmStart, 1)
	l.end()
	if err != nil {
		return 0, nil, 0, err
	}
	e := res.Sink.(*pipeline.IDSSink).E
	// A shutdown cut carries the cadence phase in its sidecar.
	lastTick := res.Mark
	if b, err := os.ReadFile(in.warmStart + ".marks"); err == nil {
		var m struct{ Advance time.Time }
		if err := json.Unmarshal(b, &m); err != nil {
			return 0, nil, 0, err
		}
		lastTick = m.Advance
	}
	var alerts []ids.Alert
	ticks := 0
	err = eachBatch(in.path, in.idxA, in.idxC, l, func(recs []firewall.Record) error {
		ticks += feedIDS(e, &lastTick, recs, l, &alerts)
		return nil
	})
	return time.Since(t), alerts, ticks, err
}

func traceLiveReplay(r *run, in *liveInput, res *result, daemonWall time.Duration) error {
	untraced, alerts, _, err := liveReplay(in, nil)
	if err != nil {
		return err
	}
	if !sameAlerts(alerts, in.expected) {
		res.Correct = false
		return fmt.Errorf("%w: replay raised %d alerts, reference %d", errMismatch, len(alerts), len(in.expected))
	}
	tr := newTracer(fmt.Sprintf("live-ids-seed%d", r.seed))
	main := tr.lane("main")
	traced, _, ticks, err := liveReplay(in, main)
	if err != nil {
		return err
	}
	n := float64(in.idxC - in.idxA)
	res.setLayer("firewall.decode.ns_per_record", float64(tr.self("firewall.decode").Nanoseconds())/n)
	res.setLayer("ids.ingest.ns_per_record", float64(tr.self("ids.ingest").Nanoseconds())/n)
	res.setLayer("ids.tick.ns_per_call", float64(tr.self("ids.tick").Nanoseconds())/float64(ticks))
	res.setLayer("checkpoint.restore.ms", ms(tr.self("checkpoint.restore")))
	tr.printAttribution(os.Stdout, "live-ids (serial replay of the daemon's records)", traced, untraced)
	fmt.Printf("daemon wall over catch-up and live phase %.2f ms; the serial replay's untraced wall is %.1f%% of it\n",
		ms(daemonWall), 100*float64(untraced)/float64(daemonWall))
	return tr.write(filepath.Join(r.traces, "live-ids.csv"))
}
