package pipeline

// The engine terminal: the one implementation behind DetectorSink,
// ShardedSink, IDSSink and ShardedIDSSink. Each of those sinks is an
// engine field, a constructor that adapts the engine's methods, and a
// Result accessor; everything else — the batch path, the eviction
// cadence, the checkpoint cadence riding it, the metrics
// hooks and the lifecycle — lives here once.

import (
	"encoding/json"
	"io"
	"os"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/ids"
)

// EngineSink is a terminal that drives a detection engine:
// DetectorSink, ShardedSink, IDSSink or ShardedIDSSink, and so every
// Resumed.Sink. Only this package implements it. A struct embedding an
// EngineSink decorates the terminal (the serve daemon's pump does), and
// Builder.RunInto still applies its cadence, checkpoint and metrics
// settings to the terminal inside.
type EngineSink interface {
	Sink
	BatchSink
	Checkpointer
	// OnFire sets the callback run at every cadence fire point, after
	// the advance and any checkpoint and before the record at the fire
	// point is consumed. Its error aborts the run.
	OnFire(fn func(t time.Time) error)
	// Phase reports the cadence marks: the stream times of the last
	// eviction fire and of the last checkpoint cut.
	Phase() (advance, checkpoint time.Time)
	// Engine returns the wrapped engine: the sink's D or E field.
	Engine() any
	// Cut writes a checkpoint at mark into dir — any consistent cut,
	// not only a fire point — with the cadence phase in a ".marks"
	// sidecar beside it, which ResumeFile restores.
	Cut(dir string, mark time.Time) error
	term() *terminal
}

// engine adapts one detection engine to the terminal.
type engine struct {
	value    any
	batch    func(recs []firewall.Record) error
	advance  func(t time.Time) error
	finish   func() error
	snapshot func(w io.Writer, mark time.Time) error
}

// alerting is the surface ids.Engine and ids.ShardedEngine share.
type alerting interface {
	ProcessBatch(recs []firewall.Record)
	Tick(now time.Time)
	Flush() []ids.Alert
	Snapshot(w io.Writer, mark time.Time) error
}

// idsEngine adapts either IDS engine; finishing stores the flushed
// alerts in *alerts.
func idsEngine(e alerting, alerts *[]ids.Alert) engine {
	return engine{
		value:    e,
		batch:    func(recs []firewall.Record) error { e.ProcessBatch(recs); return nil },
		advance:  func(t time.Time) error { e.Tick(t); return nil },
		finish:   func() error { *alerts = e.Flush(); return nil },
		snapshot: e.Snapshot,
	}
}

// marks is a terminal's cadence phase: the stream times of its last
// eviction fire and of its last checkpoint cut. Cut saves it as a JSON
// ".marks" sidecar next to the checkpoint; ResumeFile reads it back.
type marks struct {
	Advance    time.Time `json:"advance"`
	Checkpoint time.Time `json:"checkpoint"`
}

// terminal is the engine terminal every EngineSink embeds.
//
// AdvanceEvery, when positive, runs the engine's eviction
// (Detector.Advance, Engine.Tick) on a stream-time cadence, so state
// idle past the timeout is released mid-stream instead of at Flush.
// For the detector this only bounds memory: a session closed early by
// Advance is exactly the session Finish would have closed. For the IDS
// the tick is the inline deployment's timer and decides when idle
// candidates close. On the sharded engines the horizon reaches every
// shard through the dispatcher, ordered with the record stream, so
// output is identical at any shard count.
//
// CheckpointEvery and CheckpointDir (Builder.CheckpointEvery) snapshot
// the engine at consistent stream-time cuts. With an eviction cadence
// the checkpoint rides it: a cut is taken at the first eviction fire at
// least CheckpointEvery past the previous cut, right after the advance.
// Without one the checkpoint cadence fires on its own.
//
// Cadences fire before the record that reaches them is consumed
// (batches are split at fire points), so batch size never changes where
// an engine advances or a checkpoint cuts.
type terminal struct {
	AdvanceEvery    time.Duration
	CheckpointEvery time.Duration
	CheckpointDir   string

	eng       engine
	phase     marks
	met       *Metrics
	afterFire func(t time.Time) error
	flushed   bool
	err       error
	// one is Consume's single-record batch.
	one [1]firewall.Record
}

// due is the one cadence decision: whether a cadence of period every,
// last fired at *last, fires at stream time t. The first record only
// arms the mark; the cadence then fires at the first record at or past
// mark+every and moves the mark to it. A non-positive period never
// fires.
func due(last *time.Time, every time.Duration, t time.Time) bool {
	if every <= 0 {
		return false
	}
	if last.IsZero() || t.Sub(*last) >= every {
		fire := !last.IsZero()
		*last = t
		return fire
	}
	return false
}

// checkpointing reports whether the checkpoint cadence is configured.
func (t *terminal) checkpointing() bool {
	return t.CheckpointEvery > 0 && t.CheckpointDir != ""
}

// fires reports whether the terminal's driving cadence fires at at:
// the eviction cadence when one is set, else the checkpoint cadence.
func (t *terminal) fires(at time.Time) bool {
	if t.AdvanceEvery > 0 {
		return due(&t.phase.Advance, t.AdvanceEvery, at)
	}
	return t.checkpointing() && due(&t.phase.Checkpoint, t.CheckpointEvery, at)
}

// fire runs one cadence point: advance, checkpoint when due, then the
// after-fire callback. Cutting after the advance keeps the snapshot
// inclusive of the eviction and the eviction mark equal to the
// snapshot mark, which is what lets Resume restore the phase.
func (t *terminal) fire(at time.Time) error {
	cut := t.AdvanceEvery <= 0 // fires found the checkpoint cadence due
	if !cut {
		if err := t.eng.advance(at); err != nil {
			return err
		}
		t.met.advanceFired(at)
		cut = t.checkpointing() && due(&t.phase.Checkpoint, t.CheckpointEvery, at)
	}
	if cut {
		if err := t.write(t.CheckpointDir, at, false); err != nil {
			return err
		}
	}
	if t.afterFire != nil {
		return t.afterFire(at)
	}
	return nil
}

// Consume implements RecordSink as a batch of one.
func (t *terminal) Consume(r firewall.Record) error {
	t.one[0] = r
	return t.ConsumeBatch(t.one[:])
}

// ConsumeBatch implements BatchSink. A record that reaches a fire point
// first fires the cadence, then contributes its own activity, so the
// batch is split at every fire point.
func (t *terminal) ConsumeBatch(recs []firewall.Record) error {
	if t.AdvanceEvery <= 0 && !t.checkpointing() {
		return t.eng.batch(recs)
	}
	start := 0
	for i := range recs {
		if !t.fires(recs[i].Time) {
			continue
		}
		if start < i {
			if err := t.eng.batch(recs[start:i]); err != nil {
				return err
			}
			start = i
		}
		if err := t.fire(recs[i].Time); err != nil {
			return err
		}
	}
	return t.eng.batch(recs[start:])
}

// Flush implements RecordSink, finalizing the engine exactly once;
// repeat calls re-report the first outcome.
func (t *terminal) Flush() error {
	if !t.flushed {
		t.flushed = true
		t.err = t.eng.finish()
	}
	return t.err
}

// Close implements Sink.
func (t *terminal) Close() error { return t.Flush() }

// Checkpoint implements Checkpointer. The sharded engines snapshot
// through a dispatcher barrier, so all shards cut as one.
func (t *terminal) Checkpoint(w io.Writer, mark time.Time) error {
	return t.eng.snapshot(w, mark)
}

// OnFire implements EngineSink.
func (t *terminal) OnFire(fn func(t time.Time) error) { t.afterFire = fn }

// Phase implements EngineSink.
func (t *terminal) Phase() (advance, checkpoint time.Time) {
	return t.phase.Advance, t.phase.Checkpoint
}

// Engine implements EngineSink.
func (t *terminal) Engine() any { return t.eng.value }

// term gives RunInto, Resume and ResumeFile the terminal behind an
// EngineSink, through any decorator embedding it.
func (t *terminal) term() *terminal { return t }

// Cut writes a checkpoint at mark into dir and saves the cadence phase
// beside it in a ".marks" sidecar, so a run resumed with ResumeFile
// keeps both cadences in phase even though mark is not a fire point.
// The serve daemon cuts one at its last record + 1ns when it stops.
// The phase itself is left unchanged.
func (t *terminal) Cut(dir string, mark time.Time) error {
	return t.write(dir, mark, true)
}

// write is WriteCheckpoint instrumented through the metrics bundle,
// optionally with the phase sidecar.
func (t *terminal) write(dir string, mark time.Time, sidecar bool) error {
	start := time.Now()
	err := WriteCheckpoint(dir, t, mark)
	if err == nil && sidecar {
		var b []byte
		if b, err = json.Marshal(t.phase); err == nil {
			err = os.WriteFile(CheckpointPath(dir, mark)+".marks", b, 0o644)
		}
	}
	t.met.checkpointDone(time.Since(start), err)
	return err
}

// readMarks loads a checkpoint's phase sidecar; ok is false when there
// is none (a cadence fire-point cut, whose phase is its mark).
func readMarks(path string) (m marks, ok bool) {
	b, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(b, &m) != nil {
		return marks{}, false
	}
	return m, true
}
