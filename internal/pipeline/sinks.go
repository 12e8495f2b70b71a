package pipeline

import (
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
)

// Every built-in terminal sink implements the unified Sink lifecycle:
// Flush finalizes results exactly once (repeat calls are no-ops),
// Close implies Flush, is idempotent, and releases held resources —
// so the builder's RunInto can tear any terminal down uniformly, even
// after a mid-stream error. Results are read through each sink's typed
// Result accessor, valid after Flush.

// SinkFunc adapts a record function to RecordSink; Flush is a no-op.
type SinkFunc func(r firewall.Record) error

// Consume implements RecordSink.
func (f SinkFunc) Consume(r firewall.Record) error { return f(r) }

// ConsumeBatch implements BatchSink so function sinks (collectors,
// Discard) terminate a batch chain without breaking continuity.
func (f SinkFunc) ConsumeBatch(recs []firewall.Record) error {
	for i := range recs {
		if err := f(recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements RecordSink.
func (f SinkFunc) Flush() error { return nil }

// Close implements Sink.
func (f SinkFunc) Close() error { return nil }

// Collector adapts an error-free accumulator (the analysis package's
// HeatmapCollector.Add, DNSCollector.Add, …) to RecordSink.
func Collector(add func(r firewall.Record)) RecordSink {
	return SinkFunc(func(r firewall.Record) error {
		add(r)
		return nil
	})
}

// Discard drops every record; useful as a Tee branch terminator.
var Discard RecordSink = SinkFunc(func(firewall.Record) error { return nil })

// DetectorSink terminates a pipeline in the multi-aggregation scan
// detector. Flush calls Finish, after which the detector's scan
// accessors are valid. The embedded terminal supplies the batch path,
// the AdvanceEvery and checkpoint cadences and the lifecycle.
type DetectorSink struct {
	D *core.Detector
	terminal
}

// NewDetectorSink wraps a detector.
func NewDetectorSink(d *core.Detector) *DetectorSink {
	s := &DetectorSink{D: d}
	s.eng = engine{
		value:    d,
		batch:    d.ProcessBatch,
		advance:  func(t time.Time) error { d.Advance(t); return nil },
		finish:   func() error { d.Finish(); return nil },
		snapshot: d.Snapshot,
	}
	return s
}

// Result returns the finished detector. Valid after Flush.
func (s *DetectorSink) Result() *core.Detector { return s.D }

// ShardedSink terminates a pipeline in the sharded detector; Flush
// calls Finish, which merges the shards and surfaces any worker error.
// Its eviction horizon reaches every shard, even one whose own records
// lag the global clock, so the merged output is byte-identical to the
// unsharded detector's.
type ShardedSink struct {
	D *core.ShardedDetector
	terminal
}

// NewShardedSink wraps a sharded detector.
func NewShardedSink(d *core.ShardedDetector) *ShardedSink {
	s := &ShardedSink{D: d}
	s.eng = engine{value: d, batch: d.ProcessBatch, advance: d.Advance,
		finish: d.Finish, snapshot: d.Snapshot}
	return s
}

// Result returns the merged single-detector view of all shards — the
// same object the analysis builders consume. Valid after Flush.
func (s *ShardedSink) Result() *core.Detector { return s.D.Merged() }

// MAWISink terminates a pipeline in a capture-window MAWI detector;
// Flush stores the window's scans in Scans.
type MAWISink struct {
	D       *core.MAWIDetector
	Scans   []core.MAWIScan
	flushed bool
}

// NewMAWISink wraps a MAWI detector.
func NewMAWISink(d *core.MAWIDetector) *MAWISink { return &MAWISink{D: d} }

// Consume implements RecordSink.
func (s *MAWISink) Consume(r firewall.Record) error {
	s.D.Process(r)
	return nil
}

// ConsumeBatch implements BatchSink.
func (s *MAWISink) ConsumeBatch(recs []firewall.Record) error {
	for i := range recs {
		s.D.Process(recs[i])
	}
	return nil
}

// Flush implements RecordSink, finalizing the window exactly once.
func (s *MAWISink) Flush() error {
	if !s.flushed {
		s.flushed = true
		s.Scans = s.D.Finish()
	}
	return nil
}

// Close implements Sink.
func (s *MAWISink) Close() error { return s.Flush() }

// Result returns the window's detected scans. Valid after Flush.
func (s *MAWISink) Result() []core.MAWIScan { return s.Scans }

// IDSSink terminates a pipeline in the dynamic-aggregation IDS engine;
// Flush stores the accumulated alerts in Alerts. Its AdvanceEvery
// cadence forwards Engine.Tick; zero leaves all eviction to Flush.
type IDSSink struct {
	E      *ids.Engine
	Alerts []ids.Alert
	terminal
}

// NewIDSSink wraps an IDS engine.
func NewIDSSink(e *ids.Engine) *IDSSink {
	s := &IDSSink{E: e}
	s.eng = idsEngine(e, &s.Alerts)
	return s
}

// Result returns the accumulated alerts. Valid after Flush.
func (s *IDSSink) Result() []ids.Alert { return s.Alerts }

// ShardedIDSSink terminates a pipeline in the sharded IDS engine; Flush
// stops the workers and stores the deterministically merged alerts in
// Alerts.
type ShardedIDSSink struct {
	E      *ids.ShardedEngine
	Alerts []ids.Alert
	terminal
}

// NewShardedIDSSink wraps a sharded IDS engine.
func NewShardedIDSSink(e *ids.ShardedEngine) *ShardedIDSSink {
	s := &ShardedIDSSink{E: e}
	s.eng = idsEngine(e, &s.Alerts)
	return s
}

// Result returns the deterministically merged alerts. Valid after
// Flush.
func (s *ShardedIDSSink) Result() []ids.Alert { return s.Alerts }

// LogSink writes every record to a binary firewall log; Flush drains
// the writer's buffer.
type LogSink struct {
	W *firewall.Writer
}

// NewLogSink wraps a log writer.
func NewLogSink(w *firewall.Writer) *LogSink { return &LogSink{W: w} }

// Consume implements RecordSink.
func (s *LogSink) Consume(r firewall.Record) error { return s.W.Write(r) }

// ConsumeBatch implements BatchSink.
func (s *LogSink) ConsumeBatch(recs []firewall.Record) error {
	for i := range recs {
		if err := s.W.Write(recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements RecordSink; draining the writer's buffer is
// naturally idempotent.
func (s *LogSink) Flush() error { return s.W.Flush() }

// Close implements Sink.
func (s *LogSink) Close() error { return s.W.Flush() }
