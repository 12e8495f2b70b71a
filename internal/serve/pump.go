package serve

// The pump is the daemon's terminal sink. It decorates the pipeline's
// IDS terminal (pipeline.IDSSink or ShardedIDSSink, fresh or restored),
// which owns the eviction and checkpoint cadences exactly as in a batch
// run, so a daemon ticks at exactly the stream positions a batch CLI
// over the same input would. That equivalence is what makes kill/resume
// parity byte-exact (TestKillResumeParity). Around the terminal the
// pump adds what a serving process needs:
//
//   - an after-fire callback that drains the alerts a tick fired and
//     publishes them to the SSE hub and the blocklist, with a fresh
//     State;
//   - stream progress after every batch, with a light State publish;
//   - the end of a generation: a final cut with its cadence phase, and
//     on shutdown (not on reload) the engine flush.
//
// Fire order at a cadence point t is Tick → checkpoint → drain:
// the snapshot is cut after eviction (the cut the resume machinery
// expects) but before the fired alerts are removed from the engine,
// so a crash-recovered daemon re-publishes the alerts of the fire it
// was cut at — at-least-once delivery, never silent loss.

import (
	"sync/atomic"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/netaddr6"
	"v6scan/internal/pipeline"
)

// engine is the slice of ids.Engine / ids.ShardedEngine the daemon
// observes; both satisfy it, so a one-shard daemon skips the
// dispatcher entirely.
type engine interface {
	Drain() []ids.Alert
	Candidates(l netaddr6.AggLevel) int
	MemoryBytes() int
	DroppedCandidates() uint64
}

// shardedEngine is the extra observability a sharded engine offers.
type shardedEngine interface {
	DroppedPerShard() []uint64
	QueueDepth() int
}

// pump consumes the tailed record stream. It lives across
// generations: a reload keeps its terminal, engine state and cadence
// phase in memory. Single-goroutine, like every terminal sink: all
// fields but reload are touched only by the pipeline's dispatching
// goroutine.
type pump struct {
	pipeline.EngineSink
	d    *Daemon
	eng  engine
	tail *pipeline.TailSource

	horizon  time.Time // replay skip bound of the restored state
	lastSeen time.Time
	lastPub  time.Time // wall clock of the last light State publish
	ended    bool      // the current generation has flushed
	reload   atomic.Bool
}

// statePublishInterval throttles the stream-progress State refresh:
// often enough that /api/state tracks a live tail, rare enough that a
// stream of small batches stays allocation-light.
const statePublishInterval = 100 * time.Millisecond

// note tracks stream progress after a run of records.
func (p *pump) note(last time.Time) {
	if last.After(p.lastSeen) {
		p.lastSeen = last
	}
	if now := time.Now(); now.Sub(p.lastPub) >= statePublishInterval {
		p.lastPub = now
		p.d.publishLight(p)
	}
}

// ConsumeBatch implements pipeline.BatchSink: the terminal consumes,
// the pump notes progress.
func (p *pump) ConsumeBatch(recs []firewall.Record) error {
	if len(recs) == 0 {
		return nil
	}
	if err := p.EngineSink.ConsumeBatch(recs); err != nil {
		return err
	}
	p.note(recs[len(recs)-1].Time)
	return nil
}

// Flush implements pipeline.RecordSink: the end of a generation
// (shutdown or reload). With a checkpoint directory it cuts a final
// snapshot at lastSeen+1ns — a valid consistency cut (every consumed
// record is strictly before it) that is NOT a cadence fire point, so
// no tick is forced and the cadence phase travels in the sidecar
// instead. A reload keeps the terminal for the next generation. A
// shutdown flushes it, and the alerts ids' Flush sweeps out are
// deliberately DISCARDED, not published: they are the premature
// eviction of still-open candidates, which the snapshot preserves; a
// resumed daemon re-grows them and alerts at the stream time an
// uninterrupted run would have.
func (p *pump) Flush() error {
	if p.ended {
		return nil
	}
	p.ended = true
	var cut time.Time
	if dir := p.d.cfg.CheckpointDir; dir != "" && !p.lastSeen.IsZero() {
		cut = p.lastSeen.Add(time.Nanosecond)
		if err := p.Cut(dir, cut); err != nil {
			return err
		}
	}
	var err error
	if !p.reload.Load() {
		err = p.EngineSink.Flush() // its alerts are discarded: see above
	}
	p.d.publishFinal(p, cut)
	return err
}

// Close implements pipeline.Sink; a reload must not close the
// terminal the next generation resumes.
func (p *pump) Close() error { return p.Flush() }
