package pipeline

// Durable-state plumbing: periodic checkpoints of terminal sink state
// at consistent stream-time cuts, and resume from the latest one.
//
// # Consistency
//
// A cadence checkpoint is written at a fire point: the moment the
// terminal's cadence (see due) observes the first record at or past
// the cadence boundary, before that record is processed. Records are
// non-decreasing, and the cadence fires at the FIRST record carrying
// its timestamp, so at a fire with time t every processed record has
// Time < t — the snapshot is exactly the state of the prefix
// {Time < t}, and the snapshot's mark is t.
//
// Resume replays the same input and drops every record with
// Time ≤ horizon (= mark − 1ns, i.e. Time < mark) ahead of the
// terminal, which reconstructs the uninterrupted run byte-exactly.
//
// When an eviction cadence (AdvanceEvery) is configured, the
// checkpoint cadence rides it: snapshots are cut only at eviction
// fire points (the first one at least CheckpointEvery past the last
// snapshot), immediately after the advance/tick runs. Two things
// follow. First, a snapshot always includes the eviction horizon's
// effect, in the order the live run applied it. Second, at every cut
// the eviction cadence's own mark equals the snapshot mark, so Resume
// — which restores both marks to the snapshot's — puts the resumed
// run's eviction schedule exactly in phase with the uninterrupted
// one. That matters for the IDS, whose tick timing is semantic:
// checkpointing never perturbs the tick schedule, and a resumed run
// ticks where the uninterrupted run would have. Without an eviction
// cadence the checkpoint cadence fires (and splits batches) on its
// own, and there is no eviction phase to preserve.
//
// A cut between fire points (EngineSink.Cut, the serve daemon's
// shutdown cut at its last record + 1ns) is just as consistent, but
// its mark is not the cadence phase. Cut therefore writes the phase to
// a ".marks" sidecar, and ResumeFile restores it from there.
//
// # Files
//
// Checkpoints are one file per cut, named by the mark's UnixNano
// (zero-padded so lexical order is time order), written to a temp file
// and renamed into place — a crash mid-write never leaves a readable
// partial checkpoint, and LatestCheckpoint never picks one up.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"v6scan/internal/checkpoint"
	"v6scan/internal/core"
	"v6scan/internal/ids"
)

// Checkpointer is implemented by terminal sinks that can write a
// versioned snapshot of their state at a consistent stream-time cut.
// The caller guarantees mark is a valid cut: every record with Time <
// mark consumed, none with Time ≥ mark. All built-in detector and IDS
// sinks (plain and sharded) implement it.
type Checkpointer interface {
	Checkpoint(w io.Writer, mark time.Time) error
}

// checkpointFileName names a checkpoint by its mark so lexical order
// is stream-time order.
func checkpointFileName(mark time.Time) string {
	return fmt.Sprintf("%020d.ckpt", mark.UnixNano())
}

// CheckpointPath returns the path WriteCheckpoint publishes a cut at
// mark under — for callers that place sidecar files next to a
// checkpoint (the serve daemon's cadence-phase marks).
func CheckpointPath(dir string, mark time.Time) string {
	return filepath.Join(dir, checkpointFileName(mark))
}

// WriteCheckpoint writes one snapshot of ck at mark into dir,
// atomically: the bytes land in a temp file that is renamed into its
// final name only after a successful sync, so readers never observe a
// partial checkpoint.
func WriteCheckpoint(dir string, ck Checkpointer, mark time.Time) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("pipeline: creating checkpoint dir: %w", err)
	}
	f, err := os.CreateTemp(dir, checkpointTempPattern)
	if err != nil {
		return fmt.Errorf("pipeline: creating checkpoint: %w", err)
	}
	tmp := f.Name()
	if err := ck.Checkpoint(f, mark); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("pipeline: writing checkpoint: %w", err)
	}
	final := filepath.Join(dir, checkpointFileName(mark))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("pipeline: publishing checkpoint: %w", err)
	}
	return nil
}

// checkpointTempPattern is the os.CreateTemp pattern WriteCheckpoint
// stages bytes under; checkpointTempPrefix selects the files it
// produces. The prefix deliberately cannot collide with a published
// checkpoint name (those have all-digit stems), so checkpointMark
// never selects a temp file — but a crashed writer leaves its temp
// behind forever, which is what SweepCheckpointTemps cleans up.
const (
	checkpointTempPattern = ".ckpt-*"
	checkpointTempPrefix  = ".ckpt-"
)

// SweepCheckpointTemps removes leftover checkpoint temp files from
// interrupted WriteCheckpoint calls — a crash between CreateTemp and
// the rename strands the partially-written temp, and nothing else ever
// collects it. Call it when resuming from a checkpoint directory
// (cmd/v6scan and the serve daemon do); it is safe alongside a live
// writer only in the sense that it may race a write in progress, so
// sweep before starting the pipeline, not during. Returns the number
// of temp files removed. A missing directory sweeps zero files.
func SweepCheckpointTemps(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasPrefix(e.Name(), checkpointTempPrefix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return removed, fmt.Errorf("pipeline: sweeping checkpoint temp: %w", err)
		}
		removed++
	}
	return removed, nil
}

// checkpointMark parses the mark out of a checkpoint file name.
// Only names of the exact form WriteCheckpoint produces — an
// all-digit stem plus ".ckpt" — qualify; anything else (temp files
// from interrupted writes, sidecar files, stray directory content)
// reports ok=false and is skipped.
func checkpointMark(name string) (mark int64, ok bool) {
	stem, found := strings.CutSuffix(name, ".ckpt")
	if !found || stem == "" || len(stem) > 20 {
		return 0, false
	}
	for _, c := range stem {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(stem, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// LatestCheckpoint returns the path of the newest checkpoint in dir
// (the one with the largest parsed mark), or "" when the directory
// holds none. Entries that are not well-formed checkpoint files —
// leftover ".ckpt-*" temp files, sidecar files, non-numeric stems,
// subdirectories — are ignored, so a dirty directory (crashed writer,
// operator droppings) never confuses resume. When two names parse to
// the same mark (e.g. differing zero-padding), the lexically greatest
// name wins, a deterministic tie-break.
func LatestCheckpoint(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", err
	}
	best := ""
	var bestMark int64
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() {
			continue
		}
		mark, ok := checkpointMark(name)
		if !ok {
			continue
		}
		if best == "" || mark > bestMark || (mark == bestMark && name > best) {
			best, bestMark = name, mark
		}
	}
	if best == "" {
		return "", nil
	}
	return filepath.Join(dir, best), nil
}

// Resumed is a terminal sink rebuilt from a checkpoint, plus what a
// caller needs to resume: skip the replayed input through Horizon
// (Builder.ResumeFrom) and run into Sink.
type Resumed struct {
	// Sink is the restored terminal: *DetectorSink or *ShardedSink for
	// a detector checkpoint, *IDSSink or *ShardedIDSSink for an IDS
	// one, matching the requested shard count. Its cadence phase is
	// restored too (see Resume and ResumeFile); the cadence periods are
	// configuration, set again by the resuming run.
	Sink EngineSink
	// Kind is the snapshot kind (checkpoint.KindDetector or
	// checkpoint.KindIDS).
	Kind uint8
	// Mark is the checkpoint's stream-time cut; Horizon = Mark − 1ns is
	// the inclusive replay skip bound.
	Mark, Horizon time.Time
}

// Resume rebuilds a terminal sink from a snapshot stream. shards > 1
// restores the sharded variant — the shard count need not match the
// one the snapshot was taken at. The restored sink's cadence marks are
// set to the snapshot's cut, which is the phase of every cadence
// fire-point cut, so eviction and checkpoint cadences resume in phase
// with the interrupted run.
func Resume(r io.Reader, shards int) (*Resumed, error) {
	cr, err := checkpoint.NewReader(r)
	if err != nil {
		return nil, err
	}
	hdr := cr.Header()
	var sink EngineSink
	switch {
	case hdr.Kind == checkpoint.KindDetector && shards > 1:
		var d *core.ShardedDetector
		if d, err = core.RestoreShardedDetector(cr, shards); err == nil {
			sink = NewShardedSink(d)
		}
	case hdr.Kind == checkpoint.KindDetector:
		var d *core.Detector
		if d, err = core.RestoreDetector(cr); err == nil {
			sink = NewDetectorSink(d)
		}
	case hdr.Kind == checkpoint.KindIDS && shards > 1:
		var e *ids.ShardedEngine
		if e, err = ids.RestoreShardedEngine(cr, shards); err == nil {
			sink = NewShardedIDSSink(e)
		}
	case hdr.Kind == checkpoint.KindIDS:
		var e *ids.Engine
		if e, err = ids.RestoreEngine(cr); err == nil {
			sink = NewIDSSink(e)
		}
	default:
		return nil, fmt.Errorf("%w: unknown snapshot kind %d", checkpoint.ErrFormat, hdr.Kind)
	}
	if err != nil {
		return nil, err
	}
	sink.term().phase = marks{Advance: hdr.Mark, Checkpoint: hdr.Mark}
	return &Resumed{Sink: sink, Kind: hdr.Kind, Mark: hdr.Mark, Horizon: hdr.Horizon}, nil
}

// ResumeFile is Resume over a checkpoint file path. A cut taken between
// fire points (EngineSink.Cut) carries its cadence phase in a ".marks"
// sidecar next to the file; when one exists the restored sink takes its
// phase from it, so the resumed run fires where the uninterrupted one
// would have.
func ResumeFile(path string, shards int) (*Resumed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := Resume(f, shards)
	if err != nil {
		return nil, err
	}
	if m, ok := readMarks(path + ".marks"); ok {
		res.Sink.term().phase = m
	}
	return res, nil
}
