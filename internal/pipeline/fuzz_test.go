package pipeline

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
)

// fuzzSeedLogs returns representative corpus seeds: a clean multi-
// record log, truncations at interesting offsets, and junk.
func fuzzSeedLogs() [][]byte {
	var buf bytes.Buffer
	w := firewall.NewWriter(&buf)
	for _, r := range streamParityRecords(200, 0) {
		w.Write(r)
	}
	w.Flush()
	clean := buf.Bytes()
	return [][]byte{
		nil,
		clean,
		clean[:len(clean)-1],
		clean[:firewall.RecordWireSize-1],
		clean[:firewall.RecordWireSize*3+17],
		bytes.Repeat([]byte{0xab}, 200),
	}
}

// FuzzParallelDecode differentially fuzzes the chunked decode path:
// for arbitrary log bytes and an arbitrary worker count, the
// ParallelLogSource must produce exactly the serial LogSource's record
// sequence and error class — including the trailing-bytes
// ErrShortRecord text on torn logs. It also checks the chunk planner's
// coverage invariants on every input.
func FuzzParallelDecode(f *testing.F) {
	for _, seed := range fuzzSeedLogs() {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, workerSeed uint8) {
		workers := int(workerSeed%8) + 1

		chunks := firewall.PlanChunks(int64(len(data)), workers)
		var off int64
		for i, c := range chunks {
			if c.Offset != off || c.Length <= 0 {
				t.Fatalf("chunk %d = %+v, want contiguous from %d", i, c, off)
			}
			if i < len(chunks)-1 && c.Length%firewall.RecordWireSize != 0 {
				t.Fatalf("non-final chunk %d unaligned: %d bytes", i, c.Length)
			}
			off += c.Length
		}
		if off != int64(len(data)) {
			t.Fatalf("plan covers %d of %d bytes", off, len(data))
		}

		const batchSize = 64
		var want []firewall.Record
		wantErr := NewLogSource(bytes.NewReader(data)).EmitBatch(batchSize, collectBatches(&want))

		var got []firewall.Record
		src := NewParallelLogSource(bytes.NewReader(data), int64(len(data)), workers)
		gotErr := src.EmitBatch(batchSize, collectBatches(&got))

		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("workers=%d: parallel err %v, serial err %v", workers, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("workers=%d: parallel err %q, serial err %q", workers, gotErr, wantErr)
			}
			if errors.Is(wantErr, firewall.ErrShortRecord) != errors.Is(gotErr, firewall.ErrShortRecord) {
				t.Fatalf("workers=%d: error class diverges: %v vs %v", workers, gotErr, wantErr)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d records, serial %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: record %d differs from serial decode", workers, i)
			}
		}
	})
}

// mappedSeedLog is a log whose second record has an IPv4-mapped source
// (::ffff:1.2.3.4): one 47-byte record the detector, the artifact
// filter and the IDS must count and skip.
func mappedSeedLog() []byte {
	recs := streamParityRecords(40, 0)
	recs[1].Src = netip.MustParseAddr("::ffff:1.2.3.4")
	var buf bytes.Buffer
	w := firewall.NewWriter(&buf)
	for _, r := range recs {
		w.Write(r)
	}
	w.Flush()
	return buf.Bytes()
}

// FuzzPipelineIngest feeds arbitrary whole records (the bytes trimmed
// to a multiple of the record size; torn tails are FuzzParallelDecode's
// subject) through the ingest chains: LogSource → Policy → Artifact →
// Detect, the same without Policy (v6scan -filter's chain; the policy
// drops non-IPv6 sources itself, so only this one brings them to the
// filter), and LogSource → IDS, each at 1 and 2 shards. No input may
// panic. A detector run that succeeds serially must succeed sharded
// with identical scans (the converse does not hold: a time-order
// violation between sources on different shards is invisible to either
// shard), and the IDS, which accepts any order, must give identical
// alerts and errors at both shard counts.
func FuzzPipelineIngest(f *testing.F) {
	for _, seed := range fuzzSeedLogs() {
		f.Add(seed)
	}
	f.Add(mappedSeedLog())
	f.Add(mappedSeedLog()[firewall.RecordWireSize : 2*firewall.RecordWireSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:len(data)/firewall.RecordWireSize*firewall.RecordWireSize]
		ctx := context.Background()
		dcfg := core.DefaultConfig()
		dcfg.MinDsts = 3
		for _, policy := range []bool{true, false} {
			detect := func(shards int) (map[string]string, error) {
				b := From(NewLogSource(bytes.NewReader(data)))
				if policy {
					b.Policy(firewall.DefaultCollectPolicy())
				}
				det, err := b.Artifact().Detect(ctx, dcfg, shards)
				if err != nil {
					return nil, err
				}
				out := map[string]string{}
				for lvl, s := range renderDetector(det, dcfg.Levels) {
					out[lvl.String()] = s
				}
				return out, nil
			}
			want, werr := detect(1)
			got, gerr := detect(2)
			if werr == nil {
				if gerr != nil {
					t.Fatalf("policy=%v: 2 shards failed where 1 succeeded: %v", policy, gerr)
				}
				for lvl, s := range want {
					if got[lvl] != s {
						t.Fatalf("policy=%v: %s scans differ between 1 and 2 shards:\n%s\nvs\n%s", policy, lvl, s, got[lvl])
					}
				}
			}
		}

		icfg := ids.Config{MinDsts: 3, Timeout: time.Hour}
		alerts := func(shards int) (string, error) {
			a, err := From(NewLogSource(bytes.NewReader(data))).
				AdvanceEvery(time.Minute).
				IDS(ctx, icfg, shards)
			return canonicalIDSAlerts(a), err
		}
		wantA, werr := alerts(1)
		gotA, gerr := alerts(2)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("IDS errors differ between 1 and 2 shards: %v vs %v", werr, gerr)
		}
		if gotA != wantA {
			t.Fatalf("IDS alerts differ between 1 and 2 shards:\n%s\nvs\n%s", wantA, gotA)
		}
	})
}
