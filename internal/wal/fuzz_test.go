package wal

import (
	"bytes"
	"io"
	"os"
	"testing"

	"falkon/internal/task"
)

// FuzzJournalDecode throws arbitrary bytes at the record decoder and the
// replayer. Properties:
//
//  1. Never panics (the corpus includes valid prefixes, so the mutator
//     explores torn and corrupted variants of real journals).
//  2. Never fabricates: every record the decoder accepts must re-encode to
//     exactly the bytes it was decoded from — the framing is canonical, so
//     an accepted record is bit-for-bit something a journal writer produced.
//  3. Decoding always terminates and consumes monotonically.
//  4. AppendFrames accepts the bytes as one span exactly when the decoder
//     consumes all of them, and then counts the records it decoded.
//  5. A snapshot record's state that decodes encodes to bytes that decode,
//     and encode again, to themselves.
func FuzzJournalDecode(f *testing.F) {
	for _, seed := range journalSeeds() {
		f.Add(seed)
	}
	// One journal for every input, writing nowhere: property 4 needs only
	// AppendFrames' verdict.
	_, j, _, err := Recover("fuzz", Options{FS: discardFS{}, Sync: SyncPolicy{Mode: SyncOff}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { j.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		r := newReplayer()
		buf := data
		decoded := 0
		for {
			rec, rest, ok := nextRecord(buf)
			if !ok {
				break
			}
			consumed := buf[:len(buf)-len(rest)]
			// Canonical-framing property: re-encoding the accepted record
			// must reproduce the consumed bytes exactly.
			re := appendRecord(nil, rec.kind, rec.body)
			if !bytes.Equal(re, consumed) {
				t.Fatalf("accepted record re-encodes to %x, consumed %x", re, consumed)
			}
			r.apply(rec) // must not panic on any accepted record
			if rec.kind == KindSnapshot {
				checkSnapshot(t, rec.body)
			}
			if len(rest) >= len(buf) {
				t.Fatalf("decode did not consume: %d -> %d", len(buf), len(rest))
			}
			buf = rest
			decoded++
		}
		// Materializing state must not panic either.
		_ = r.state()

		n, _, err := j.AppendFrames(data)
		if whole := len(buf) == 0; (err == nil) != whole {
			t.Fatalf("AppendFrames err=%v, but the decoder consumed all=%v", err, whole)
		}
		if err == nil && n != decoded {
			t.Fatalf("AppendFrames counted %d records, the decoder %d", n, decoded)
		}
	})
}

// checkSnapshot is property 5 for one snapshot record's body.
func checkSnapshot(t *testing.T, body []byte) {
	var st, again State
	if st.UnmarshalJSON(body) != nil {
		return
	}
	enc, err := st.MarshalJSON()
	if err != nil || again.UnmarshalJSON(enc) != nil {
		t.Fatalf("snapshot %q decodes, and encodes as %q, which does not (%v)", body, enc, err)
	}
	if re, _ := again.MarshalJSON(); !bytes.Equal(re, enc) {
		t.Fatalf("snapshot %q encodes as %q, and then as %q", body, enc, re)
	}
}

// discardFS is a filesystem with no files that swallows every write.
type discardFS struct{}

type discardFile struct{ io.Writer }

func (discardFile) Sync() error  { return nil }
func (discardFile) Close() error { return nil }

func (discardFS) MkdirAll(string, os.FileMode) error    { return nil }
func (discardFS) Create(string, bool) (File, error)     { return discardFile{io.Discard}, nil }
func (discardFS) Rename(string, string) error           { return nil }
func (discardFS) Remove(string) error                   { return nil }
func (discardFS) ReadDir(string) ([]os.DirEntry, error) { return nil, nil }
func (discardFS) ReadFile(string) ([]byte, error)       { return nil, os.ErrNotExist }
func (discardFS) SyncDir(string) error                  { return nil }

// journalSeeds are realistic journals for the fuzzer to start from — whole,
// torn mid-record, bit-flipped — in the single-task record kinds journals on
// disk hold and in the batch kinds the dispatcher writes. TestGenCorpus
// commits them under testdata/fuzz.
func journalSeeds() map[string][]byte {
	epr := "falkon-instance-1"
	var whole []byte
	whole, _ = marshalRecord(whole, KindInstance, InstanceRec{EPR: epr, Notify: true})
	whole, _ = marshalRecord(whole, KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 1, Command: "sleep"}, {ID: 2}}})
	whole, _ = marshalRecord(whole, KindDispatch, DispatchRec{EPR: epr, ID: 1, Exec: "x1"})
	whole, _ = marshalRecord(whole, KindComplete, CompleteRec{EPR: epr, Result: task.Result{ID: 1, Stdout: "ok"}})
	whole, _ = marshalRecord(whole, KindDestroy, DestroyRec{EPR: epr})

	var batch []byte
	batch, _ = marshalRecord(batch, KindInstance, InstanceRec{EPR: epr, Notify: true})
	batch, _ = marshalRecord(batch, KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 1, Command: "sleep"}, {ID: 2}, {ID: 3}}})
	batch, _ = marshalRecord(batch, KindDispatchBatch, DispatchBatchRec{Exec: "x1", Tasks: []TaskRef{{epr, 1}, {epr, 2}, {"falkon-instance-9", 3}}})
	batch, _ = marshalRecord(batch, KindCompleteBatch, CompleteBatchRec{Results: []CompleteRec{
		{EPR: epr, Result: task.Result{ID: 1, Stdout: "ok"}},
		{EPR: epr, Result: task.Result{ID: 2, ExitCode: -1, Err: "retries exhausted: replay timeout", Attempts: 4}},
	}})
	batch, _ = marshalRecord(batch, KindDispatchBatch, DispatchBatchRec{Exec: "x2", Tasks: []TaskRef{{epr, 3}}})

	flip := func(b []byte, at int) []byte {
		out := append([]byte(nil), b...)
		out[at] ^= 0x40
		return out
	}

	bigTasks := make([]task.Task, 64)
	for i := range bigTasks {
		bigTasks[i] = task.Task{ID: task.ID(i + 1), Command: "sleep"}
	}
	var big []byte
	big, _ = marshalRecord(big, KindInstance, InstanceRec{EPR: "falkon-instance-2"})
	big, _ = marshalRecord(big, KindAccept, AcceptRec{EPR: "falkon-instance-2", Tasks: bigTasks})

	snap := &State{Instances: []Instance{{EPR: epr, Tenant: "default", Submitted: 3,
		Results: []task.Result{{ID: 1, Stdout: "ok"}}}}}
	for i, t := range task.Relay([]task.Task{{ID: 2, Command: "a<b", Args: []string{`"q"`}, Trace: 9},
		{ID: 18446744073709551615, Engine: task.EngineData, IO: &task.IOSpec{Dataset: "d\u00e9"}, Duration: 5}}) {
		snap.Pending = append(snap.Pending, Pending{EPR: epr, Task: t, Attempts: i, Tenant: "default"})
	}
	snapshot, _ := marshalRecord(nil, KindSnapshot, snap)

	return map[string][]byte{
		"snapshot":         snapshot,
		"whole-journal":    whole,
		"torn-tail":        whole[:len(whole)-3],
		"bitflipped-body":  flip(whole, 10),
		"empty":            nil,
		"garbage-header":   {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1},
		"big-accept":       big,
		"batch-journal":    batch,
		"batch-torn-tail":  batch[:len(batch)-9], // mid-way through the last dispatch record
		"batch-bitflipped": flip(batch, len(batch)-60),
	}
}
