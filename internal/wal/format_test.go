package wal_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/task"
	"falkon/internal/wal"
)

// The record format holds under a journaling dispatcher, which writes an
// accept record from the task array it received and a complete record from
// results it encoded once for the record and the client's push: every record
// of a run's segments decodes through encoding/json and encodes again, through
// the record types' own encoders, to the bytes on disk.
func TestJournaledRunRecordsReencode(t *testing.T) {
	dir := t.TempDir()
	d := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	odd := "q\"uo\\te <&>   \t é"
	ex, err := executor.Start(executor.Options{ID: "exec-" + odd, DispatcherAddr: d.Addr(), SleepScale: 0.001,
		Funcs: map[string]executor.Func{"echo": func(t task.Task) (string, int, error) {
			return strings.Join(t.Args, " "), 0, nil
		}}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), Name: odd, BundleSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	var tasks []task.Task
	for i := range 64 {
		id := task.ID(1<<63+1e18) + task.ID(i) // twenty digits
		switch i % 4 {
		case 0:
			tasks = append(tasks, task.Sleep(id, time.Millisecond))
		case 1:
			tasks = append(tasks, task.Task{ID: id, Engine: task.EngineFunc, Command: "echo", Args: []string{odd, "x"}, Trace: uint64(i)})
		case 2:
			tasks = append(tasks, task.Task{ID: id, Engine: task.EngineData, Duration: time.Millisecond,
				IO: &task.IOSpec{Dataset: "d-" + odd, ReadBytes: 4}, MaxRetries: 2})
		case 3:
			tasks = append(tasks, task.Task{ID: id, Engine: task.EngineFunc, Command: "missing"}) // fails
		}
	}
	if err := c.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(len(tasks), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	ex.Stop()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[wal.Kind]int{}
	for _, seg := range segs {
		buf, err := wal.OS.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for rest := buf; len(rest) > 0; {
			frame, next, ok := wal.NextFrame(rest)
			if !ok {
				t.Fatalf("%s: damaged record %d bytes from its end", seg, len(rest))
			}
			rest = next
			kind, body := wal.Kind(frame[8]), frame[9:]
			kinds[kind]++
			again, err := wal.Reencode(kind, body)
			if err != nil {
				t.Fatalf("%v record %s: %v", kind, body, err)
			}
			if !bytes.Equal(again, body) {
				t.Fatalf("%v record encodes again differently:\n disk %s\nagain %s", kind, body, again)
			}
		}
	}
	t.Logf("records by kind: %v", kinds)
	for _, k := range []wal.Kind{wal.KindInstance, wal.KindAccept, wal.KindDispatchBatch, wal.KindCompleteBatch} {
		if kinds[k] == 0 {
			t.Errorf("no %v record in the run's segments", k)
		}
	}
}
