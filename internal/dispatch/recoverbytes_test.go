package dispatch

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"falkon/internal/client"
	"falkon/internal/fproto"
	"falkon/internal/replica"
	"falkon/internal/task"
	"falkon/internal/wal"
	"falkon/internal/wsrpc"
)

// rawBody is a message body sent as the bytes it is.
type rawBody string

func (b rawBody) AppendJSON(dst []byte) []byte { return append(dst, b...) }

// sentTasks are tasks as a client other than this repository's may send them:
// escapes this repository's encoder does not write, a trace sent as 0, IDs of
// twenty digits, a dataset with an escape and an empty IO.
var sentTasks = []string{
	`{"id":18446744073709551615,"command":"a<b&c","args":["<& é \"q\""],"trace":0}`,
	`{"id":12345678901234567890,"engine":1,"io":{"read_bytes":1,"dataset":"d\/1"},"duration":5,"max_retries":2,"trace":9}`,
	`{"id":3,"env":["K=V"],"io":{},"stage":4}`,
}

// A task recovered from the journal is granted byte for byte as it was
// submitted: replayed from its accept record, and read back from a snapshot
// the dispatcher wrote of it.
func TestRecoveredTasksKeepTheirBytes(t *testing.T) {
	for _, from := range []string{"accept record", "snapshot"} {
		t.Run(from, func(t *testing.T) {
			dir := t.TempDir()
			d := New(Options{JournalDir: dir, SnapshotEvery: -1, Logf: t.Logf})
			if err := d.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			cli, err := wsrpc.Dial(d.Addr(), wsrpc.ClientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			body := `{"epr":"` + c.EPR() + `","tasks":[` + strings.Join(sentTasks, ",") + `]}`
			var ack fproto.SubmitReply
			if err := cli.Call(fproto.MethodSubmit, rawBody(body), &ack); err != nil || ack.Accepted != len(sentTasks) {
				t.Fatalf("submit: %+v, %v", ack, err)
			}
			if from == "snapshot" {
				boundary, st, _, err := d.cut(true)
				if err == nil {
					err = d.wal.WriteSnapshot(boundary, st)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			d.Abort()

			r := New(Options{JournalDir: dir, SnapshotEvery: -1, Logf: t.Logf})
			if err := r.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer r.Abort()
			if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*")); (len(snaps) > 0) != (from == "snapshot") {
				t.Fatalf("snapshots %v", snaps)
			}
			r.Register(fproto.RegisterRequest{ExecutorID: "x", Slots: len(sentTasks)}, ignore{})
			granted, err := r.Stock("x", len(sentTasks), len(sentTasks), nil)
			if err != nil || len(granted) != len(sentTasks) {
				t.Fatalf("granted %d tasks (%v), want %d", len(granted), err, len(sentTasks))
			}
			for i, g := range granted {
				if got := string(g.Task.AppendJSON(nil)); got != sentTasks[i] {
					t.Errorf("task %d granted as\n %s\nsubmitted as\n %s", i, got, sentTasks[i])
				}
			}
		})
	}
}

// parentState is wal.State as encoding/json wrote it while a pending task
// was a whole task.Task.
type parentState struct {
	NextEPR   int64
	Instances []wal.Instance
	Pending   []struct {
		EPR      string
		Task     task.Task
		Attempts int
		Tenant   string
	}
}

// A snapshot and a standby's baseline, as the dispatcher writes them now, read
// as the old shape reads them: the tasks that were submitted, queued and
// outstanding, with their attempts, instance and tenant.
func TestSnapshotAndBaselineReadAsParentShape(t *testing.T) {
	dir := t.TempDir()
	d := New(Options{JournalDir: dir, SnapshotEvery: -1, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Abort()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	submitted := []task.Task{
		{ID: 18446744073709551615, Command: "a<b&c", Args: []string{"<&>", `"q"`}},
		{ID: 2, Engine: task.EngineData, IO: &task.IOSpec{ReadBytes: 1, Dataset: "dé"}, Duration: 5, MaxRetries: 2},
		{ID: 3, Env: []string{"K=V"}, IO: &task.IOSpec{}, Stage: 4},
		task.Sleep(4, 0),
	}
	if err := c.Submit(submitted); err != nil { // which sets each task's trace
		t.Fatal(err)
	}
	d.Register(fproto.RegisterRequest{ExecutorID: "x", Slots: 1}, ignore{})
	for d.held("x") < 1 {
		if _, err := d.Stock("x", 1, 1, nil); err != nil {
			t.Fatal(err)
		}
	}

	boundary, st, _, err := d.cut(false)
	if err == nil {
		err = d.wal.WriteSnapshot(boundary, st)
	}
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snap-"+strings.Repeat("0", 7)+"2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	baseline, _, err := d.replicaBaseline()
	if err != nil {
		t.Fatal(err)
	}
	attach, err := json.Marshal(replica.AttachReply{Snapshot: baseline})
	if err != nil {
		t.Fatal(err)
	}
	var sent struct{ Snapshot parentState }
	if err := json.Unmarshal(attach, &sent); err != nil {
		t.Fatal(err)
	}
	var snapped parentState
	if err := json.Unmarshal(snap[9:], &snapped); err != nil { // past the record's header and kind
		t.Fatal(err)
	}
	byID := make(map[task.ID]task.Task)
	for _, tk := range submitted {
		byID[tk.ID] = tk
	}
	for name, got := range map[string]parentState{"snapshot": snapped, "baseline": sent.Snapshot} {
		if len(got.Instances) != 1 || got.Instances[0].EPR != c.EPR() || len(got.Pending) != len(submitted) {
			t.Fatalf("%s holds %d instances and %d tasks, want 1 and %d", name, len(got.Instances), len(got.Pending), len(submitted))
		}
		for _, p := range got.Pending {
			want, granted := byID[p.Task.ID], 0
			if want.ID == submitted[0].ID { // the first submitted, and so the one granted
				granted = 1
			}
			if !reflect.DeepEqual(p.Task, want) || p.EPR != c.EPR() || p.Tenant != DefaultTenant || p.Attempts != granted {
				t.Errorf("%s: task %v reads as %+v, submitted as %+v", name, p.Task.ID, p, want)
			}
		}
	}
}
