package falkon_test

// End-to-end tests of the command binaries: build them once, then run a
// real multi-process deployment — dispatcher, executor agents, client CLI,
// forwarder — over localhost TCP, exactly as the README describes.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildBinaries compiles every cmd once per test run.
func buildBinaries(t *testing.T) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("POSIX process management")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "falkon-bin")
		if buildErr != nil {
			return
		}
		for _, c := range []string{"falkon-dispatcher", "falkon-executor", "falkon-submit", "falkon-bench", "falkon-trace", "falkon-workflow", "falkon-top", "falkon-spans"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, c), "./cmd/"+c)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("build %s: %v\n%s", c, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

// freePort reserves an ephemeral port.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startProc launches a binary and registers cleanup.
func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// startAnnounced launches a binary told to listen on 127.0.0.1:0 and returns
// the addresses it prints: for each pattern, the first submatch of the first
// line of its output (stdout or stderr) that matches. Nothing can take such a
// port between its reservation and the daemon's bind, as it can freePort's.
func startAnnounced(t *testing.T, bin string, patterns []string, args ...string) []string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = w, w
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	res := make([]*regexp.Regexp, len(patterns))
	for i, p := range patterns {
		res[i] = regexp.MustCompile(p)
	}
	found := make(chan []string, 1)
	go func() {
		defer r.Close()
		addrs, left := make([]string, len(patterns)), len(patterns)
		lines := bufio.NewScanner(r)
		for lines.Scan() {
			fmt.Fprintln(os.Stderr, lines.Text())
			for i, re := range res {
				if m := re.FindStringSubmatch(lines.Text()); m != nil && addrs[i] == "" {
					addrs[i] = m[1]
					if left--; left == 0 {
						found <- addrs
					}
				}
			}
		}
		close(found)
	}()
	select {
	case addrs, ok := <-found:
		if !ok {
			t.Fatalf("%s exited before printing its addresses", filepath.Base(bin))
		}
		return addrs
	case <-time.After(30 * time.Second):
		t.Fatalf("%s printed no addresses in 30 s", filepath.Base(bin))
	}
	return nil
}

// The address lines the daemons print.
const (
	listeningOn    = `listening on (\S+)`
	debugEndpoints = `debug endpoints on http://(\S+)/metrics`
)

// waitListening blocks until addr accepts connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never started listening", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestBinariesEndToEnd(t *testing.T) {
	bin := buildBinaries(t)
	dispAddr := freePort(t)
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", dispAddr, "-quiet", "-stats-every", "0")
	waitListening(t, dispAddr)
	startProc(t, filepath.Join(bin, "falkon-executor"), "-dispatcher", dispAddr, "-n", "2")

	out, err := exec.Command(filepath.Join(bin, "falkon-submit"),
		"-dispatcher", dispAddr, "-sleep0", "200", "-bundle", "20", "-timeout", "60s").CombinedOutput()
	if err != nil {
		t.Fatalf("falkon-submit: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "completed 200 tasks (0 failed)") {
		t.Fatalf("submit output: %s", out)
	}
}

func TestBinariesExecEngine(t *testing.T) {
	bin := buildBinaries(t)
	dispAddr := freePort(t)
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", dispAddr, "-quiet", "-stats-every", "0")
	waitListening(t, dispAddr)
	startProc(t, filepath.Join(bin, "falkon-executor"), "-dispatcher", dispAddr)

	out, err := exec.Command(filepath.Join(bin, "falkon-submit"),
		"-dispatcher", dispAddr, "-exec", "/bin/echo hello-falkon", "-count", "3", "-timeout", "60s").CombinedOutput()
	if err != nil {
		t.Fatalf("falkon-submit: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "completed 3 tasks (0 failed)") {
		t.Fatalf("submit output: %s", out)
	}
}

func TestBinariesThreeTier(t *testing.T) {
	bin := buildBinaries(t)
	d1, d2 := freePort(t), freePort(t)
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", d1, "-quiet", "-stats-every", "0")
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", d2, "-quiet", "-stats-every", "0")
	waitListening(t, d1)
	waitListening(t, d2)
	startProc(t, filepath.Join(bin, "falkon-executor"), "-dispatcher", d1)
	startProc(t, filepath.Join(bin, "falkon-executor"), "-dispatcher", d2)
	fwd := freePort(t)
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", fwd, "-leaves", d1+","+d2)
	waitListening(t, fwd)

	// The unmodified client CLI talks to the forwarder.
	out, err := exec.Command(filepath.Join(bin, "falkon-submit"),
		"-dispatcher", fwd, "-sleep0", "50", "-bundle", "10", "-timeout", "60s").CombinedOutput()
	if err != nil {
		t.Fatalf("falkon-submit via forwarder: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "completed 50 tasks (0 failed)") {
		t.Fatalf("submit output: %s", out)
	}
}

// A node with leaves is a dispatcher to its operator too: SIGTERM drains it —
// every task it holds is delivered to its client before it exits 0.
func TestBinariesRootDrainsOnSIGTERM(t *testing.T) {
	bin := buildBinaries(t)
	leaf, rootAddr := freePort(t), freePort(t)
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", leaf, "-quiet", "-stats-every", "0")
	waitListening(t, leaf)
	startProc(t, filepath.Join(bin, "falkon-executor"), "-dispatcher", leaf, "-n", "2")
	root := startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", rootAddr, "-leaves", leaf, "-quiet", "-stats-every", "0")
	waitListening(t, rootAddr)

	cl, err := client.Connect(client.Options{DispatcherAddr: rootAddr, BundleSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// 40 x 50ms over two single-slot executors: a second of work, all of it
	// acknowledged by the root when the signal lands.
	var gen task.IDGen
	ts := make([]task.Task, 40)
	for i := range ts {
		ts[i] = task.Task{ID: gen.Next(), Engine: task.EngineSleep, Duration: 50 * time.Millisecond}
	}
	if err := cl.Submit(ts); err != nil {
		t.Fatal(err)
	}
	if err := root.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	results, err := cl.WaitN(len(ts), 30*time.Second)
	if err != nil {
		t.Fatalf("%d of %d results from a draining root: %v", len(results), len(ts), err)
	}
	for _, r := range results {
		if r.Failed() {
			t.Fatalf("task %v failed under drain: %s", r.ID, r.Err)
		}
	}
	if err := root.Wait(); err != nil {
		t.Fatalf("root after SIGTERM: %v, want exit 0", err)
	}
}

// A root keeps its tasks in memory: the flags that promise otherwise are
// refused at startup, by the message that says where that is tracked.
func TestBinariesLeavesRefuseJournal(t *testing.T) {
	bin := buildBinaries(t)
	out, err := exec.Command(filepath.Join(bin, "falkon-dispatcher"),
		"-addr", freePort(t), "-leaves", freePort(t), "-journal-dir", t.TempDir()).CombinedOutput()
	if err == nil {
		t.Fatalf("falkon-dispatcher -leaves -journal-dir started:\n%s", out)
	}
	if !strings.Contains(string(out), "-leaves cannot be combined with -journal-dir") || !strings.Contains(string(out), "ROADMAP 6(a)") {
		t.Fatalf("refusal does not say why: %s", out)
	}
}

func TestBinariesSecureDeployment(t *testing.T) {
	bin := buildBinaries(t)
	psk := filepath.Join(t.TempDir(), "psk")
	if err := os.WriteFile(psk, []byte("e2e-shared-key"), 0o600); err != nil {
		t.Fatal(err)
	}
	dispAddr := freePort(t)
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", dispAddr, "-quiet", "-stats-every", "0", "-secure", "-psk-file", psk)
	waitListening(t, dispAddr)
	startProc(t, filepath.Join(bin, "falkon-executor"), "-dispatcher", dispAddr, "-secure", "-psk-file", psk)

	out, err := exec.Command(filepath.Join(bin, "falkon-submit"),
		"-dispatcher", dispAddr, "-sleep0", "30", "-secure", "-psk-file", psk, "-timeout", "60s").CombinedOutput()
	if err != nil {
		t.Fatalf("secure falkon-submit: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "completed 30 tasks (0 failed)") {
		t.Fatalf("submit output: %s", out)
	}
}

func TestBinariesWorkloadFile(t *testing.T) {
	bin := buildBinaries(t)
	dispAddr := freePort(t)
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", dispAddr, "-quiet", "-stats-every", "0")
	waitListening(t, dispAddr)
	startProc(t, filepath.Join(bin, "falkon-executor"), "-dispatcher", dispAddr)

	wl := filepath.Join(t.TempDir(), "tasks.jsonl")
	lines := []string{
		`# demo workload`,
		`{"engine": 0, "command": "sleep"}`,
		`{"engine": 2, "command": "/bin/true"}`,
	}
	if err := os.WriteFile(wl, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(bin, "falkon-submit"),
		"-dispatcher", dispAddr, "-workload", wl, "-timeout", "60s").CombinedOutput()
	if err != nil {
		t.Fatalf("falkon-submit -workload: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "completed 2 tasks (0 failed)") {
		t.Fatalf("submit output: %s", out)
	}
}

func TestBinariesBenchAndTrace(t *testing.T) {
	bin := buildBinaries(t)
	out, err := exec.Command(filepath.Join(bin, "falkon-bench"), "-experiment", "fig11").CombinedOutput()
	if err != nil {
		t.Fatalf("falkon-bench: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "1000 tasks, 17820 CPU seconds") {
		t.Fatalf("bench output: %s", out)
	}
	tr := filepath.Join(t.TempDir(), "g.trace")
	if out, err := exec.Command(filepath.Join(bin, "falkon-trace"), "-generate", "-jobs", "100", "-out", tr).CombinedOutput(); err != nil {
		t.Fatalf("falkon-trace -generate: %v\n%s", err, out)
	}
	out, err = exec.Command(filepath.Join(bin, "falkon-trace"), "-stats", tr).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "100 jobs") {
		t.Fatalf("falkon-trace -stats: %v\n%s", err, out)
	}
}

func TestBinariesDebugEndpoints(t *testing.T) {
	bin := buildBinaries(t)
	dispAddr, debugAddr := freePort(t), freePort(t)
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", dispAddr, "-quiet", "-stats-every", "0", "-debug-addr", debugAddr)
	waitListening(t, dispAddr)
	waitListening(t, debugAddr)
	startProc(t, filepath.Join(bin, "falkon-executor"), "-dispatcher", dispAddr)

	out, err := exec.Command(filepath.Join(bin, "falkon-submit"),
		"-dispatcher", dispAddr, "-sleep0", "25", "-timeout", "60s").CombinedOutput()
	if err != nil {
		t.Fatalf("falkon-submit: %v\n%s", err, out)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + debugAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		"falkon_tasks_completed_total 25",
		`falkon_stage_seconds_count{stage="start_deliver"} 25`,
		`wsrpc_calls_total{method="falkon.submit"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	events := get("/events.json")
	if !strings.Contains(events, `"kind":"delivered"`) {
		t.Fatalf("/events.json missing delivered events: %.300s", events)
	}
	if pprofIdx := get("/debug/pprof/"); !strings.Contains(pprofIdx, "goroutine") {
		t.Fatalf("pprof index unexpected: %.200s", pprofIdx)
	}

	// falkon-top renders the stage panel against the live dispatcher.
	out, err = exec.Command(filepath.Join(bin, "falkon-top"), "-dispatcher", dispAddr, "-once").CombinedOutput()
	if err != nil {
		t.Fatalf("falkon-top: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "done=25") || !strings.Contains(string(out), "enqueue_notify") {
		t.Fatalf("falkon-top output: %s", out)
	}

	// falkon-spans dumps one line per completed task.
	out, err = exec.Command(filepath.Join(bin, "falkon-spans"), "-dispatcher", dispAddr).CombinedOutput()
	if err != nil {
		t.Fatalf("falkon-spans: %v\n%s", err, out)
	}
	if got := strings.Count(string(out), "delivered=+"); got != 25 {
		t.Fatalf("falkon-spans printed %d spans, want 25:\n%s", got, out)
	}
}

// TestBinariesSpanMergeAcrossProcesses is the tracing acceptance run: a
// real dispatcher process and a real executor process each dump their span
// ring over HTTP, and merging the dumps yields one clock-corrected timeline
// per task whose cross-process stage durations partition the end-to-end
// latency exactly. The falkon-spans CLI must stitch the same dumps.
func TestBinariesSpanMergeAcrossProcesses(t *testing.T) {
	bin := buildBinaries(t)
	dispAddr, dispDebug, execDebug := freePort(t), freePort(t), freePort(t)
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", dispAddr, "-quiet", "-stats-every", "0", "-debug-addr", dispDebug)
	waitListening(t, dispAddr)
	waitListening(t, dispDebug)
	startProc(t, filepath.Join(bin, "falkon-executor"), "-dispatcher", dispAddr, "-slots", "2", "-debug-addr", execDebug)
	waitListening(t, execDebug)

	const nTasks = 20
	out, err := exec.Command(filepath.Join(bin, "falkon-submit"),
		"-dispatcher", dispAddr, "-sleep0", fmt.Sprint(nTasks), "-sleep", "5ms", "-bundle", "5", "-timeout", "60s").CombinedOutput()
	if err != nil {
		t.Fatalf("falkon-submit: %v\n%s", err, out)
	}

	// Dump each process's span ring the way an operator would.
	fetch := func(addr, name string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/spans.jsonl")
		if err != nil {
			t.Fatalf("GET %s /spans.jsonl: %v", name, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), name+".jsonl")
		if err := os.WriteFile(p, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	dispDump, execDump := fetch(dispDebug, "dispatcher"), fetch(execDebug, "executor")

	// Assert the merge invariant on the parsed dumps: corrected
	// cross-process stages sum to each task's e2e latency.
	parse := func(p string) obs.Dump {
		t.Helper()
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		d, err := obs.ParseDump(f)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		return d
	}
	dd, ed := parse(dispDump), parse(execDump)
	if !strings.HasPrefix(ed.Header.Proc, "executor:") {
		t.Fatalf("executor dump proc = %q", ed.Header.Proc)
	}
	tls := obs.MergeDumps([]obs.Dump{dd, ed})
	crossProcess := 0
	for _, tl := range tls {
		if tl.Trace == 0 {
			t.Fatalf("timeline without trace id: %+v", tl)
		}
		procs := map[string]bool{}
		var sum int64
		for i, p := range tl.Points {
			procs[p.Proc] = true
			if i == 0 {
				continue
			}
			d := p.AtNS - tl.Points[i-1].AtNS
			if d < 0 {
				t.Fatalf("trace %#x: negative stage at point %d", tl.Trace, i)
			}
			sum += d
		}
		if sum != tl.E2E() {
			t.Fatalf("trace %#x: stages sum to %d, e2e %d", tl.Trace, sum, tl.E2E())
		}
		if len(procs) > 1 {
			crossProcess++
		}
	}
	if len(tls) < nTasks {
		t.Fatalf("merged %d timelines, want >= %d", len(tls), nTasks)
	}
	if crossProcess < nTasks {
		t.Fatalf("only %d/%d timelines span both processes", crossProcess, len(tls))
	}

	// The CLI view of the same merge, plus the Perfetto export.
	chrome := filepath.Join(t.TempDir(), "trace.json")
	out, err = exec.Command(filepath.Join(bin, "falkon-spans"),
		"-merge", "-chrome", chrome, dispDump, execDump).CombinedOutput()
	if err != nil {
		t.Fatalf("falkon-spans -merge: %v\n%s", err, out)
	}
	for _, want := range []string{"# dispatcher:", "# executor:", "started[executor", "e2e="} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("falkon-spans -merge output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(string(out), "e2e="); got < nTasks {
		t.Fatalf("falkon-spans -merge printed %d timelines, want >= %d:\n%s", got, nTasks, out)
	}
	cb, err := os.ReadFile(chrome)
	if err != nil || !strings.Contains(string(cb), `"traceEvents"`) {
		t.Fatalf("chrome trace export: %v, %.200s", err, cb)
	}
}

// promLine matches one Prometheus text-exposition sample:
// name{label="value",...} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? `)

// checkPromExposition strictly validates a /metrics body: every line is a
// well-formed sample whose value parses as a float, and the standard
// identification metrics are present.
func checkPromExposition(t *testing.T, daemon, body string) {
	t.Helper()
	samples := 0
	for i, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindString(line)
		if m == "" {
			t.Fatalf("%s /metrics line %d malformed: %q", daemon, i+1, line)
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(line[len(m):]), 64); err != nil {
			t.Fatalf("%s /metrics line %d value: %v (%q)", daemon, i+1, err, line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatalf("%s /metrics exposed no samples:\n%s", daemon, body)
	}
	for _, want := range []string{"falkon_build_info{component=\"" + daemon + "\"", "falkon_uptime_seconds{component=\"" + daemon + "\"}"} {
		if !strings.Contains(body, want) {
			t.Fatalf("%s /metrics missing %q:\n%s", daemon, want, body)
		}
	}
}

// TestBinariesMetricsExposition scrapes every daemon's /metrics — the
// dispatcher, an executor, a forwarder in front, and the submit client —
// and validates the exposition format parses strictly and carries the
// build-info and uptime identification series.
func TestBinariesMetricsExposition(t *testing.T) {
	bin := buildBinaries(t)
	ephemeral := "127.0.0.1:0"
	both := []string{listeningOn, debugEndpoints}
	addrs := startAnnounced(t, filepath.Join(bin, "falkon-dispatcher"), both, "-addr", ephemeral, "-quiet", "-stats-every", "0", "-debug-addr", ephemeral)
	dispAddr, dispDebug := addrs[0], addrs[1]
	execDebug := startAnnounced(t, filepath.Join(bin, "falkon-executor"), []string{debugEndpoints}, "-dispatcher", dispAddr, "-debug-addr", ephemeral)[0]
	fwdDebug := startAnnounced(t, filepath.Join(bin, "falkon-dispatcher"), both, "-addr", ephemeral, "-leaves", dispAddr, "-debug-addr", ephemeral)[1]
	// A workload long enough that the client daemon is still up — and its
	// debug endpoint scrapeable — while we poll every process.
	subDebug := startAnnounced(t, filepath.Join(bin, "falkon-submit"), []string{debugEndpoints},
		"-dispatcher", dispAddr, "-sleep0", "400", "-sleep", "20ms", "-bundle", "20", "-timeout", "120s", "-debug-addr", ephemeral)[0]

	for daemon, addr := range map[string]string{
		"dispatcher": dispDebug,
		"executor":   execDebug,
		"forwarder":  fwdDebug,
		"submit":     subDebug,
	} {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatalf("GET %s /metrics: %v", daemon, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /metrics status %d", daemon, resp.StatusCode)
		}
		checkPromExposition(t, daemon, string(body))
		// Every process here runs this repo's encoders, so no task-carrying
		// body may have needed the decoders' encoding/json fallback.
		if !regexp.MustCompile(`(?m)^falkon_codec_fallbacks_total 0$`).MatchString(string(body)) {
			t.Errorf("%s /metrics: want falkon_codec_fallbacks_total 0, got:\n%s", daemon,
				regexp.MustCompile(`(?m)^.*codec.*$`).FindAllString(string(body), -1))
		}
		// The batch depth dispatch-ahead settled on reads off the dispatcher.
		if daemon == "dispatcher" && !strings.Contains(string(body), "\nfalkon_dispatch_grant_tasks_count ") {
			t.Errorf("dispatcher /metrics carries no falkon_dispatch_grant_tasks summary")
		}
		// And whether the executors are on the short path: grants that rode
		// the work push instead of a pull's reply.
		if daemon == "dispatcher" && !strings.Contains(string(body), "\nfalkon_dispatch_grants_pushed_total ") {
			t.Errorf("dispatcher /metrics carries no falkon_dispatch_grants_pushed_total")
		}
	}
}

// Mixed versions against the real dispatcher binary. An executor built before
// the work grant — played here over wsrpc: it registers without the
// capability, pulls when told that work is available and delivers — completes
// 2,000 tasks with not one grant pushed; the falkon-executor binary that takes
// its place is handed unqueued tasks in the push.
func TestBinariesOldExecutorIsNeverPushed(t *testing.T) {
	bin := buildBinaries(t)
	dispAddr, debugAddr := freePort(t), freePort(t)
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), "-addr", dispAddr, "-quiet", "-stats-every", "0", "-debug-addr", debugAddr)
	waitListening(t, dispAddr)
	waitListening(t, debugAddr)
	pushed := func() string {
		t.Helper()
		resp, err := http.Get("http://" + debugAddr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		m := regexp.MustCompile(`(?m)^falkon_dispatch_grants_pushed_total (\d+)$`).FindStringSubmatch(string(body))
		if m == nil {
			t.Fatalf("dispatcher /metrics carries no falkon_dispatch_grants_pushed_total:\n%s", body)
		}
		return m[1]
	}
	submit := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(filepath.Join(bin, "falkon-submit"), append([]string{"-dispatcher", dispAddr, "-timeout", "60s"}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("falkon-submit: %v\n%s", err, out)
		}
		return string(out)
	}

	wake := make(chan struct{}, 1)
	granted := make(chan string, 1)
	old, err := wsrpc.Dial(dispAddr, wsrpc.ClientOptions{OnNotify: func(method string, _ json.RawMessage) {
		if method != fproto.NotifyWorkAvailable {
			select {
			case granted <- method:
			default:
			}
		}
		select {
		case wake <- struct{}{}:
		default:
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := old.Call(fproto.MethodRegister, fproto.RegisterRequest{ExecutorID: "old", Slots: 1}, nil); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range wake {
			var work fproto.GetWorkReply
			if old.Call(fproto.MethodGetWork, fproto.GetWorkRequest{ExecutorID: "old", Max: 8}, &work) != nil {
				return
			}
			for as := work.Assignments; len(as) > 0; {
				req := fproto.DeliverRequest{ExecutorID: "old", WantWork: true, MaxNew: 8}
				for _, a := range as {
					req.Results = append(req.Results, fproto.TaggedResult{EPR: a.EPR, Result: task.Result{ID: a.Task.ID}})
				}
				var ack fproto.DeliverReply
				if old.Call(fproto.MethodDeliver, req, &ack) != nil {
					return
				}
				as = ack.Assignments
			}
		}
	}()
	if out := submit("-sleep0", "2000", "-bundle", "50"); !strings.Contains(out, "completed 2000 tasks (0 failed)") {
		t.Fatalf("submit output: %s", out)
	}
	for i := 0; i < 5; i++ { // unqueued tasks: what a push would have carried
		submit("-sleep0", "1")
	}
	select {
	case method := <-granted:
		t.Fatalf("the old executor was sent a %s", method)
	default:
	}
	if got := pushed(); got != "0" {
		t.Fatalf("falkon_dispatch_grants_pushed_total = %s with only an old executor registered, want 0", got)
	}

	old.Close()
	startProc(t, filepath.Join(bin, "falkon-executor"), "-dispatcher", dispAddr)
	for i := 0; i < 5; i++ {
		submit("-sleep0", "1") // the first is pulled and leaves the slot waiting
	}
	if got := pushed(); got == "0" {
		t.Fatal("falkon_dispatch_grants_pushed_total = 0 after five unqueued tasks on a falkon-executor")
	}
}

func TestBinariesCrashRecovery(t *testing.T) {
	bin := buildBinaries(t)
	dispAddr := freePort(t)
	jdir := t.TempDir()
	dispArgs := []string{"-addr", dispAddr, "-quiet", "-stats-every", "0",
		"-journal-dir", jdir, "-journal-sync", "group"}
	disp := startProc(t, filepath.Join(bin, "falkon-dispatcher"), dispArgs...)
	waitListening(t, dispAddr)
	startProc(t, filepath.Join(bin, "falkon-executor"), "-dispatcher", dispAddr,
		"-n", "2", "-reconnect", "-reconnect-timeout", "60s")

	// A workload long enough (400 x 30ms over 2 single-slot executors, ~6s)
	// that the kill below is guaranteed to land mid-run.
	submit := exec.Command(filepath.Join(bin, "falkon-submit"),
		"-dispatcher", dispAddr, "-sleep0", "400", "-sleep", "30ms",
		"-bundle", "20", "-reconnect", "-timeout", "120s")
	var out strings.Builder
	submit.Stdout = &out
	submit.Stderr = &out
	if err := submit.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { submit.Process.Kill(); submit.Wait() })

	// kill -9 the dispatcher mid-run: no drain, no journal seal.
	time.Sleep(1500 * time.Millisecond)
	disp.Process.Kill()
	disp.Wait()

	// Restart on the same address and journal directory; executors and
	// client reconnect and the run finishes with exactly-once delivery.
	startProc(t, filepath.Join(bin, "falkon-dispatcher"), dispArgs...)
	waitListening(t, dispAddr)

	if err := submit.Wait(); err != nil {
		t.Fatalf("falkon-submit after crash: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "completed 400 tasks (0 failed)") {
		t.Fatalf("submit output: %s", out.String())
	}
	if !strings.Contains(out.String(), "reconnects=") {
		t.Fatalf("submit never reconnected (crash missed the run?): %s", out.String())
	}
}

func TestBinariesWorkflow(t *testing.T) {
	bin := buildBinaries(t)
	dag := filepath.Join(t.TempDir(), "dag.json")
	body := `{"name": "e2e", "nodes": [
		{"id": "a", "stage": "one", "duration_ms": 10},
		{"id": "b", "stage": "two", "duration_ms": 10, "deps": ["a"]}
	]}`
	if err := os.WriteFile(dag, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(bin, "falkon-workflow"), "-dag", dag, "-executors", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("falkon-workflow: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "completed 2 tasks") {
		t.Fatalf("workflow output: %s", out)
	}
}
