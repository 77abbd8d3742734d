package provision_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"falkon/internal/lrm"
	"falkon/internal/provision"
	"falkon/internal/sim"
	"falkon/internal/simfalkon"
)

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestAllAtOncePolicy(t *testing.T) {
	p := provision.AllAtOnce()
	if got := p.Requests(32); len(got) != 1 || got[0] != 32 {
		t.Fatalf("requests = %v", got)
	}
	if got := p.Requests(0); got != nil {
		t.Fatalf("requests(0) = %v", got)
	}
	if p.Name() != "all-at-once" {
		t.Fatal("name")
	}
}

func TestOneAtATimePolicy(t *testing.T) {
	p := provision.OneAtATime()
	got := p.Requests(5)
	if len(got) != 5 || sum(got) != 5 {
		t.Fatalf("requests = %v", got)
	}
	for _, n := range got {
		if n != 1 {
			t.Fatalf("requests = %v", got)
		}
	}
}

func TestAdditivePolicy(t *testing.T) {
	p := provision.Additive(2)
	got := p.Requests(12)
	// 2, 4, 6 = 12.
	want := []int{2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("requests = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("requests = %v, want %v", got, want)
		}
	}
	// Last request clamps to the remaining need.
	got = p.Requests(5)
	if sum(got) != 5 {
		t.Fatalf("requests = %v, sum != 5", got)
	}
}

func TestAdditiveValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Additive(0) did not panic")
		}
	}()
	provision.Additive(0)
}

func TestExponentialPolicy(t *testing.T) {
	p := provision.Exponential()
	got := p.Requests(10)
	// 1, 2, 4, 3 (clamped).
	want := []int{1, 2, 4, 3}
	if len(got) != len(want) || sum(got) != 10 {
		t.Fatalf("requests = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("requests = %v, want %v", got, want)
		}
	}
}

func TestAvailablePolicy(t *testing.T) {
	p := provision.Available(func() int { return 3 })
	if got := p.Requests(10); len(got) != 1 || got[0] != 3 {
		t.Fatalf("requests = %v", got)
	}
	none := provision.Available(func() int { return 0 })
	if got := none.Requests(10); got != nil {
		t.Fatalf("requests with no free = %v", got)
	}
}

// Property-ish sweep: every policy's requests sum to at most the need and
// are each positive.
func TestPoliciesConserveNeed(t *testing.T) {
	policies := []provision.AcquisitionPolicy{
		provision.AllAtOnce(),
		provision.OneAtATime(),
		provision.Additive(3),
		provision.Exponential(),
		provision.Available(func() int { return 1 << 20 }),
	}
	for _, p := range policies {
		for need := 0; need <= 100; need++ {
			got := p.Requests(need)
			if s := sum(got); s != need {
				t.Fatalf("%s.Requests(%d) sums to %d", p.Name(), need, s)
			}
			for _, n := range got {
				if n <= 0 {
					t.Fatalf("%s.Requests(%d) contains %d", p.Name(), need, n)
				}
			}
		}
	}
}

func TestReleasePolicyString(t *testing.T) {
	if provision.ReleaseDistributed.String() != "distributed" ||
		provision.ReleaseCentralized.String() != "centralized" ||
		provision.ReleaseNever.String() != "never" {
		t.Fatal("release policy names")
	}
	if provision.ReleasePolicy(9).String() != "release(9)" {
		t.Fatal("unknown release policy name")
	}
}

// fakeAllocator is the wall-clock driver's stand-in for a resource manager:
// an allocation's executors are starting until settle, alive after it.
type fakeAllocator struct {
	allocs         map[string]int
	next           int
	alive, pending int
}

func (f *fakeAllocator) Allocate(n int, _ time.Duration) (string, error) {
	if f.allocs == nil {
		f.allocs = make(map[string]int)
	}
	f.next++
	id := fmt.Sprintf("alloc-%d", f.next)
	f.allocs[id] = n
	f.pending += n
	return id, nil
}

func (f *fakeAllocator) Deallocate(id string) error {
	n, ok := f.allocs[id]
	if !ok {
		return fmt.Errorf("unknown allocation %q", id)
	}
	f.alive -= n
	delete(f.allocs, id)
	return nil
}

func (f *fakeAllocator) Counts() (int, int) { return f.alive, f.pending }

func (f *fakeAllocator) settle() { f.alive, f.pending = f.alive+f.pending, 0 }

// recorder notes the calls the provisioner makes on the allocator under it.
type recorder struct {
	provision.Allocator
	calls []string
}

func (r *recorder) Allocate(n int, idle time.Duration) (string, error) {
	id, err := r.Allocator.Allocate(n, idle)
	r.calls = append(r.calls, fmt.Sprintf("allocate %d idle=%v as %s", n, idle, id))
	return id, err
}

func (r *recorder) Deallocate(id string) error {
	r.calls = append(r.calls, "deallocate "+id)
	return r.Allocator.Deallocate(id)
}

// step is one Poll: the stats it reads and the allocator calls it must make.
// settle lets what earlier steps allocated come up first.
type step struct {
	settle bool
	st     provision.Stats
	want   []string
}

// The §3.1 decision as a table: options, then polls. Each row runs against
// the fake allocator and against the simulator's (a GRAM gateway over a PBS
// model, executors registering with a simfalkon.Model), and both must see
// the same calls: the decision depends on the counts, not on who supplies
// them.
var decisionTable = []struct {
	name  string
	opts  provision.Options
	steps []step
}{
	{"queue depth clamps at max, then demand is met",
		provision.Options{MaxExecutors: 8, Release: provision.ReleaseNever},
		[]step{
			{st: provision.Stats{Queued: 10}, want: []string{"allocate 8 idle=0s as alloc-1"}},
			{st: provision.Stats{Queued: 10}}, // still starting: pending counts as had
			{settle: true, st: provision.Stats{Queued: 3, Running: 8}},
		}},
	{"running tasks are demand too",
		provision.Options{MaxExecutors: 8, Release: provision.ReleaseNever},
		[]step{
			{st: provision.Stats{Queued: 1, Running: 2}, want: []string{"allocate 3 idle=0s as alloc-1"}},
			{settle: true, st: provision.Stats{Queued: 2, Running: 3}, want: []string{"allocate 2 idle=0s as alloc-2"}},
		}},
	{"min executors held with nothing to do",
		provision.Options{MinExecutors: 2, MaxExecutors: 8, Release: provision.ReleaseNever},
		[]step{
			{want: []string{"allocate 2 idle=0s as alloc-1"}},
			{settle: true},
		}},
	{"the acquisition policy cuts the need",
		provision.Options{MaxExecutors: 8, Acquisition: provision.Exponential(), Release: provision.ReleaseNever},
		[]step{
			{st: provision.Stats{Queued: 7}, want: []string{
				"allocate 1 idle=0s as alloc-1", "allocate 2 idle=0s as alloc-2", "allocate 4 idle=0s as alloc-3"}},
		}},
	{"distributed release hands executors their timeout and never deallocates",
		provision.Options{MaxExecutors: 4, Release: provision.ReleaseDistributed, IdleTimeout: time.Hour},
		[]step{
			{st: provision.Stats{Queued: 4}, want: []string{"allocate 4 idle=1h0m0s as alloc-1"}},
			{settle: true},
		}},
	{"centralized release: newest allocation first, one a poll, only when nothing runs",
		provision.Options{MaxExecutors: 4, Release: provision.ReleaseCentralized, QueueThreshold: 1, IdleTimeout: time.Hour},
		[]step{
			{st: provision.Stats{Queued: 2}, want: []string{"allocate 2 idle=0s as alloc-1"}},
			{settle: true, st: provision.Stats{Queued: 4}, want: []string{"allocate 2 idle=0s as alloc-2"}},
			{settle: true, st: provision.Stats{Running: 1}},
			{st: provision.Stats{Queued: 1}},
			{want: []string{"deallocate alloc-2"}},
			{want: []string{"deallocate alloc-1"}},
			{},
		}},
	{"centralized release below a queue threshold, down to min",
		provision.Options{MinExecutors: 2, MaxExecutors: 6, Release: provision.ReleaseCentralized, QueueThreshold: 3},
		[]step{
			{st: provision.Stats{Queued: 4}, want: []string{"allocate 4 idle=0s as alloc-1"}},
			{settle: true, st: provision.Stats{Queued: 6}, want: []string{"allocate 2 idle=0s as alloc-2"}},
			{settle: true, st: provision.Stats{Queued: 3}},
			{st: provision.Stats{Queued: 2}, want: []string{"deallocate alloc-2"}},
			// Four alive is above min, but they are one allocation: giving it
			// back would leave none.
			{st: provision.Stats{Queued: 2}},
		}},
	{"centralized release never cuts below min: an allocation goes whole or stays",
		provision.Options{MinExecutors: 2, MaxExecutors: 4, Release: provision.ReleaseCentralized, QueueThreshold: 1},
		[]step{
			{st: provision.Stats{Queued: 4}, want: []string{"allocate 4 idle=0s as alloc-1"}},
			{settle: true}, // four alive is above min, and what would stay is below it
			{},
		}},
}

func TestDecisionTable(t *testing.T) {
	allocators := map[string]func() (alloc provision.Allocator, settle func()){
		"fake": func() (provision.Allocator, func()) {
			f := &fakeAllocator{}
			return f, f.settle
		},
		"simfalkon": func() (provision.Allocator, func()) {
			e := sim.New(1)
			gw := lrm.NewGateway(e, lrm.New(e, lrm.PBS(), 100), lrm.GRAM4())
			a := simfalkon.NewAllocator(simfalkon.New(e, simfalkon.NoSecurity()), gw)
			// Ten minutes covers PBS's worst start (the paper's 5-65 s) and
			// is short of the rows' idle timeout.
			return a, func() { e.RunUntil(e.Now() + 10*time.Minute) }
		},
	}
	for _, row := range decisionTable {
		for kind, build := range allocators {
			t.Run(row.name+"/"+kind, func(t *testing.T) {
				alloc, settle := build()
				rec := &recorder{Allocator: alloc}
				var st provision.Stats
				opts := row.opts
				opts.Allocator = rec
				opts.Stats = func() (provision.Stats, error) { return st, nil }
				opts.Logf = t.Logf
				p, err := provision.New(opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range row.steps {
					if s.settle {
						settle()
					}
					st, rec.calls = s.st, nil
					p.Poll()
					if !reflect.DeepEqual(rec.calls, s.want) {
						alive, pending := alloc.Counts()
						t.Fatalf("poll %d (%+v, alive %d, pending %d): calls %q, want %q", i, s.st, alive, pending, rec.calls, s.want)
					}
				}
			})
		}
	}
}

func TestProvisionerAcquiresForQueueDepth(t *testing.T) {
	alloc := &fakeAllocator{}
	p, err := provision.New(provision.Options{
		Stats:        func() (provision.Stats, error) { return provision.Stats{Queued: 10}, nil },
		Allocator:    alloc,
		MaxExecutors: 8,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for poll := 0; poll < 5; poll++ {
		p.Poll()
		alloc.settle()
		if alive, _ := alloc.Counts(); alive != 8 {
			t.Fatalf("poll %d: alive = %d, want 8 (clamped at MaxExecutors)", poll, alive)
		}
	}
	if p.Allocations() != 1 {
		t.Fatalf("allocations = %d, want 1 (all-at-once)", p.Allocations())
	}
}

func TestProvisionerCentralizedRelease(t *testing.T) {
	alloc := &fakeAllocator{}
	queued := 4
	p, err := provision.New(provision.Options{
		Stats:          func() (provision.Stats, error) { return provision.Stats{Queued: queued}, nil },
		Allocator:      alloc,
		Release:        provision.ReleaseCentralized,
		QueueThreshold: 1,
		MaxExecutors:   4,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Poll()
	alloc.settle()
	if alive, _ := alloc.Counts(); alive != 4 {
		t.Fatalf("alive = %d, want 4", alive)
	}
	queued = 0
	p.Poll()
	if alive, _ := alloc.Counts(); alive != 0 {
		t.Fatalf("alive = %d after the queue drained", alive)
	}
	if p.Allocations() != 1 {
		t.Fatalf("allocations = %d, want 1 (a release is not a request)", p.Allocations())
	}
}

// The wall-clock driver is a ticker around Poll: it evaluates at once on
// Start, and Stop returns with the loop gone.
func TestStartPollsImmediatelyAndStops(t *testing.T) {
	polled := make(chan struct{}, 1)
	p, err := provision.New(provision.Options{
		Stats: func() (provision.Stats, error) {
			select {
			case polled <- struct{}{}:
			default:
			}
			return provision.Stats{}, nil
		},
		Allocator:    &fakeAllocator{},
		MaxExecutors: 1,
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	<-polled
	p.Stop()
	p.Stop() // a second Stop is harmless
}

func TestProvisionerValidation(t *testing.T) {
	stats := func() (provision.Stats, error) { return provision.Stats{}, nil }
	alloc := &fakeAllocator{}
	cases := []provision.Options{
		{Allocator: alloc, MaxExecutors: 1},                                // nil stats
		{Stats: stats, MaxExecutors: 1},                                    // nil allocator
		{Stats: stats, Allocator: alloc},                                   // zero max
		{Stats: stats, Allocator: alloc, MaxExecutors: 2, MinExecutors: 5}, // min > max
	}
	for i, o := range cases {
		if _, err := provision.New(o); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// The decision is clock-free and runtime-free so that the simulator can run
// the one that ships. LocalAllocator, which starts real executors, lives with
// its caller in internal/core; this guard keeps such code from growing back.
func TestNoLiveRuntimeImports(t *testing.T) {
	live := regexp.MustCompile(`^falkon/internal/(executor|wsrpc|fproto|dispatch|client|wal|core)$`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); live.MatchString(path) {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}
