package bench

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestEveryExperimentRunsAtSmallScale(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id {
				t.Fatalf("result id = %q", res.ID)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range res.Rows {
				if len(row) != len(res.Header) {
					t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(res.Header))
				}
			}
			out := res.Render()
			if !strings.Contains(out, res.Title) {
				t.Fatal("render missing title")
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", 1); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunScaleValidation(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		if _, err := Run("fig11", s); err == nil {
			t.Fatalf("scale %v accepted", s)
		}
	}
}

func TestIDsCoverEveryPaperArtifact(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15",
		"table2", "table3", "table4", "table5",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	// And the other way round: every registered id is one EXPERIMENTS.md
	// indexes, named as a whole word.
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, w := range regexp.MustCompile(`[\w-]+`).FindAll(doc, -1) {
		named[string(w)] = true
	}
	for _, id := range IDs() {
		if !named[id] {
			t.Errorf("experiment %q is registered but EXPERIMENTS.md never names it", id)
		}
	}
}

// This package regenerates the paper on the simulator, in virtual time.
// Timing the live runtime belongs in benchmark/ (reference loop, GOMAXPROCS
// recorded) or in an exact-count test beside the code it counts; a second
// live harness here is what this guard keeps from growing back.
func TestNoLiveRuntimeImports(t *testing.T) {
	live := regexp.MustCompile(`^falkon/internal/(core|client|dispatch|executor|forward|wsrpc|wal)$`)
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

// The §4.6 rows as recorded at 1792109, when a simulator-private copy of the
// acquire rule produced them. They now come from provision.Provisioner.Poll,
// the decision the live runtime ships, and must not have moved: a change to
// that decision (or to the model under it) shows up here as a diff of the
// paper's tables, to be re-pinned with its reason in EXPERIMENTS.md.
func TestProvisioningTablesPinned(t *testing.T) {
	pinned := map[string][]string{
		"table3": {
			"GRAM4+PBS|495.6|55.5|10.1%",
			"Falkon-15|96.8|17.9|15.6%",
			"Falkon-60|102.7|17.9|14.8%",
			"Falkon-120|79.3|17.9|18.4%",
			"Falkon-180|44.1|17.9|28.8%",
			"Falkon-inf|42.2|17.9|29.7%",
			"Ideal (32 nodes)|42.2|17.8|29.7%",
		},
		"table4": {
			"GRAM4+PBS|4121|32.1%|30.6%|1000",
			"Falkon-15|1916|88.0%|65.8%|12",
			"Falkon-60|1787|71.5%|70.5%|9",
			"Falkon-120|1690|62.9%|74.6%|7",
			"Falkon-180|1630|59.1%|77.3%|6",
			"Falkon-inf|1264|44.1%|99.7%|0",
			"Ideal (32 nodes)|1260|100.0%|100.0%|0",
		},
		"abl-acquisition": {
			"all-at-once|134.4|134.4|1916|12",
			"one-at-a-time|134.4|366.2|1916|125",
			"additive-4|134.4|134.4|1916|25",
			"exponential|134.4|134.4|1916|38",
		},
	}
	for id, want := range pinned {
		res, err := Run(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range res.Rows {
			got = append(got, strings.Join(row, "|"))
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s rows moved:\n%s\nwant:\n%s", id, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

func TestRenderAlignment(t *testing.T) {
	r := &Result{
		ID:     "x",
		Title:  "T",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"wide-cell", "1"}},
		Notes:  []string{"n1"},
	}
	out := r.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("render lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[4], "note: n1") {
		t.Fatalf("notes line = %q", lines[4])
	}
	// Header and row columns align.
	if len(lines[1]) < len("wide-cell  bbbb") {
		t.Fatalf("header not padded: %q", lines[1])
	}
}

func TestScaledHelper(t *testing.T) {
	if got := scaled(100, 0.5, 1); got != 50 {
		t.Fatalf("scaled = %d", got)
	}
	if got := scaled(100, 0.001, 10); got != 10 {
		t.Fatalf("scaled floor = %d", got)
	}
}
