package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// childResult is what a run in a process of its own printed.
type childResult struct {
	detail detailLine
	result resultLine
}

// runChild runs one workload in a fresh process of this same binary — peak
// RSS is a per-process figure — copies what it prints to out, and parses
// its last two lines.
func (o options) runChild(workload string, seed uint64, out io.Writer) (childResult, error) {
	var cr childResult
	self, err := os.Executable()
	if err != nil {
		return cr, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace))
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return cr, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last, detail string
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		if rest, ok := strings.CutPrefix(sc.Text(), "detail: "); ok {
			detail = rest
		}
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(detail), &cr.detail); err != nil {
		return cr, fmt.Errorf("%s seed %d: detail line: %w", workload, seed, err)
	}
	if err := json.Unmarshal([]byte(last), &cr.result); err != nil {
		return cr, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return cr, nil
}

// runAA runs every workload o.aa times, twice, each run with another seed,
// and prints per workload and metric how well the two sets of runs of this
// one commit agree: the two medians and their difference, and within each
// set (max−min)/median and the interquartile range as a share of the median.
// The bounds in BENCHMARK.json come from this table. Every run's detail and
// result lines are kept in .bench_build/aa-runs.jsonl.
func (o options) runAA() error {
	runs, err := os.Create(filepath.Join(filepath.Dir(checkoutJournalRoot), "aa-runs.jsonl"))
	if err != nil {
		return err
	}
	defer runs.Close()
	var env *environment
	sets := [2]map[string][]float64{{}, {}} // "workload metric" → values
	for set := range sets {
		for i := 0; i < o.aa; i++ {
			for _, w := range workloads {
				seed := o.seed + uint64(set*o.aa+i)
				fmt.Fprintf(os.Stderr, "aa: set %d run %d/%d %s seed=%d\n", set+1, i+1, o.aa, w.name, seed)
				cr, err := o.runChild(w.name, seed, io.Discard)
				if err != nil {
					return err
				}
				if err := json.NewEncoder(runs).Encode(struct {
					Set    int        `json:"set"`
					Detail detailLine `json:"detail"`
					Result resultLine `json:"result"`
				}{set + 1, cr.detail, cr.result}); err != nil {
					return err
				}
				if env == nil {
					env = &cr.detail.Env
				} else if *env != cr.detail.Env {
					return fmt.Errorf("refusing to mix environments: %v and %v", *env, cr.detail.Env)
				}
				for name, v := range cr.result.Metrics {
					key := w.name + " " + name
					sets[set][key] = append(sets[set][key], v.Value)
				}
				for name, v := range cr.detail.AsTimed {
					key := w.name + " " + name + asTimedSuffix
					sets[set][key] = append(sets[set][key], v)
				}
			}
		}
	}
	defs := endToEndMetrics
	if o.trace == 1 {
		defs = perLayerMetrics
	}
	fmt.Printf("A/A: 2 sets of %d runs, --seconds %d\nenvironment: %s\n", o.aa, o.seconds, env)
	fmt.Printf("| workload | metric | unit | median A | median B | B vs A | range/median A | range/median B | IQR/median A | IQR/median B |\n")
	fmt.Printf("|---|---|---|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, w := range workloads {
		for _, d := range defs {
			// A scaled metric is followed by the same figure as timed.
			for _, name := range []string{d.name, d.name + asTimedSuffix} {
				a, b := sets[0][w.name+" "+name], sets[1][w.name+" "+name]
				if len(a) == 0 {
					continue
				}
				ma, mb := median(a), median(b)
				diff := 0.0
				if ma != 0 {
					diff = (mb - ma) / ma
				}
				fmt.Printf("| %s | %s | %s | %.4f | %.4f | %+.1f%% | %.1f%% | %.1f%% | %.1f%% | %.1f%% |\n",
					w.name, name, d.unit, ma, mb, 100*diff, 100*spread(a), 100*spread(b), 100*iqrShare(a), 100*iqrShare(b))
			}
		}
	}
	return nil
}

const asTimedSuffix = " (as timed)"
