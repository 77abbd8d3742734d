// Command falkon-top is a minimal operational dashboard: it polls a
// dispatcher's (or forwarder's) stats and prints a refreshing status line —
// queue depth, executor states, completion counters, throughput — plus a
// per-stage dispatch latency panel (the paper's Figure 10 breakdown) built
// from the falkon.metrics histograms. Pointed at a dispatch-tree root, it
// additionally shows one row per leaf: liveness, queue/outstanding depth,
// executor split, the root's routed-bundle counters, and bundles/s.
//
// Usage:
//
//	falkon-top -dispatcher host:7523
//	falkon-top -dispatcher host:7524 -interval 2s   # against a tree root
//	falkon-top -dispatcher host:7523 -stages=false  # status line only
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"falkon/internal/client"
	"falkon/internal/fproto"
	"falkon/internal/obs"
)

func main() {
	var (
		dispatcher = flag.String("dispatcher", "127.0.0.1:7523", "dispatcher or forwarder address")
		interval   = flag.Duration("interval", time.Second, "poll interval")
		once       = flag.Bool("once", false, "print one snapshot and exit")
		stages     = flag.Bool("stages", true, "show the per-stage latency panel")
		overhead   = flag.Bool("overhead", true, "show the scheduler-overhead panel (where the dispatcher's own time goes)")
		leaves     = flag.Bool("leaves", true, "show the per-leaf panel when polling a dispatch-tree root")
		tenants    = flag.Bool("tenants", true, "show the per-tenant panel (hidden without tenant configuration)")
	)
	flag.Parse()

	c, err := client.Connect(client.Options{DispatcherAddr: *dispatcher, Name: "falkon-top"})
	if err != nil {
		log.Fatalf("falkon-top: %v", err)
	}
	defer c.Close()

	var lastCompleted int64
	lastBundles := map[string]int64{}
	lastThrottled := map[string]int64{}
	lastAt := time.Now()
	first := true
	lines := 0
	for {
		st, err := c.Stats()
		if err != nil {
			log.Fatalf("falkon-top: %v", err)
		}
		now := time.Now()
		// No rate on the first sample: the counter delta would span the
		// dispatcher's whole uptime, not one poll interval.
		rate := 0.0
		elapsed := now.Sub(lastAt).Seconds()
		if !first {
			rate = float64(st.Completed-lastCompleted) / elapsed
		}
		first = false
		lastCompleted, lastAt = st.Completed, now

		// Rewind over the previous frame.
		if lines > 0 {
			fmt.Printf("\033[%dA", lines)
		}
		lines = 0
		// notify_errs appears only when nonzero: failed pushes are rare but
		// explain otherwise-mysterious replay timeouts, so they must surface.
		notifyErrs := ""
		if st.NotifyErrors > 0 {
			notifyErrs = fmt.Sprintf(" notify_errs=%d", st.NotifyErrors)
		}
		// A root announces its tree depth; a flat dispatcher stays silent.
		depth := ""
		if st.Depth > 1 {
			depth = fmt.Sprintf("depth=%d ", st.Depth)
		}
		fmt.Printf("\r\033[K%squeued=%-8d running=%-6d executors=%d(busy %d) dispatched=%d done=%d failed=%d retried=%d dup=%d%s rate=%.0f/s\n",
			depth, st.Queued, st.Outstanding, st.TotalExecutors, st.BusyExecutors,
			st.Dispatched, st.Completed, st.Failed, st.Retried, st.Duplicates, notifyErrs, rate)
		lines++
		// Per-leaf panel: present only when polling a dispatch-tree root.
		// Each row is one leaf dispatcher — its live capacity, the root's
		// routing counters toward it, and the bundle rate this interval.
		if *leaves && len(st.Leaves) > 0 {
			fmt.Printf("\033[K%-22s %4s %8s %12s %12s %8s %9s %10s %8s %7s\n",
				"leaf", "up", "queued", "outstanding", "execs(busy)", "pending", "bundles", "bundles/s", "reroute", "redial")
			lines++
			for _, lf := range st.Leaves {
				bundleRate := 0.0
				if prev, ok := lastBundles[lf.Leaf]; ok && elapsed > 0 {
					bundleRate = float64(lf.Bundles-prev) / elapsed
				}
				lastBundles[lf.Leaf] = lf.Bundles
				up := "no"
				if lf.Up {
					up = "yes"
				}
				fmt.Printf("\033[K%-22s %4s %8d %12d %9d(%d) %8d %9d %10.1f %8d %7d\n",
					lf.Leaf, up, lf.Queued, lf.Outstanding, lf.Executors, lf.Busy,
					lf.Pending, lf.Bundles, bundleRate, lf.Reroutes, lf.Reconnects)
				lines++
			}
		}
		// Tenant panel: present only with tenant configuration. Each row is
		// one tenant — fair-share weight, backlog, in-flight work, lifetime
		// counters, admission-control throttles, and the throttle rate this
		// interval.
		if *tenants && len(st.Tenants) > 0 {
			fmt.Printf("\033[K%-16s %7s %8s %9s %10s %10s %7s %10s %11s\n",
				"tenant", "weight", "queued", "inflight", "submitted", "completed", "failed", "throttled", "throttled/s")
			lines++
			for _, tn := range st.Tenants {
				throttleRate := 0.0
				if prev, ok := lastThrottled[tn.Name]; ok && elapsed > 0 {
					throttleRate = float64(tn.Throttled-prev) / elapsed
				}
				lastThrottled[tn.Name] = tn.Throttled
				fmt.Printf("\033[K%-16s %7.1f %8d %9d %10d %10d %7d %10d %11.1f\n",
					tn.Name, tn.Weight, tn.Queued, tn.InFlight, tn.Submitted,
					tn.Completed, tn.Failed, tn.Throttled, throttleRate)
				lines++
			}
		}
		// Replication panel appears only on HA members: the leader's term,
		// mode, and per-standby replication lag (records not yet durably
		// mirrored), or a standby's own position.
		if rs := st.Replication; rs != nil {
			fmt.Printf("\033[Kreplication role=%s term=%d mode=%s stream_end=%d standbys=%d degraded=%d\n",
				rs.Role, rs.Term, rs.Mode, rs.End, len(rs.Standbys), rs.QuorumDegraded)
			lines++
			for _, sb := range rs.Standbys {
				fmt.Printf("\033[K  standby %-20s acked=%-10d lag=%d\n", sb.ID, sb.Acked, sb.Lag)
				lines++
			}
		}
		// Journal panel appears only when the dispatcher journals.
		if st.Journal {
			recovered := ""
			if st.RecoveredTasks > 0 {
				recovered = fmt.Sprintf(" recovered=%d", st.RecoveredTasks)
			}
			// Records, not tasks: one per submit, grant and delivery.
			fmt.Printf("\033[Kjournal records=%d fsyncs=%d%s\n",
				st.JournalAppends, st.JournalFsyncs, recovered)
			lines++
		}

		if *stages || *overhead {
			ms, err := c.Metrics()
			if err != nil {
				log.Fatalf("falkon-top: metrics: %v", err)
			}
			if *stages {
				fmt.Printf("\033[K%-16s %10s %10s %10s %10s\n", "stage", "count", "p50", "p95", "p99")
				lines++
				for _, stage := range obs.Stages {
					lines += printHist(stage, ms.Histogram(obs.StageKey(stage)))
				}
				lines += printHist("end-to-end", ms.Histogram(obs.MetricE2ESeconds))
			}
			if *overhead {
				lines += printOverhead(ms)
			}
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// printOverhead renders the scheduler-overhead panel: per-RPC hot-path
// stages (falkon_sched_overhead_seconds) plus the journal committer's batch
// write+fsync. It is omitted entirely when the endpoint reports no overhead
// samples (an older dispatcher, or nothing dispatched yet); it returns the
// lines printed.
func printOverhead(ms fproto.MetricsReply) int {
	rows := make([]obs.HistSnapshot, len(obs.OverheadStages))
	any := false
	for i, stage := range obs.OverheadStages {
		rows[i] = ms.Histogram(obs.OverheadKey(stage))
		any = any || rows[i].Count > 0
	}
	commit := ms.Histogram(obs.MetricWALCommitSeconds)
	if !any && commit.Count == 0 {
		return 0
	}
	lines := 1
	fmt.Printf("\033[K%-16s %10s %10s %10s %10s\n", "overhead", "count", "mean", "p95", "p99")
	for i, stage := range obs.OverheadStages {
		fmt.Printf("\033[K%-16s %10d %10s %10s %10s\n",
			stage, rows[i].Count, fmtDur(rows[i].Mean()), fmtDur(rows[i].Quantile(0.95)), fmtDur(rows[i].Quantile(0.99)))
		lines++
	}
	if commit.Count > 0 {
		fmt.Printf("\033[K%-16s %10d %10s %10s %10s\n",
			"wal_commit", commit.Count, fmtDur(commit.Mean()), fmtDur(commit.Quantile(0.95)), fmtDur(commit.Quantile(0.99)))
		lines++
	}
	return lines
}

// printHist renders one latency row; it returns the lines printed.
func printHist(label string, h obs.HistSnapshot) int {
	fmt.Printf("\033[K%-16s %10d %10s %10s %10s\n",
		label, h.Count, fmtDur(h.Quantile(0.5)), fmtDur(h.Quantile(0.95)), fmtDur(h.Quantile(0.99)))
	return 1
}

// fmtDur pretty-prints a latency in seconds with sub-ms resolution.
func fmtDur(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(10 * time.Microsecond).String()
}
