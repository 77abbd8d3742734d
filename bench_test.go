package falkon_test

import (
	"testing"

	"falkon/internal/bench"
)

// benchExperiment runs one paper experiment per iteration at the given
// scale. Full-scale runs are available through cmd/falkon-bench; benchmarks
// use reduced scales where the full experiment is long (the 2M-task
// endurance run, the 54K-executor run) so `go test -bench` stays quick
// while preserving each experiment's shape.
func benchExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(id, scale)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// Figure 3: throughput vs executor count (Falkon ± security, GT4 bound).
func BenchmarkFig3Throughput(b *testing.B) { benchExperiment(b, "fig3", 0.25) }

// Table 2: measured/cited throughput for Falkon, Condor, PBS.
func BenchmarkTable2Throughput(b *testing.B) { benchExperiment(b, "table2", 1) }

// Figure 4: throughput vs data size across the four storage configurations.
func BenchmarkFig4DataThroughput(b *testing.B) { benchExperiment(b, "fig4", 1) }

// Figure 5: bundling throughput and per-task cost vs bundle size.
func BenchmarkFig5Bundling(b *testing.B) { benchExperiment(b, "fig5", 1) }

// Figure 6: efficiency vs executors and task length.
func BenchmarkFig6Efficiency(b *testing.B) { benchExperiment(b, "fig6", 0.25) }

// Figure 7: efficiency on 64 processors, Falkon vs PBS vs Condor.
func BenchmarkFig7EfficiencyLRM(b *testing.B) { benchExperiment(b, "fig7", 1) }

// Figure 8: the 2M-task endurance run (scaled to 100K tasks per iteration).
func BenchmarkFig8Endurance(b *testing.B) { benchExperiment(b, "fig8", 0.05) }

// Figure 9: 54K-executor scalability (scaled to 10.8K executors).
func BenchmarkFig9Scale54K(b *testing.B) { benchExperiment(b, "fig9", 0.2) }

// Figure 10: per-task overhead distribution in the 54K run.
func BenchmarkFig10Overhead(b *testing.B) { benchExperiment(b, "fig10", 0.2) }

// Figure 11: the 18-stage synthetic workload shape.
func BenchmarkFig11Workload(b *testing.B) { benchExperiment(b, "fig11", 1) }

// Table 3: per-task queue/exec times across provisioning strategies.
func BenchmarkTable3Provisioning(b *testing.B) { benchExperiment(b, "table3", 1) }

// Table 4: utilization/efficiency/allocations across strategies.
func BenchmarkTable4Provisioning(b *testing.B) { benchExperiment(b, "table4", 1) }

// Figure 12: executor state trace under Falkon-15.
func BenchmarkFig12Falkon15(b *testing.B) { benchExperiment(b, "fig12", 1) }

// Figure 13: executor state trace under Falkon-180.
func BenchmarkFig13Falkon180(b *testing.B) { benchExperiment(b, "fig13", 1) }

// Figure 14: fMRI workflow times across providers and problem sizes.
func BenchmarkFig14FMRI(b *testing.B) { benchExperiment(b, "fig14", 1) }

// Figure 15: Montage per-stage times (GRAM4 clustered, Falkon, MPI).
func BenchmarkFig15Montage(b *testing.B) { benchExperiment(b, "fig15", 1) }

// Table 5: the Swift application catalog.
func BenchmarkTable5Catalog(b *testing.B) { benchExperiment(b, "table5", 1) }

// Ablation experiments (DESIGN.md §6 and the paper's §6 future work).

// Hybrid push/pull vs pure pull polling.
func BenchmarkAblPushPull(b *testing.B) { benchExperiment(b, "abl-pushpull", 0.5) }

// Piggy-backing on/off.
func BenchmarkAblPiggyback(b *testing.B) { benchExperiment(b, "abl-piggyback", 0.5) }

// The five acquisition policies.
func BenchmarkAblAcquisition(b *testing.B) { benchExperiment(b, "abl-acquisition", 1) }

// Distributed vs centralized vs never release.
func BenchmarkAblRelease(b *testing.B) { benchExperiment(b, "abl-release", 1) }

// GC stall injection on/off.
func BenchmarkAblGC(b *testing.B) { benchExperiment(b, "abl-gc", 0.5) }

// Data-aware dispatch with executor caching (paper §6 extension).
func BenchmarkAblDataAware(b *testing.B) { benchExperiment(b, "abl-dataaware", 0.5) }

// 3-tier sharding at BlueGene/P scale (paper §6 extension).
func BenchmarkAbl3Tier(b *testing.B) { benchExperiment(b, "abl-3tier", 0.1) }

// Dynamic-contention rederivation of Figure 4 (cross-validates fig4).
func BenchmarkFig4Sim(b *testing.B) { benchExperiment(b, "fig4-sim", 0.25) }
