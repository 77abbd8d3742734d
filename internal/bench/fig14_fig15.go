package bench

import (
	"fmt"
	"time"

	"falkon/internal/lrm"
	"falkon/internal/sim"
	"falkon/internal/simfalkon"
	"falkon/internal/workflow"
	"falkon/internal/workloads"
)

func init() {
	register("fig14", "Figure 14", fig14)
	register("fig15", "Figure 15", fig15)
	register("table5", "Table 5", table5)
}

// fig14 regenerates Figure 14: fMRI workflow execution time for GRAM4+PBS,
// GRAM4+PBS with 8-way clustering, and Falkon with 8 executors, across the
// four problem sizes.
func fig14(_ float64) *Result {
	res := &Result{
		ID:     "fig14",
		Title:  "fMRI AIRSN workflow execution time (s)",
		Header: []string{"volumes", "tasks", "GRAM4+PBS", "GRAM4+PBS clustered (8)", "Falkon (8 executors)"},
	}
	for _, v := range workloads.FMRISizes {
		w := workloads.FMRI(v)

		gram := func() time.Duration {
			e := sim.New(14)
			l := lrm.New(e, lrm.PBS(), 62)
			gw := lrm.NewGateway(e, l, lrm.GRAM4())
			var set *simfalkon.GramOutcomeSet
			simfalkon.RunStagedGram(gw, w, func(s *simfalkon.GramOutcomeSet) { set = s })
			e.Run()
			return set.DoneAt
		}()

		clustered := func() time.Duration {
			e := sim.New(14)
			l := lrm.New(e, lrm.PBS(), 62)
			gw := lrm.NewGateway(e, l, lrm.GRAM4())
			var set *simfalkon.GramOutcomeSet
			simfalkon.RunStagedClustered(gw, w, 8, func(s *simfalkon.GramOutcomeSet) { set = s })
			e.Run()
			return set.DoneAt
		}()

		falkon := func() time.Duration {
			e := sim.New(14)
			m := simfalkon.New(e, simfalkon.NoSecurity())
			for i := 0; i < 8; i++ {
				m.AddExecutor(0, nil)
			}
			var end time.Duration
			simfalkon.RunStaged(m, w, 8, func() { end = e.Now() })
			e.Run()
			return end
		}()

		res.Rows = append(res.Rows, []string{
			fmt.Sprint(v), fmt.Sprint(w.TotalTasks()),
			f0(gram.Seconds()), f0(clustered.Seconds()), f0(falkon.Seconds()),
		})
	}
	res.Notes = append(res.Notes,
		"paper: GRAM4+PBS performs worst despite up to 62 available nodes; clustering cuts time >4x on 8 processors; Falkon reduces it further, especially for small problems",
		"end-to-end reduction Falkon vs GRAM4+PBS is the paper's 'up to 90%' claim")
	return res
}

// fig15 regenerates Figure 15: Montage per-stage execution times for
// GRAM4+PBS with clustering, Falkon, and the Montage team's MPI version
// (modeled as ideal pipelined stage time plus per-stage init/aggregate
// overhead, with the final co-add parallelized only under MPI).
func fig15(_ float64) *Result {
	g := workflow.MontageGraph()
	const procs = 32

	runProvider := func(p workflow.Provider, e *sim.Engine) workflow.Report {
		var rep workflow.Report
		if err := workflow.Run(g, p, func(r workflow.Report) { rep = r }); err != nil {
			panic(err)
		}
		e.Run()
		return rep
	}

	// Falkon: 32 executors on the virtual-time model.
	eF := sim.New(15)
	mF := simfalkon.New(eF, simfalkon.NoSecurity())
	for i := 0; i < procs; i++ {
		mF.AddExecutor(0, nil)
	}
	falkonRep := runProvider(&workflow.FalkonProvider{Model: mF, Bundle: 32}, eF)

	// GRAM4+PBS with clustering (32 clusters per ready wave).
	eG := sim.New(15)
	lG := lrm.New(eG, lrm.PBS(), procs)
	gwG := lrm.NewGateway(eG, lG, lrm.GRAM4())
	gramRep := runProvider(&workflow.ClusteredGramProvider{Gateway: gwG, Clusters: procs}, eG)

	// MPI model: each stage runs at ideal pipelined speed on 32 processors
	// (including the final co-add, parallelized only in the MPI version)
	// plus a per-stage initialization/aggregation cost.
	const mpiStageOverhead = 35 * time.Second
	w := workloads.Montage()
	mpiStage := make([]time.Duration, len(w.Stages))
	for i, s := range w.Stages {
		single := workloads.Workload{Stages: []workloads.Stage{s}}
		mpiStage[i] = single.IdealMakespan(procs) + mpiStageOverhead
	}

	res := &Result{
		ID:     "fig15",
		Title:  "Montage (3x3 deg mosaic, M16) per-stage execution time (s)",
		Header: []string{"stage", "GRAM4+PBS clustered", "Falkon", "MPI"},
	}
	stageNames := workloads.MontageStageNames
	prevG, prevF := time.Duration(0), time.Duration(0)
	var totalG, totalF, totalM time.Duration
	var exAddF, exAddM time.Duration
	for i, name := range stageNames {
		gEnd := gramRep.StageEnd[name]
		fEnd := falkonRep.StageEnd[name]
		gDur := gEnd - prevG
		fDur := fEnd - prevF
		prevG, prevF = gEnd, fEnd
		res.Rows = append(res.Rows, []string{
			name, f0(gDur.Seconds()), f0(fDur.Seconds()), f0(mpiStage[i].Seconds()),
		})
		totalG += gDur
		totalF += fDur
		totalM += mpiStage[i]
		if name != "mAdd" {
			exAddF += fDur
			exAddM += mpiStage[i]
		}
	}
	res.Rows = append(res.Rows, []string{"total", f0(totalG.Seconds()), f0(totalF.Seconds()), f0(totalM.Seconds())})
	res.Notes = append(res.Notes,
		fmt.Sprintf("excluding the final mAdd: Falkon %.0f s vs MPI %.0f s (paper: 1,067 s vs 1,120 s, Falkon ~5%% faster)", exAddF.Seconds(), exAddM.Seconds()),
		"the final co-add is only parallelized in the MPI version, so Falkon performs poorly in that stage (as in the paper)")
	return res
}

// table5 prints Table 5: the Swift application catalog.
func table5(_ float64) *Result {
	res := &Result{
		ID:     "table5",
		Title:  "Swift applications that could benefit from Falkon",
		Header: []string{"application", "#tasks/workflow", "#stages"},
	}
	for _, c := range workloads.Catalog() {
		res.Rows = append(res.Rows, []string{c.Application, c.TasksPer, c.Stages})
	}
	return res
}
