package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/oracle"
	"repro/internal/poly"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// gridSpec is a grid workload's input: the cells of one pass, in the
// order they are issued, with the access count each must simulate.
type gridSpec struct {
	cells    []experiments.Cell
	expected []uint64
	// minPasses keeps at least tailOps cells per run, so the tail
	// percentile is chosen from a fixed sample floor.
	minPasses int
	// combinedForRatio, when set, evaluates each Base cell's Combined
	// counterpart after the timed region to compute cycles_ratio.
	combinedForRatio bool
}

// tailOps is the minimum op count of a grid run: with it the percentile
// rule reports p90.
const tailOps = 100

// oracleSample is how many cells per run are re-simulated on the naive
// oracle.
const oracleSample = 2

// mapGridCells is the Fig 13 Dunnington column (the twelve Table 2
// kernels under Base, Base+, TopologyAware and Combined) plus galgel-x2 on
// a 24-core Dunnington under Base and TopologyAware.
func mapGridCells() ([]experiments.Cell, error) {
	cfg := repro.DefaultConfig()
	d := topology.Dunnington()
	cells := experiments.Grid([]*topology.Machine{d}, workloads.All(),
		[]repro.Scheme{repro.SchemeBase, repro.SchemeBasePlus, repro.SchemeTopologyAware, repro.SchemeCombined}, cfg)
	d24, err := topology.ScaleDunnington(24)
	if err != nil {
		return nil, err
	}
	g2, err := workloads.Scaled("galgel", 2)
	if err != nil {
		return nil, err
	}
	return append(cells, experiments.Grid([]*topology.Machine{d24}, []*workloads.Kernel{g2},
		[]repro.Scheme{repro.SchemeBase, repro.SchemeTopologyAware}, cfg)...), nil
}

// simSteadyCells is Table 2 × {Harpertown, Nehalem, Dunnington} under
// Base with eight warm passes per cell.
func simSteadyCells() ([]experiments.Cell, error) {
	cfg := repro.DefaultConfig()
	cfg.Passes = 8
	return experiments.Grid(topology.Commercial(), workloads.All(), []repro.Scheme{repro.SchemeBase}, cfg), nil
}

// setUpGrid is a grid workload's set-up: building its kernels, machines
// and cells. Ordering them and computing the expected counts is the
// benchmark's own work and is not part of it.
func setUpGrid(cells func() ([]experiments.Cell, error)) func(context.Context) (func() error, error) {
	return func(context.Context) (func() error, error) {
		_, err := cells()
		return nil, err
	}
}

func mapGridSpec() (*gridSpec, error) {
	cells, err := mapGridCells()
	if err != nil {
		return nil, err
	}
	return newGridSpec(cells, false), nil
}

func simSteadySpec() (*gridSpec, error) {
	cells, err := simSteadyCells()
	if err != nil {
		return nil, err
	}
	return newGridSpec(cells, true), nil
}

// newGridSpec orders the cells and computes their expected access counts.
// Cells are issued costliest first (mapping schemes before baselines,
// larger traces first), so the last cells of a pass are short and the two
// workers finish together, and in the same order on every run, so the
// pairs of cells that share the CPUs do not change with the seed. The seed
// picks the cells the oracle re-simulates.
func newGridSpec(cells []experiments.Cell, combinedForRatio bool) *gridSpec {
	expected := make(map[string]uint64, len(cells))
	for _, c := range cells {
		expected[c.Key()] = expectedAccesses(c.Kernel, c.Config.Passes)
	}
	class := func(s repro.Scheme) int {
		switch s {
		case repro.SchemeTopologyAware, repro.SchemeCombined:
			return 2
		case repro.SchemeBasePlus:
			return 1
		}
		return 0
	}
	sort.SliceStable(cells, func(i, j int) bool {
		ci, cj := class(cells[i].Scheme), class(cells[j].Scheme)
		if ci != cj {
			return ci > cj
		}
		return expected[cells[i].Key()] > expected[cells[j].Key()]
	})
	spec := &gridSpec{cells: cells, combinedForRatio: combinedForRatio}
	for _, c := range cells {
		spec.expected = append(spec.expected, expected[c.Key()])
	}
	spec.minPasses = (tailOps + len(cells) - 1) / len(cells)
	return spec
}

// expectedAccesses is iterations × references × passes, with the
// iterations counted from the nest's bounds.
func expectedAccesses(k *workloads.Kernel, passes int) uint64 {
	return iterCount(k.Nest) * uint64(len(k.Refs)) * uint64(max(passes, 1))
}

// iterCount counts a nest's iterations from its loop bounds: the innermost
// loop is counted in closed form, the outer ones are walked.
func iterCount(n *poly.Nest) uint64 {
	p := make(poly.Point, n.Depth())
	var walk func(d int) uint64
	walk = func(d int) uint64 {
		l := n.Loops[d]
		lo, hi, step := l.Lower.Eval(p), l.Upper.Eval(p), max(l.Step, 1)
		if hi < lo {
			return 0
		}
		if d == n.Depth()-1 {
			return uint64((hi-lo)/step + 1)
		}
		var total uint64
		for v := lo; v <= hi; v += step {
			p[d] = v
			total += walk(d + 1)
		}
		return total
	}
	return walk(0)
}

// gridSetupReps is how many times the grid workloads launch their
// set-up. A launch takes a few milliseconds.
const gridSetupReps = 15

func measureMapGrid(ctx context.Context, o options) (*outcome, error) {
	return measureGrid(ctx, o, "map_grid", mapGridSpec)
}

func measureSimSteady(ctx context.Context, o options) (*outcome, error) {
	return measureGrid(ctx, o, "sim_steady", simSteadySpec)
}

// measureGrid runs whole passes of the grid on a fresh experiments.Runner
// each (so nothing is served from an earlier pass's memo) until the
// measuring time has passed and at least minPasses passes are done. Each
// pass's times are scaled to the reference host speed over the pass's
// window. Throughputs are medians over passes, so one pass slowed by the
// host does not move them. Checks and reference computations run after
// the timed region.
func measureGrid(ctx context.Context, o options, name string, makeSpec func() (*gridSpec, error)) (*outcome, error) {
	setup, err := measureSetup(ctx, o, name, gridSetupReps)
	if err != nil {
		return nil, err
	}
	spec, err := makeSpec()
	if err != nil {
		return nil, err
	}
	var cellMS, rawOps, passOps, passMaccess []float64
	var attempted, failed int
	var first, last []*repro.Run

	allocStart := heapAllocBytes()
	start := time.Now()
	deadline := start.Add(o.seconds)
	for pass := 0; pass < spec.minPasses || time.Now().Before(deadline); pass++ {
		r := experiments.NewRunner()
		r.SetWorkers(concurrency())
		passStart := time.Now()
		runs, _ := r.RunCellsContext(ctx, spec.cells) // a failed cell is a nil run, counted below
		passEnd := time.Now()
		passWall := passEnd.Sub(passStart).Seconds()
		f, err := o.speed.factor(passStart, passEnd)
		if err != nil {
			return nil, err
		}
		var passOK int
		var accesses uint64
		for _, st := range r.Metrics().Stats() {
			if st.Status == "ok" {
				cellMS = append(cellMS, ms(st.Wall)*f)
			}
		}
		for i, run := range runs {
			attempted++
			switch {
			case run == nil:
				failed++
			case run.Sim.Accesses != spec.expected[i]:
				report("FAIL %s simulated %d accesses, want %d", spec.cells[i].Key(), run.Sim.Accesses, spec.expected[i])
				failed++
			case first != nil && first[i] != nil && run.Sim.TotalCycles != first[i].Sim.TotalCycles:
				report("FAIL %s gave %d cycles, %d in the first pass", spec.cells[i].Key(), run.Sim.TotalCycles, first[i].Sim.TotalCycles)
				failed++
			default:
				passOK++
				accesses += run.Sim.Accesses
			}
		}
		rawOps = append(rawOps, float64(passOK)/passWall)
		passOps = append(passOps, float64(passOK)/passWall/f)
		passMaccess = append(passMaccess, float64(accesses)/1e6/passWall/f)
		if first == nil {
			first = runs
		}
		last = runs
	}
	wall := time.Since(start)
	allocs := heapAllocBytes() - allocStart
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	failed += oracleCheck(o.seed, spec, last)
	ratio, err := gridCyclesRatio(ctx, spec, last)
	if err != nil {
		return nil, err
	}

	ok := attempted - failed
	pOp, _ := tailPercentile(spec.minPasses * len(spec.cells))
	tailNote("op_ms_p99", pOp, len(cellMS))
	report("every grid op runs an evaluation, so cold_ms_p50 is op_ms_p50")
	report("ops_per_s: raw %.4f, at reference speed %.4f", median(rawOps), median(passOps))
	report("op ms at reference speed p25=%.0f p40=%.0f p50=%.0f p60=%.0f p75=%.0f", percentile(cellMS, 25), percentile(cellMS, 40),
		median(cellMS), percentile(cellMS, 60), percentile(cellMS, 75))
	report("fail_ratio %d/%d; %d passes of %d cells in %.2fs", failed, attempted, len(cellMS)/max(len(spec.cells), 1), len(spec.cells), wall.Seconds())
	return &outcome{
		attempted: attempted,
		failed:    failed,
		values: map[string]float64{
			"setup_s":           setup,
			"ops_per_s":         median(passOps),
			"op_ms_p50":         median(cellMS),
			"op_ms_p99":         percentile(cellMS, pOp),
			"cold_ms_p50":       median(cellMS),
			"sim_maccess_per_s": median(passMaccess),
			"alloc_mb_per_op":   float64(allocs) / 1e6 / float64(max(ok, 1)),
			"peak_rss_mb":       rss,
			"cycles_ratio":      ratio,
			"ok_ratio":          float64(ok) / float64(attempted),
		},
	}, nil
}

// oracleCheck re-simulates a seeded sample of the last pass's cells on
// the naive oracle and returns how many disagree with the simulator.
func oracleCheck(seed int64, spec *gridSpec, runs []*repro.Run) int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	failed := 0
	for _, i := range rng.Perm(len(spec.cells))[:min(oracleSample, len(spec.cells))] {
		c := spec.cells[i]
		if runs[i] == nil {
			continue // already counted as failed
		}
		src, _, err := buildSource(nil, 0, -1, c.Kernel, c.Machine, c.Scheme, c.Config)
		if err == nil {
			var want *repro.SimResult
			if want, err = oracle.Simulate(c.Machine, src); err == nil {
				if d := oracle.Compare(c.Key(), runs[i].Sim, want); d != nil {
					err = d
				}
			}
		}
		if err != nil {
			report("FAIL oracle check of %s: %v", c.Key(), err)
			failed++
		}
	}
	return failed
}

// gridCyclesRatio is the geometric mean over the grid's kernel×machine
// pairs of Combined cycles ÷ Base cycles. A grid without Combined cells
// evaluates them here, outside the timed region.
func gridCyclesRatio(ctx context.Context, spec *gridSpec, runs []*repro.Run) (float64, error) {
	type pair struct{ kernel, machine string }
	base := make(map[pair]uint64)
	comb := make(map[pair]uint64)
	var extra []experiments.Cell
	for i, c := range spec.cells {
		if runs[i] == nil {
			continue
		}
		p := pair{c.Kernel.Name, c.Machine.Name}
		switch c.Scheme {
		case repro.SchemeBase:
			base[p] = runs[i].Sim.TotalCycles
			if spec.combinedForRatio {
				cc := c
				cc.Scheme = repro.SchemeCombined
				extra = append(extra, cc)
			}
		case repro.SchemeCombined:
			comb[p] = runs[i].Sim.TotalCycles
		}
	}
	if len(extra) > 0 {
		r := experiments.NewRunner()
		r.SetWorkers(concurrency())
		extraRuns, err := r.RunCellsContext(ctx, extra)
		if err != nil {
			return 0, fmt.Errorf("combined cells for cycles_ratio: %w", err)
		}
		for i, c := range extra {
			comb[pair{c.Kernel.Name, c.Machine.Name}] = extraRuns[i].Sim.TotalCycles
		}
	}
	var ratios []float64
	for p, b := range base {
		if cy, ok := comb[p]; ok && b > 0 {
			ratios = append(ratios, float64(cy)/float64(b))
		}
	}
	if len(ratios) == 0 {
		return 0, fmt.Errorf("no Base/Combined pairs for cycles_ratio")
	}
	sort.Float64s(ratios) // a fixed summation order keeps the mean bit-identical
	return geomean(ratios), nil
}
