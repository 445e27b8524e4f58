package main

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/affinity"
	"repro/internal/baseline"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/poly"
	"repro/internal/schedule"
	"repro/internal/tags"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// layerCounts are the work counts the replay records at layer boundaries.
type layerCounts struct {
	points, groups, blocks, edges, drained, memAccesses uint64
}

func (c *layerCounts) add(o layerCounts) {
	c.points += o.points
	c.groups += o.groups
	c.blocks += o.blocks
	c.edges += o.edges
	c.drained += o.drained
	c.memAccesses += o.memAccesses
}

// replayEval evaluates one cell by calling the exported stages that
// repro.EvaluateContext and its mapTopologyAware call, in the same order
// with the same arguments, recording a span around each call. The
// simulator pulls its trace internally, so the trace is also drained once
// on its own ("trace.drain") to measure what generating it costs.
func replayEval(ctx context.Context, rec *recorder, op int, k *workloads.Kernel, m *topology.Machine, scheme repro.Scheme, cfg repro.Config) (*cachesim.Result, layerCounts, error) {
	root := rec.begin(op, -1, "repro.evaluate")
	defer rec.end(root)
	src, n, err := buildSource(rec, op, root, k, m, scheme, cfg)
	if err != nil {
		return nil, n, err
	}
	rec.do(op, root, "trace.drain", func() { n.drained = drain(src) })
	var sim *cachesim.Result
	rec.do(op, root, "cachesim.simulate", func() { sim, err = cachesim.SimulateContext(ctx, m, src, cachesim.Limits{}) })
	if err != nil {
		return nil, n, err
	}
	n.memAccesses = sim.MemAccesses
	return sim, n, nil
}

// buildSource maps the cell and returns the access trace the simulator
// would consume. It covers the configurations the benchmark uses: a
// positive BlockBytes, default MaxGroups, DepsSync, no MapView and no
// self-checking.
func buildSource(rec *recorder, op, root int, k *workloads.Kernel, m *topology.Machine, scheme repro.Scheme, cfg repro.Config) (trace.Source, layerCounts, error) {
	var n layerCounts
	if cfg.BlockBytes <= 0 || cfg.MaxGroups != 0 || cfg.MapView != nil || cfg.Deps != repro.DepsSync || cfg.Check != repro.CheckOff {
		return nil, n, fmt.Errorf("replay: unsupported config for %s", k.Name)
	}
	layout := k.Layout(cfg.BlockBytes)
	var src trace.Source
	var err error
	switch scheme {
	case repro.SchemeBase:
		var pts []poly.Point
		rec.do(op, root, "poly.points", func() { pts = k.Nest.Points() })
		n.points = uint64(len(pts))
		var chunks [][]poly.Point
		rec.do(op, root, "baseline.base", func() { chunks = baseline.Chunks(pts, m.NumCores()) })
		rec.do(op, root, "trace.stream", func() { src = trace.StreamOrder(chunks, k.Refs, layout) })
	case repro.SchemeBasePlus:
		var order [][]poly.Point
		rec.do(op, root, "baseline.baseplus", func() { order, err = baseline.BasePlus(k, m, cfg.BlockBytes) })
		if err != nil {
			return nil, n, err
		}
		rec.do(op, root, "trace.stream", func() { src = trace.StreamOrder(order, k.Refs, layout) })
	case repro.SchemeTopologyAware, repro.SchemeCombined:
		res, sched, err := replayMapping(rec, op, root, k, m, scheme, cfg, layout, &n)
		if err != nil {
			return nil, n, err
		}
		rec.do(op, root, "trace.stream", func() { src = trace.StreamSchedule(sched, res, k.Refs, layout) })
	default:
		return nil, n, fmt.Errorf("replay: unsupported scheme %v", scheme)
	}
	return trace.Repeat(src, cfg.Passes), n, nil
}

// replayMapping is the tagging → dependence analysis → distribution →
// scheduling pipeline of the topology-aware schemes.
func replayMapping(rec *recorder, op, root int, k *workloads.Kernel, m *topology.Machine, scheme repro.Scheme, cfg repro.Config, layout *poly.Layout, n *layerCounts) (*core.Result, *schedule.Schedule, error) {
	var iters []poly.Point
	rec.do(op, root, "poly.points", func() { iters = k.Nest.Points() })
	n.points = uint64(len(iters))
	var tg *tags.Tagging
	rec.do(op, root, "tags.compute", func() { tg = tags.Compute(iters, k.Refs, layout) })
	n.groups, n.blocks = uint64(len(tg.Groups)), uint64(tg.NumBlocks)
	maxGroups := max(64*m.NumCores(), 512)
	rec.do(op, root, "tags.coarsen", func() { tg = tags.Coarsen(tg, maxGroups) })

	var dg *affinity.Digraph
	var selfDep []bool
	rec.do(op, root, "deps.analyze", func() { dg, selfDep = deps.Analyze(iters, tg) })
	n.edges = uint64(dg.NumEdges())
	var groupDeps *affinity.Digraph
	groups := tg.Groups
	if dg.NumEdges() > 0 {
		rec.do(op, root, "deps.collapse", func() { groups, groupDeps, selfDep = deps.CollapseCycles(tg.Groups, dg, selfDep) })
	}
	work := &tags.Tagging{Groups: groups, Layout: tg.Layout, Refs: tg.Refs, NumBlocks: tg.NumBlocks, TotalIters: tg.TotalIters}
	anySelf := false
	for _, s := range selfDep {
		anySelf = anySelf || s
	}
	if !anySelf {
		selfDep = nil
	}
	opt := core.Options{BalanceThreshold: cfg.BalanceThreshold, SelfDep: selfDep, NoMergeCap: cfg.NoMergeCap, NoPolish: cfg.NoPolish}

	var res *core.Result
	var err error
	rec.do(op, root, "core.distribute", func() { res, err = core.Distribute(work, m, opt) })
	if err != nil {
		return nil, nil, err
	}
	var sched *schedule.Schedule
	rec.do(op, root, "schedule.build", func() {
		if scheme == repro.SchemeCombined {
			sched, err = schedule.Build(res, groupDeps, schedule.Options{Alpha: cfg.Alpha, Beta: cfg.Beta, Hamming: cfg.HammingSched})
		} else {
			sched, err = schedule.DefaultOrder(res, groupDeps)
		}
	})
	return res, sched, err
}

// drain pulls every cursor of src to the end without simulating and
// returns the number of accesses it yielded.
func drain(src trace.Source) uint64 {
	buf := make([]trace.Access, 4096)
	var total uint64
	for r := 0; r < src.RoundCount(); r++ {
		for c := 0; c < src.CoreCount(); c++ {
			cur := src.Cursor(r, c)
			for got := trace.Pull(cur, buf); got > 0; got = trace.Pull(cur, buf) {
				total += uint64(got)
			}
		}
	}
	return total
}
