package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"time"

	"repro"
	"repro/internal/cachesim"
	"repro/internal/serve"
	"repro/internal/topology"
)

// probeSource is the probe op's kernel: an in-place 5-point sweep, whose
// loop-carried dependences also take the dependence-collapsing path that
// the Table 2 kernels never reach.
const probeSource = `array A[66][66]
for (i = 1; i <= 64) {
  for (j = 1; j <= 64) {
    A[i][j] = A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1];
  }
}
`

// serveCounts are the serve layer's counts over a traced run's requests.
type serveCounts struct {
	answered, lru, coalesced int
	// computed, shed and requests come from /statusz deltas.
	computed, shed, requests uint64
	warmCallsMS              []float64
}

func (c *serveCounts) addAnswer(source string) {
	c.answered++
	switch source {
	case "lru":
		c.lru++
	case "coalesced":
		c.coalesced++
	}
}

func (c *serveCounts) addStatus(before, after serve.Status) {
	c.computed += after.Computed - before.Computed
	c.shed += (after.Shed - before.Shed) + (after.QueueFull - before.QueueFull)
	c.requests += after.Requests - before.Requests
}

// runProbe traces one fixed ad-hoc request through every layer: it
// compiles the probe kernel, unmarshals a machine JSON, replays the
// mapping under Base, Base+, TopologyAware and Combined, and asks a
// server for it cold and then warm. Every traced run ends with it, so
// each layer metric is measured in every workload's traced run, also for
// layers the workload's own ops never call. Its ops are numbered from op;
// the workload stress shares leave them out.
func runProbe(ctx context.Context, rec *recorder, op int, n *layerCounts, sc *serveCounts) error {
	machJSON, err := topology.MarshalMachine(topology.Dunnington())
	if err != nil {
		return err
	}
	var k *repro.Kernel
	rec.do(op, -1, "lang.compile", func() { k, err = repro.CompileKernel("probe", probeSource) })
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	var m *repro.Machine
	rec.do(op, -1, "topology.unmarshal", func() { m, err = topology.UnmarshalMachine(machJSON) })
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	for _, scheme := range []repro.Scheme{repro.SchemeBase, repro.SchemeBasePlus, repro.SchemeTopologyAware, repro.SchemeCombined} {
		if _, _, _, err := tracedEval(ctx, rec, op, k, m, scheme, repro.DefaultConfig(), n); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		op++
	}

	s, err := startServer(ctx)
	if err != nil {
		return err
	}
	// The probe's answers are checked below; a failed drain changes none.
	defer s.stop()
	before, err := s.status(ctx)
	if err != nil {
		return err
	}
	body, err := json.Marshal(&serve.MapRequest{KernelSource: probeSource, KernelName: "probe", MachineJSON: machJSON, Scheme: "combined"})
	if err != nil {
		return err
	}
	code, env, err := s.post(ctx, body)
	if err != nil || code != http.StatusOK || !env.OK {
		return fmt.Errorf("probe: cold request answered %d: %v", code, err)
	}
	sc.addAnswer(env.Result.Source)
	source, err := warmCall(rec, op, s.srv.Handler(), body, sc)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	sc.addAnswer(source)
	after, err := s.status(ctx)
	if err != nil {
		return err
	}
	sc.addStatus(before, after)
	return nil
}

// warmCall sends body to the server's handler through httptest as a
// "serve.handler_warm" span and checks that it was answered from the LRU.
func warmCall(rec *recorder, op int, h http.Handler, body []byte, sc *serveCounts) (string, error) {
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body))
	var d time.Duration
	rec.do(op, -1, "serve.handler_warm", func() {
		start := time.Now()
		h.ServeHTTP(w, req)
		d = time.Since(start)
	})
	sc.warmCallsMS = append(sc.warmCallsMS, ms(d))
	env := &serve.Envelope{}
	if err := json.Unmarshal(w.Body.Bytes(), env); err != nil {
		return "", fmt.Errorf("decoding warm answer: %w", err)
	}
	if w.Code != http.StatusOK || !env.OK || env.Result.Source != "lru" {
		return "", fmt.Errorf("warm call answered %d, source %v", w.Code, env.Result)
	}
	return env.Result.Source, nil
}

// tracedEval evaluates one cell twice, untraced through
// repro.EvaluateContext and traced through replayEval, and returns the
// traced result with both times. A traced result that differs from
// EvaluateContext's is an error: the replay would be timing a different
// program.
func tracedEval(ctx context.Context, rec *recorder, op int, k *repro.Kernel, m *repro.Machine, scheme repro.Scheme, cfg repro.Config, n *layerCounts) (sim *cachesim.Result, untraced, traced time.Duration, err error) {
	start := time.Now()
	want, err := repro.EvaluateContext(ctx, k, m, scheme, cfg)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("untraced %s on %s [%v]: %w", k.Name, m.Name, scheme, err)
	}
	untraced = time.Since(start)
	start = time.Now()
	sim, cn, err := replayEval(ctx, rec, op, k, m, scheme, cfg)
	traced = time.Since(start)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("traced %s on %s [%v]: %w", k.Name, m.Name, scheme, err)
	}
	if !reflect.DeepEqual(sim, want.Sim) {
		return nil, 0, 0, fmt.Errorf("drift: traced %s on %s [%v] gives %d cycles, EvaluateContext %d",
			k.Name, m.Name, scheme, sim.TotalCycles, want.Sim.TotalCycles)
	}
	n.add(cn)
	return sim, untraced, traced, nil
}

// spanSums totals the recorded spans by name over the given ops (all ops
// when ops is nil).
type spanSums struct {
	dur   map[string]time.Duration
	alloc map[string]uint64
	// simSelf is the simulator's own time: each op's simulate span minus
	// the same op's trace drain, the trace generation the simulator pulls
	// internally.
	simSelf time.Duration
	// opTime is the time of the ops as EvaluateContext would spend it:
	// root spans minus the extra drain.
	opTime time.Duration
}

func sumSpans(spans []span, ops map[int]bool) spanSums {
	s := spanSums{dur: make(map[string]time.Duration), alloc: make(map[string]uint64)}
	sim := make(map[int]time.Duration)
	drained := make(map[int]time.Duration)
	for _, sp := range spans {
		if ops != nil && !ops[sp.Op] {
			continue
		}
		d := sp.End - sp.Start
		s.dur[sp.Name] += d
		s.alloc[sp.Name] += sp.Alloc
		if sp.Parent < 0 {
			s.opTime += d
		}
		switch sp.Name {
		case "cachesim.simulate":
			sim[sp.Op] += d
		case "trace.drain":
			drained[sp.Op] += d
			s.opTime -= d
		}
	}
	for op, d := range sim {
		s.simSelf += max(d-drained[op], 0)
	}
	return s
}

// layerValues renders the per-layer metrics of a traced run.
func layerValues(spans []span, n layerCounts, sc *serveCounts) map[string]float64 {
	s := sumSpans(spans, nil)
	msOf := func(name string) float64 { return ms(s.dur[name]) }
	mbOf := func(name string) float64 { return float64(s.alloc[name]) / 1e6 }
	ratio := func(a, b int) float64 { return float64(a) / float64(max(b, 1)) }
	return map[string]float64{
		"poly.points_ms":           msOf("poly.points"),
		"poly.points":              float64(n.points),
		"tags.compute_ms":          msOf("tags.compute"),
		"tags.compute_alloc_mb":    mbOf("tags.compute"),
		"tags.coarsen_ms":          msOf("tags.coarsen"),
		"tags.groups":              float64(n.groups),
		"tags.blocks":              float64(n.blocks),
		"deps.analyze_ms":          msOf("deps.analyze"),
		"deps.collapse_ms":         msOf("deps.collapse"),
		"deps.edges":               float64(n.edges),
		"core.distribute_ms":       msOf("core.distribute"),
		"core.distribute_alloc_mb": mbOf("core.distribute"),
		"schedule.build_ms":        msOf("schedule.build"),
		"baseline.base_ms":         msOf("baseline.base"),
		"baseline.baseplus_ms":     msOf("baseline.baseplus"),
		"trace.drain_ms":           msOf("trace.drain"),
		"trace.accesses":           float64(n.drained),
		"cachesim.simulate_ms":     ms(s.simSelf),
		"cachesim.alloc_mb":        mbOf("cachesim.simulate"),
		"cachesim.maccess_per_s":   float64(n.drained) / 1e6 / s.simSelf.Seconds(),
		"cachesim.mem_accesses":    float64(n.memAccesses),
		"lang.compile_ms":          msOf("lang.compile"),
		"topology.unmarshal_ms":    msOf("topology.unmarshal"),
		"serve.handler_warm_ms":    median(sc.warmCallsMS),
		"serve.lru_hit_ratio":      ratio(sc.lru, sc.answered),
		"serve.coalesced_ratio":    ratio(sc.coalesced, sc.answered),
		"serve.computed":           float64(sc.computed),
		"serve.shed_ratio":         float64(sc.shed) / float64(max(sc.requests, 1)),
	}
}

// moduleShares returns each module's self time as a share of the ops'
// time. The simulator's span also covers the trace generation it pulls,
// which the drain measured; that part counts once, under trace.
func moduleShares(spans []span, ops map[int]bool) map[string]float64 {
	s := sumSpans(spans, ops)
	self := moduleSelf(spans, ops)
	self["cachesim"] = s.simSelf
	shares := make(map[string]float64, len(self))
	for m, d := range self {
		shares[m] = float64(d) / float64(s.opTime)
	}
	return shares
}

// printShares prints every module's share of the ops' time.
func printShares(shares map[string]float64) {
	line := "module self-time shares of op time:"
	for _, m := range []string{"poly", "tags", "deps", "core", "schedule", "baseline", "trace", "cachesim", "repro", "lang", "topology", "serve"} {
		if shares[m] > 0 {
			line += fmt.Sprintf(" %s=%.3f", m, shares[m])
		}
	}
	report("%s", line)
}

// opSet is the set of op ids [0, n).
func opSet(n int) map[int]bool {
	ops := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		ops[i] = true
	}
	return ops
}

func tracedMapGrid(ctx context.Context, o options) (*outcome, error) {
	return tracedGrid(ctx, o, "map_grid", mapGridSpec, "tags", "deps", "core")
}

func tracedSimSteady(ctx context.Context, o options) (*outcome, error) {
	return tracedGrid(ctx, o, "sim_steady", simSteadySpec, "trace", "cachesim")
}

// tracedGrid evaluates one pass of the grid one cell at a time, untraced
// and traced, followed by the probe, and checks that the named modules
// take most of the op time.
func tracedGrid(ctx context.Context, o options, name string, makeSpec func() (*gridSpec, error), stressed ...string) (*outcome, error) {
	spec, err := makeSpec()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	var n layerCounts
	var untraced, traced time.Duration
	for i, c := range spec.cells {
		_, u, t, err := tracedEval(ctx, rec, i, c.Kernel, c.Machine, c.Scheme, c.Config, &n)
		if err != nil {
			return nil, err
		}
		untraced += u
		traced += t
	}
	var sc serveCounts
	if err := runProbe(ctx, rec, len(spec.cells), &n, &sc); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	shares := moduleShares(spans, opSet(len(spec.cells)))
	printShares(shares)
	failed := stressCheck(name, shares, stressed)
	return finishTraced(o, name, spans, n, &sc, len(spec.cells), failed, untraced, traced)
}

// stressCheck reports whether the stressed modules' self time is most
// (over half) of the workload's op time, and returns 1 when it is not: the
// workload does not stress what it claims.
func stressCheck(name string, shares map[string]float64, stressed []string) int {
	share := 0.0
	for _, m := range stressed {
		share += shares[m]
	}
	report("stress check: %v self time is %.3f of %s op time (claim: over 0.5) -> %v", stressed, share, name, share > 0.5)
	if share > 0.5 {
		return 0
	}
	report("FAIL %s does not stress %v", name, stressed)
	return 1
}

// finishTraced writes the spans and renders the traced run's metrics.
// Failed counts the failed stress or warm checks.
func finishTraced(o options, name string, spans []span, n layerCounts, sc *serveCounts, ops, failed int, untraced, traced time.Duration) (*outcome, error) {
	path, err := writeSpans(o.outDir, name, o.seed, spans)
	if err != nil {
		return nil, err
	}
	report("spans written to %s", path)
	values := layerValues(spans, n, sc)
	values["bench.untraced_ops_per_s"] = float64(ops) / untraced.Seconds()
	values["bench.traced_ops_per_s"] = float64(ops) / traced.Seconds()
	values["bench.trace_slowdown"] = traced.Seconds() / untraced.Seconds()
	return &outcome{attempted: ops, failed: failed, values: values}, nil
}

// tracedRequests is how many requests the serve_mixed traced run sends.
const tracedRequests = 200

// tracedServeMixed sends the first tracedRequests of the seeded stream
// over HTTP (untraced), then replays the same requests in process under
// spans: warm ones through the server's handler, cold ones through the
// front end and the mapping stages. It checks that warm requests never
// reach an evaluation.
func tracedServeMixed(ctx context.Context, o options) (*outcome, error) {
	warm := warmBodies()
	s, _, err := setUpServer(ctx, warm)
	if err != nil {
		return nil, err
	}
	// The run's answers are checked as they arrive; a failed drain changes
	// none of them.
	defer s.stop()
	before, err := s.status(ctx)
	if err != nil {
		return nil, err
	}
	perClient := tracedRequests / concurrency()
	start := time.Now()
	all := closedLoop(ctx, s, warm, o.seed, func(_, _ int64, mine int) bool { return mine >= perClient })
	untraced := time.Since(start)
	after, err := s.status(ctx)
	if err != nil {
		return nil, err
	}
	var sc serveCounts
	sc.addStatus(before, after)
	cold := 0
	for _, r := range all {
		if !r.ok() {
			return nil, fmt.Errorf("request answered %d: %v", r.code, r.err)
		}
		sc.addAnswer(r.source())
		if r.req.warm < 0 {
			cold++
		}
	}
	failed := warmCheck(sc.computed, cold)

	rec := newRecorder()
	var n layerCounts
	h := s.srv.Handler()
	var traced time.Duration
	for op, r := range all {
		if r.req.warm >= 0 {
			t := time.Now()
			if _, err := warmCall(rec, op, h, r.req.body, &sc); err != nil {
				return nil, err
			}
			traced += time.Since(t)
			continue
		}
		d, err := tracedColdRequest(ctx, rec, op, r, &n)
		if err != nil {
			return nil, err
		}
		traced += d
	}
	if err := runProbe(ctx, rec, len(all), &n, &serveCounts{}); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	printShares(moduleShares(spans, opSet(len(all))))
	return finishTraced(o, "serve_mixed", spans, n, &sc, len(all), failed, untraced, traced)
}

// warmCheck reports whether the server ran exactly one evaluation per
// cold request, and returns 1 when it did not: a warm request reached an
// evaluation, or a cold one was answered without one.
func warmCheck(computed uint64, cold int) int {
	report("warm check: serve.computed=%d, cold requests=%d -> %v", computed, cold, computed == uint64(cold))
	if computed == uint64(cold) {
		return 0
	}
	report("FAIL serve_mixed ran %d evaluations for %d cold requests", computed, cold)
	return 1
}

// tracedColdRequest replays an ad-hoc request's front end and mapping
// under spans and returns the traced time. Its result must match both
// repro.EvaluateContext's, which runs outside the traced time, and the
// server's answer.
func tracedColdRequest(ctx context.Context, rec *recorder, op int, r served, n *layerCounts) (time.Duration, error) {
	var req serve.MapRequest
	if err := json.Unmarshal(r.req.body, &req); err != nil {
		return 0, err
	}
	start := time.Now()
	var k *repro.Kernel
	var err error
	rec.do(op, -1, "lang.compile", func() { k, err = repro.CompileKernel(req.KernelName, req.KernelSource) })
	if err != nil {
		return 0, err
	}
	m := repro.Dunnington()
	if len(req.MachineJSON) > 0 {
		rec.do(op, -1, "topology.unmarshal", func() { m, err = topology.UnmarshalMachine(req.MachineJSON) })
		if err != nil {
			return 0, err
		}
	}
	front := time.Since(start)
	sim, _, traced, err := tracedEval(ctx, rec, op, k, m, repro.SchemeCombined, repro.DefaultConfig(), n)
	if err != nil {
		return 0, err
	}
	if sim.TotalCycles != r.env.Result.TotalCycles {
		return 0, fmt.Errorf("drift: traced %s gives %d cycles, server %d", req.KernelName, sim.TotalCycles, r.env.Result.TotalCycles)
	}
	return front + traced, nil
}
