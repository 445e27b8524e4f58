package deps

import (
	"testing"

	"repro/internal/poly"
	"repro/internal/tags"
)

// wavefrontSetup builds a 1-D loop A[j] = f(A[j-dist]) with block-sized
// groups, returning everything the analyses need.
func wavefrontSetup(n, dist, blockElems int64) ([]poly.Point, []*poly.Ref, *poly.Layout, *tags.Tagging) {
	a := poly.NewArray("A", n)
	nest := poly.NewNest(poly.RectLoop("j", dist, n-1))
	refs := []*poly.Ref{
		poly.NewRef(a, poly.Read, poly.Var(0, 1).AddConst(-dist)),
		poly.NewRef(a, poly.Write, poly.Var(0, 1)),
	}
	layout := poly.NewLayout(blockElems*8, a)
	iters := nest.Points()
	return iters, refs, layout, tags.Compute(iters, refs, layout)
}

// parallelSetup builds a fully parallel loop B[j] = A[j] + A[j+1].
func parallelSetup(n int64) ([]poly.Point, []*poly.Ref, *poly.Layout, *tags.Tagging) {
	a := poly.NewArray("A", n+1)
	b := poly.NewArray("B", n)
	nest := poly.NewNest(poly.RectLoop("j", 0, n-1))
	refs := []*poly.Ref{
		poly.NewRef(a, poly.Read, poly.Var(0, 1)),
		poly.NewRef(a, poly.Read, poly.Var(0, 1).AddConst(1)),
		poly.NewRef(b, poly.Write, poly.Var(0, 1)),
	}
	layout := poly.NewLayout(256, a, b)
	iters := nest.Points()
	return iters, refs, layout, tags.Compute(iters, refs, layout)
}

func TestAnalyzeFullyParallel(t *testing.T) {
	iters, refs, layout, tg := parallelSetup(256)
	dg, selfDep := Analyze(iters, tg)
	if dg.NumEdges() != 0 {
		t.Fatalf("parallel loop has %d group dep edges", dg.NumEdges())
	}
	for i, s := range selfDep {
		if s {
			t.Fatalf("parallel loop group %d flagged selfDep", i)
		}
	}
	if HasLoopCarried(iters, refs, layout) {
		t.Fatal("parallel loop flagged as carrying dependences")
	}
}

func TestAnalyzeWavefront(t *testing.T) {
	iters, refs, layout, tg := wavefrontSetup(1024, 256, 32)
	dg, _ := Analyze(iters, tg)
	if dg.NumEdges() == 0 {
		t.Fatal("wavefront has no group dependences")
	}
	if !HasLoopCarried(iters, refs, layout) {
		t.Fatal("wavefront not flagged as carrying dependences")
	}
	// Flow direction: the group writing block b precedes the group
	// reading it; the reader comes later in program order, so edges go
	// from earlier groups to later ones here.
	for u := 0; u < dg.N(); u++ {
		for _, v := range dg.Succ(u) {
			// group IDs are first-appearance ordered: u wrote earlier.
			if u >= v {
				t.Fatalf("edge %d -> %d against program order", u, v)
			}
		}
	}
}

func TestSelfDepDetection(t *testing.T) {
	// dist smaller than a block: writer and reader in the same group.
	iters, _, _, tg := wavefrontSetup(1024, 8, 64)
	_, selfDep := Analyze(iters, tg)
	any := false
	for _, s := range selfDep {
		any = any || s
	}
	if !any {
		t.Fatal("intra-block dependences not flagged as selfDep")
	}
}

func TestIterationDepsKinds(t *testing.T) {
	// A[j] = A[j-1]: flow (j-1 writes, j reads) and anti (j reads j, j+1
	// writes j... actually read A[j-1] then write A[j]).
	a := poly.NewArray("A", 64)
	nest := poly.NewNest(poly.RectLoop("j", 1, 63))
	refs := []*poly.Ref{
		poly.NewRef(a, poly.Read, poly.Var(0, 1).AddConst(-1)),
		poly.NewRef(a, poly.Write, poly.Var(0, 1)),
	}
	layout := poly.NewLayout(512, a)
	deps := IterationDeps(nest.Points(), refs, layout, 0)
	if len(deps) == 0 {
		t.Fatal("no deps found")
	}
	kinds := map[Kind]bool{}
	for _, d := range deps {
		kinds[d.Kind] = true
		if !d.Src.Less(d.Dst) {
			t.Fatalf("dep %v -> %v against program order", d.Src, d.Dst)
		}
	}
	if !kinds[Flow] {
		t.Fatal("flow dependence not detected")
	}
}

func TestIterationDepsAntiOutput(t *testing.T) {
	// Anti: iteration j reads A[j+1], iteration j+1 writes A[j+1].
	a := poly.NewArray("A", 64)
	nest := poly.NewNest(poly.RectLoop("j", 0, 62))
	refs := []*poly.Ref{
		poly.NewRef(a, poly.Read, poly.Var(0, 1).AddConst(1)),
		poly.NewRef(a, poly.Write, poly.Var(0, 1)),
	}
	layout := poly.NewLayout(512, a)
	deps := IterationDeps(nest.Points(), refs, layout, 0)
	hasAnti := false
	for _, d := range deps {
		if d.Kind == Anti {
			hasAnti = true
		}
	}
	if !hasAnti {
		t.Fatal("anti dependence not detected")
	}

	// Output: two writes to the same element from different iterations.
	refs2 := []*poly.Ref{
		poly.NewRef(a, poly.Write, poly.Var(0, 1).Scale(0)), // A[0] every iteration
	}
	deps2 := IterationDeps(nest.Points(), refs2, layout, 0)
	hasOutput := false
	for _, d := range deps2 {
		if d.Kind == Output {
			hasOutput = true
		}
	}
	if !hasOutput {
		t.Fatal("output dependence not detected")
	}
}

func TestIterationDepsLimit(t *testing.T) {
	iters, refs, layout, _ := wavefrontSetup(1024, 256, 32)
	deps := IterationDeps(iters, refs, layout, 5)
	if len(deps) != 5 {
		t.Fatalf("limit ignored: %d deps", len(deps))
	}
}

func TestCollapseCyclesNoOp(t *testing.T) {
	iters, _, _, tg := wavefrontSetup(1024, 256, 32)
	dg, selfDep := Analyze(iters, tg)
	if !dg.IsAcyclic() {
		t.Skip("wavefront group graph unexpectedly cyclic")
	}
	groups, dag, self2 := CollapseCycles(tg.Groups, dg, selfDep)
	if len(groups) != len(tg.Groups) {
		t.Fatal("acyclic graph should collapse to itself")
	}
	if dag != dg {
		t.Fatal("acyclic collapse should return the original graph")
	}
	_ = self2
}

func TestCollapseCyclesMerges(t *testing.T) {
	// Build an artificial cyclic group graph: a ping-pong pattern where
	// block 0 and block 1 alternate writes from two groups.
	a := poly.NewArray("A", 64)
	nest := poly.NewNest(poly.RectLoop("j", 0, 63))
	// Iteration j writes A[63-j] and reads A[j]: early iterations read
	// low blocks and write high blocks; late iterations the reverse —
	// the two groups depend on each other.
	refs := []*poly.Ref{
		poly.NewRef(a, poly.Read, poly.Var(0, 1)),
		poly.NewRef(a, poly.Write, poly.Var(0, 1).Scale(-1).AddConst(63)),
	}
	layout := poly.NewLayout(256, a) // 32-element blocks -> 2 blocks
	iters := nest.Points()
	tg := tags.Compute(iters, refs, layout)
	dg, selfDep := Analyze(iters, tg)
	if dg.IsAcyclic() {
		t.Skip("expected a cyclic group graph for this pattern")
	}
	groups, dag, self := CollapseCycles(tg.Groups, dg, selfDep)
	if len(groups) >= len(tg.Groups) {
		t.Fatal("cycle not collapsed")
	}
	if !dag.IsAcyclic() {
		t.Fatal("collapsed graph still cyclic")
	}
	// The merged group must cover all iterations of its members, sorted.
	total := 0
	for _, g := range groups {
		total += g.Size()
		for i := 1; i < len(g.Iters); i++ {
			if !g.Iters[i-1].Less(g.Iters[i]) {
				t.Fatal("merged iterations not in program order")
			}
		}
	}
	if total != len(iters) {
		t.Fatalf("collapse lost iterations: %d of %d", total, len(iters))
	}
	// A multi-member SCC must be flagged self-dependent.
	anySelf := false
	for _, s := range self {
		anySelf = anySelf || s
	}
	if !anySelf {
		t.Fatal("merged cycle not flagged selfDep")
	}
}

// historyWalkDeps is the direct reading of IterationDeps' contract: keep
// every access to every element and, for each new access, walk the
// element's history backwards to the nearest conflicting access of an
// earlier iteration.
func historyWalkDeps(iters []poly.Point, refs []*poly.Ref, layout *poly.Layout) []Dep {
	type access struct {
		iter        int
		read, write bool
	}
	var out []Dep
	last := make(map[int64][]access)
	for idx, p := range iters {
		for _, r := range refs {
			addr := layout.AddrOf(r, p)
			cur := access{iter: idx, write: r.Kind.Writes(), read: r.Kind.Reads()}
			hist := last[addr]
			for i := len(hist) - 1; i >= 0; i-- {
				prev := hist[i]
				if prev.iter == idx {
					continue
				}
				var k Kind
				switch {
				case prev.write && cur.read:
					k = Flow
				case prev.write && cur.write:
					k = Output
				case prev.read && cur.write:
					k = Anti
				default:
					continue
				}
				out = append(out, Dep{Src: iters[prev.iter], Dst: p, Kind: k})
				break
			}
			last[addr] = append(hist, cur)
		}
	}
	return out
}

func TestIterationDepsNearestConflict(t *testing.T) {
	a := poly.NewArray("A", 16, 16)
	b := poly.NewArray("B", 16)
	i, j := poly.Var(0, 2), poly.Var(1, 2)
	nest := poly.NewNest(poly.RectLoop("i", 1, 15), poly.RectLoop("j", 1, 15))
	layout := poly.NewLayout(256, a, b)
	cases := map[string][]*poly.Ref{
		// In-place Gauss-Seidel sweep: flow and anti dependences.
		"gauss-seidel": {
			poly.NewRef(a, poly.Read, i.AddConst(-1), j),
			poly.NewRef(a, poly.Read, i, j.AddConst(1)),
			poly.NewRef(a, poly.Write, i, j),
		},
		// Row reduction into B[i] plus updates of A[i][0] that another
		// row's read of A[j][i] sees: read-write updates chain through
		// flow dependences.
		"reduction": {
			poly.NewRef(a, poly.Read, j, i),
			poly.NewRef(b, poly.ReadWrite, i),
			poly.NewRef(a, poly.ReadWrite, i, poly.Constant(0)),
		},
		// Same element read and written by one iteration, read by the
		// next: same-iteration accesses must be skipped.
		"self-then-next": {
			poly.NewRef(b, poly.Write, j),
			poly.NewRef(b, poly.Read, j),
			poly.NewRef(b, poly.Read, j.AddConst(-1)),
			poly.NewRef(b, poly.Write, j.AddConst(-1)),
		},
	}
	for name, refs := range cases {
		want := historyWalkDeps(nest.Points(), refs, layout)
		got := IterationDeps(nest.Points(), refs, layout, 0)
		if len(want) == 0 {
			t.Fatalf("%s: case carries no dependences", name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d deps, history walk finds %d", name, len(got), len(want))
		}
		for n := range want {
			if !got[n].Src.Equal(want[n].Src) || !got[n].Dst.Equal(want[n].Dst) || got[n].Kind != want[n].Kind {
				t.Fatalf("%s: dep %d = %v->%v %v, history walk %v->%v %v", name, n,
					got[n].Src, got[n].Dst, got[n].Kind, want[n].Src, want[n].Dst, want[n].Kind)
			}
		}
	}
}
