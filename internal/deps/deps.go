package deps

import (
	"fmt"
	"sort"

	"repro/internal/affinity"
	"repro/internal/poly"
	"repro/internal/tags"
)

// Kind classifies a dependence.
type Kind int

const (
	// Flow is a true (read-after-write) dependence.
	Flow Kind = iota
	// Anti is a write-after-read dependence.
	Anti
	// Output is a write-after-write dependence.
	Output
)

// String names the dependence kind.
func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	default:
		return "unknown"
	}
}

// Dep records one iteration-level loop-carried dependence: Dst must execute
// after Src.
type Dep struct {
	Src, Dst poly.Point
	Kind     Kind
}

// elemState tracks, per data element, the last writing group and the groups
// that have read it since, as the analysis sweeps iterations in program
// order. The readers form a list threaded through a shared arena, oldest
// first.
type elemState struct {
	lastWriter int32 // group id, -1 if none yet
	readers    int32 // arena index of the first reader since, -1 if none
}

// readerNode is one entry of an element's reader list.
type readerNode struct {
	group, next int32 // next is -1 at the end of the list
}

// Analyze sweeps the iterations in program order and builds the group
// dependence graph: an edge g→h when some iteration of h depends (flow,
// anti or output) on some iteration of g. Edges within a group are not
// added to the graph — a group executes on one core in program order, which
// satisfies them — but groups with such internal dependences are flagged in
// selfDep, because load balancing may later split them and their pieces
// must then stay ordered.
//
// iters must be the same slice (and order) the tagging was computed from:
// the group of iters[i] is read from tg.IterGroup[i].
func Analyze(iters []poly.Point, tg *tags.Tagging) (dg *affinity.Digraph, selfDep []bool) {
	if len(tg.IterGroup) != len(iters) {
		//lint:ignore cellboundary programmer-error invariant on an internal API; repro.capturePanic converts it to a contained PanicError at the cell boundary
		panic(fmt.Sprintf("deps: tagging records %d iterations, Analyze got %d", len(tg.IterGroup), len(iters)))
	}
	dg = affinity.NewDigraph(len(tg.Groups))
	selfDep = make([]bool, len(tg.Groups))
	bound := elemBound(len(iters), tg.Refs, tg.Layout)
	index := make(map[int64]int32, bound)
	state := make([]elemState, 0, bound)
	var arena []readerNode
	for idx, p := range iters {
		g := tg.IterGroup[idx]
		for _, r := range tg.Refs {
			addr := tg.Layout.AddrOf(r, p)
			si, ok := index[addr]
			if !ok {
				si = int32(len(state))
				index[addr] = si
				state = append(state, elemState{lastWriter: -1, readers: -1})
			}
			st := &state[si]
			if r.Kind.Reads() {
				if st.lastWriter >= 0 {
					if st.lastWriter != g {
						dg.AddEdge(int(st.lastWriter), int(g)) // flow
					} else {
						selfDep[g] = true
					}
				}
				arena = addReader(arena, &st.readers, g)
			}
			if r.Kind.Writes() {
				if st.lastWriter >= 0 {
					if st.lastWriter != g {
						dg.AddEdge(int(st.lastWriter), int(g)) // output
					} else {
						selfDep[g] = true
					}
				}
				for n := st.readers; n >= 0; n = arena[n].next {
					if rd := arena[n].group; rd != g {
						dg.AddEdge(int(rd), int(g)) // anti
					} else {
						selfDep[g] = true
					}
				}
				st.lastWriter = g
				st.readers = -1
			}
		}
	}
	return dg, selfDep
}

// addReader appends group g to the reader list starting at *head unless it
// is already there (lists stay tiny: readers between two writes of one
// element).
func addReader(arena []readerNode, head *int32, g int32) []readerNode {
	link := head
	for *link >= 0 {
		if arena[*link].group == g {
			return arena
		}
		link = &arena[*link].next
	}
	*link = int32(len(arena))
	return append(arena, readerNode{group: g, next: -1})
}

// IterationDeps lists iteration-level loop-carried dependences (for tests,
// reporting and schedule validation): for every access, the nearest
// conflicting access of an earlier iteration to the same element — the
// latest write for a read, the latest access of either kind for a write.
// It caps the result at limit entries (0 = unlimited) since dense kernels
// can carry very many.
func IterationDeps(iters []poly.Point, refs []*poly.Ref, layout *poly.Layout, limit int) []Dep {
	type access struct {
		iter        int32 // -1: none
		read, write bool
	}
	// history holds what the nearest-conflict search needs of one
	// element's accesses: the latest access and the latest write, each
	// with the latest one of an earlier iteration, because accesses of
	// the iteration being swept never conflict with it.
	type history struct {
		last, lastBefore   access
		write, writeBefore access
	}
	none := access{iter: -1}
	var out []Dep
	bound := elemBound(len(iters), refs, layout)
	index := make(map[int64]int32, bound)
	hist := make([]history, 0, bound)
	for i, p := range iters {
		idx := int32(i)
		for _, r := range refs {
			cur := access{iter: idx, write: r.Kind.Writes(), read: r.Kind.Reads()}
			if !cur.read && !cur.write {
				continue
			}
			addr := layout.AddrOf(r, p)
			hi, ok := index[addr]
			if !ok {
				hi = int32(len(hist))
				index[addr] = hi
				hist = append(hist, history{none, none, none, none})
			}
			h := &hist[hi]
			prev := h.write
			if prev.iter == idx {
				prev = h.writeBefore
			}
			if cur.write {
				prev = h.last
				if prev.iter == idx {
					prev = h.lastBefore
				}
			}
			if prev.iter >= 0 {
				k := Anti
				switch {
				case prev.write && cur.read:
					k = Flow
				case prev.write:
					k = Output
				}
				out = append(out, Dep{Src: iters[prev.iter].Clone(), Dst: p.Clone(), Kind: k})
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
			if h.last.iter != idx {
				h.lastBefore = h.last
			}
			h.last = cur
			if cur.write {
				if h.write.iter != idx {
					h.writeBefore = h.write
				}
				h.write = cur
			}
		}
	}
	return out
}

// elemBound bounds the distinct data elements a sweep of n iterations
// touches: at most one per access, and no more than the layout holds.
func elemBound(n int, refs []*poly.Ref, layout *poly.Layout) int64 {
	var elems int64
	for _, a := range layout.Arrays {
		elems += a.Elems()
	}
	return min(int64(n)*int64(len(refs)), elems)
}

// HasLoopCarried reports whether the nest has any loop-carried dependence —
// the fully-parallel test of §3.1 (the paper reports only 14% of parallel
// loops carry dependences).
func HasLoopCarried(iters []poly.Point, refs []*poly.Ref, layout *poly.Layout) bool {
	return len(IterationDeps(iters, refs, layout, 1)) > 0
}

// CollapseCycles merges the groups of every dependence cycle into a single
// group (concatenating iterations in program order and OR-ing tags), and
// returns the new group list, the acyclic group dependence DAG over it, and
// the merged self-dependence flags (a merged group has internal dependences
// when any member had, or when the cycle itself had >1 member — its edges
// become internal). When dg is already acyclic the original groups are
// returned unchanged.
func CollapseCycles(groups []*tags.Group, dg *affinity.Digraph, selfDep []bool) ([]*tags.Group, *affinity.Digraph, []bool) {
	dag, comp, numComp := dg.Condense()
	if numComp == len(groups) {
		return groups, dg, selfDep // every group its own SCC: already acyclic
	}
	merged := make([]*tags.Group, numComp)
	mergedSelf := make([]bool, numComp)
	members := make([]int, numComp)
	for i, g := range groups {
		c := comp[i]
		if merged[c] == nil {
			merged[c] = &tags.Group{ID: c, Tag: g.Tag.Clone()}
		} else {
			merged[c].Tag.OrInPlace(g.Tag)
		}
		merged[c].Iters = append(merged[c].Iters, g.Iters...)
		members[c]++
		if selfDep != nil && selfDep[i] {
			mergedSelf[c] = true
		}
	}
	for c, g := range merged {
		sortPoints(g.Iters)
		if members[c] > 1 {
			mergedSelf[c] = true
		}
	}
	return merged, dag, mergedSelf
}

// sortPoints orders points lexicographically (program order).
func sortPoints(ps []poly.Point) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}
