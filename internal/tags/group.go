package tags

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/poly"
)

// Group is an iteration group θ_τ: the set of loop iterations that share the
// tag τ (§3.3). Two distinct groups never share an iteration, and the groups
// of a tagging collectively cover the whole iteration space.
type Group struct {
	// ID is a dense index assigned by the Tagger, stable across a run.
	ID  int
	Tag Tag
	// Iters holds the member iterations in lexicographic (program) order.
	Iters []poly.Point
}

// Size returns |θ_τ|, the number of member iterations.
func (g *Group) Size() int { return len(g.Iters) }

// String renders the group like θ[1100]{8 iters}.
func (g *Group) String() string {
	return fmt.Sprintf("θ[%s]{%d iters}", g.Tag, g.Size())
}

// Tagging is the result of tagging a loop nest against a data-block
// partitioning: the iteration groups plus the context needed downstream.
type Tagging struct {
	Groups    []*Group
	Layout    *poly.Layout
	Refs      []*poly.Ref
	NumBlocks int
	// TotalIters is the number of iterations across all groups.
	TotalIters int
	// IterGroup[i] is the index in Groups of the group holding the i-th
	// iteration of the slice the tagging was computed from. Compute fills
	// it and Coarsen remaps it, so dependence analysis can walk iterations
	// in program order without looking points up.
	IterGroup []int32
}

// GroupOf returns the group containing iteration p, or nil.
func (tg *Tagging) GroupOf(p poly.Point) *Group {
	t := TagOf(p, tg.Refs, tg.Layout, tg.NumBlocks)
	for _, g := range tg.Groups {
		if g.Tag.Equal(t) {
			return g
		}
	}
	return nil
}

// TagOf computes the tag of a single iteration: one bit per data block
// touched by any reference at p.
func TagOf(p poly.Point, refs []*poly.Ref, layout *poly.Layout, numBlocks int) Tag {
	t := NewTag(numBlocks)
	for _, r := range refs {
		// An element access can touch one block; mark it. (Elements never
		// straddle blocks because block sizes are multiples of elem sizes
		// in practice; if one did, the address-level simulator would still
		// see the right lines — tags are a logical grouping device.)
		t.Set(layout.BlockOf(r, p))
	}
	return t
}

// Compute tags every iteration of the given point list and clusters
// iterations with identical tags into groups, in first-appearance order.
// This is the "Initialization" step of the Fig 6 algorithm.
//
// An iteration's tag is fully described by the sorted set of blocks its
// references touch, so iterations are grouped by that block tuple and the
// dense bit-vector Tag is built once per group: the cost is
// O(iterations × refs), independent of the number of blocks.
func Compute(iters []poly.Point, refs []*poly.Ref, layout *poly.Layout) *Tagging {
	numBlocks := layout.NumBlocks()
	byTuple := make(map[string]int32)
	var groups []*Group
	var sizes []int
	iterGroup := make([]int32, len(iters))
	blocks := make([]int, 0, len(refs))
	var key []byte
	for i, p := range iters {
		blocks = blocks[:0]
		for _, r := range refs {
			blocks = append(blocks, layout.BlockOf(r, p))
		}
		slices.Sort(blocks)
		blocks = slices.Compact(blocks)
		key = key[:0]
		for _, b := range blocks {
			key = binary.AppendUvarint(key, uint64(b))
		}
		gi, ok := byTuple[string(key)]
		if !ok {
			t := NewTag(numBlocks)
			for _, b := range blocks {
				t.Set(b)
			}
			gi = int32(len(groups))
			byTuple[string(key)] = gi
			groups = append(groups, &Group{ID: len(groups), Tag: t})
			sizes = append(sizes, 0)
		}
		iterGroup[i] = gi
		sizes[gi]++
	}
	// Lay every group's members out in one backing array, each group's
	// window capped so appends never spill into a neighbour.
	backing := make([]poly.Point, len(iters))
	off := 0
	for gi, g := range groups {
		g.Iters = backing[off : off : off+sizes[gi]]
		off += sizes[gi]
	}
	for i, p := range iters {
		g := groups[iterGroup[i]]
		g.Iters = append(g.Iters, p)
	}
	return &Tagging{
		Groups:     groups,
		Layout:     layout,
		Refs:       refs,
		NumBlocks:  numBlocks,
		TotalIters: len(iters),
		IterGroup:  iterGroup,
	}
}

// ComputeNest is Compute over a loop nest's full iteration space.
func ComputeNest(nest *poly.Nest, refs []*poly.Ref, layout *poly.Layout) *Tagging {
	return Compute(nest.Points(), refs, layout)
}

// SplitGroup splits g into two groups: the first keeping want iterations,
// the second the rest. Both inherit g's tag (splitting is a load-balancing
// device of Fig 6 — "split θ_a such that sizes are within limits"; the tag
// is conservatively kept, since every member still touches at most τ's
// blocks). The returned groups get the IDs id1 and id2.
func SplitGroup(g *Group, want, id1, id2 int) (*Group, *Group) {
	if want <= 0 || want >= g.Size() {
		//lint:ignore cellboundary programmer-error invariant on an internal API; repro.capturePanic converts it to a contained PanicError at the cell boundary
		panic(fmt.Sprintf("tags: SplitGroup(%d of %d)", want, g.Size()))
	}
	a := &Group{ID: id1, Tag: g.Tag.Clone(), Iters: append([]poly.Point(nil), g.Iters[:want]...)}
	b := &Group{ID: id2, Tag: g.Tag.Clone(), Iters: append([]poly.Point(nil), g.Iters[want:]...)}
	return a, b
}

// Validate checks the §3.3 invariants against the iteration slice the
// tagging was computed from: groups are disjoint and cover the whole space
// in program order, IterGroup places every iteration in the group that
// holds it, and every member iteration actually matches its group tag.
func (tg *Tagging) Validate(allIters []poly.Point) error {
	if len(tg.IterGroup) != len(allIters) {
		return fmt.Errorf("tags: tagging records %d iterations, space has %d", len(tg.IterGroup), len(allIters))
	}
	total := 0
	for _, g := range tg.Groups {
		total += g.Size()
		for _, p := range g.Iters {
			t := TagOf(p, tg.Refs, tg.Layout, tg.NumBlocks)
			if !t.Equal(g.Tag) {
				return fmt.Errorf("tags: iteration %v has tag %s but sits in group %s", p, t, g.Tag)
			}
		}
	}
	if total != len(allIters) {
		return fmt.Errorf("tags: groups cover %d iterations, space has %d", total, len(allIters))
	}
	// Walk the space in order with one cursor per group: each iteration
	// must be the next member of its recorded group. With the totals
	// equal, every member is then matched exactly once.
	next := make([]int, len(tg.Groups))
	for i, p := range allIters {
		gi := int(tg.IterGroup[i])
		if gi < 0 || gi >= len(tg.Groups) {
			return fmt.Errorf("tags: iteration %v recorded in nonexistent group %d", p, gi)
		}
		g := tg.Groups[gi]
		if next[gi] >= g.Size() || !g.Iters[next[gi]].Equal(p) {
			return fmt.Errorf("tags: iteration %v not covered by its group %d in program order", p, g.ID)
		}
		next[gi]++
	}
	return nil
}

// SortGroupsBySize orders a copy of the groups by descending size (ties by
// ID for determinism) — handy for load-balancing heuristics and reporting.
func SortGroupsBySize(groups []*Group) []*Group {
	out := append([]*Group(nil), groups...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size() != out[j].Size() {
			return out[i].Size() > out[j].Size()
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Coarsen reduces the number of groups to at most limit by repeatedly
// merging each group with its best-matching neighbour (maximum tag dot
// product within a small look-ahead window, falling back to the next group
// in ID order). Groups adjacent in first-appearance order come from
// program-adjacent iterations and usually share blocks, so this works like
// locally enlarging the data block size: it trades clustering granularity
// for compile time, the Fig 16 trade-off. The result preserves the §3.3
// invariants except tag exactness: a merged group's tag is the OR of its
// members' (every member touches a subset).
func Coarsen(tg *Tagging, limit int) *Tagging {
	if limit <= 0 || len(tg.Groups) <= limit {
		return tg
	}
	groups := append([]*Group(nil), tg.Groups...)
	// of[o] is the index in groups of the group now holding input group o.
	of := make([]int32, len(groups))
	for o := range of {
		of[o] = int32(o)
	}
	const window = 8
	for len(groups) > limit {
		next := make([]*Group, 0, (len(groups)+1)/2)
		used := make([]bool, len(groups))
		to := make([]int32, len(groups))
		for i := range groups {
			if used[i] {
				continue
			}
			used[i] = true
			to[i] = int32(len(next))
			// Find the best unmerged partner within the window.
			best, bestDot := -1, -1
			for j := i + 1; j < len(groups) && j <= i+window; j++ {
				if used[j] {
					continue
				}
				if d := groups[i].Tag.Dot(groups[j].Tag); d > bestDot {
					best, bestDot = j, d
				}
			}
			if best < 0 {
				next = append(next, groups[i])
				continue
			}
			used[best] = true
			to[best] = int32(len(next))
			merged := &Group{
				Tag:   groups[i].Tag.Or(groups[best].Tag),
				Iters: append(append([]poly.Point(nil), groups[i].Iters...), groups[best].Iters...),
			}
			sort.Slice(merged.Iters, func(a, b int) bool { return merged.Iters[a].Less(merged.Iters[b]) })
			next = append(next, merged)
		}
		if len(next) == len(groups) {
			break // nothing mergeable
		}
		for o, i := range of {
			of[o] = to[i]
		}
		groups = next
	}
	for i, g := range groups {
		g.ID = i
	}
	iterGroup := make([]int32, len(tg.IterGroup))
	for i, o := range tg.IterGroup {
		iterGroup[i] = of[o]
	}
	return &Tagging{
		Groups:     groups,
		Layout:     tg.Layout,
		Refs:       tg.Refs,
		NumBlocks:  tg.NumBlocks,
		TotalIters: tg.TotalIters,
		IterGroup:  iterGroup,
	}
}

// SelectBlockSize implements the §4.1 heuristic: pick the largest
// power-of-two block size such that the data footprint of the most
// aggressive iteration group (bounded by maxBlocksPerIter blocks, e.g. the
// reference count of the loop body) does not exceed the L1 capacity. The
// result is clamped to [minBlock, maxBlock]; the paper's default outcome is
// 2 KB.
func SelectBlockSize(l1Bytes int64, maxBlocksPerIter int, minBlock, maxBlock int64) int64 {
	if maxBlocksPerIter < 1 {
		maxBlocksPerIter = 1
	}
	if minBlock <= 0 {
		minBlock = 256
	}
	if maxBlock < minBlock {
		maxBlock = minBlock
	}
	limit := l1Bytes / int64(maxBlocksPerIter)
	size := minBlock
	for size*2 <= limit && size*2 <= maxBlock {
		size *= 2
	}
	return size
}
