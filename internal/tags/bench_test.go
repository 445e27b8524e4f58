package tags

import (
	"testing"

	"repro/internal/poly"
)

// mirrorKernel is the tagging benchmark's 65 536-iteration loop
// W[j] = f(A[j], A[n-1-j]), whose mirrored read makes every group touch
// blocks at both ends of A.
func mirrorKernel(blockBytes int64) ([]poly.Point, []*poly.Ref, *poly.Layout) {
	const n = 1 << 16
	a := poly.NewArray("A", n)
	w := poly.NewArray("W", n)
	nest := poly.NewNest(poly.RectLoop("j", 0, n-1))
	refs := []*poly.Ref{
		poly.NewRef(a, poly.Read, poly.Var(0, 1)),
		poly.NewRef(a, poly.Read, poly.Var(0, 1).Scale(-1).AddConst(n-1)),
		poly.NewRef(w, poly.Write, poly.Var(0, 1)),
	}
	return nest.Points(), refs, poly.NewLayout(blockBytes, a, w)
}

func benchTagging(b *testing.B, blockBytes int64) {
	pts, refs, layout := mirrorKernel(blockBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg := Compute(pts, refs, layout)
		if len(tg.Groups) == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkCompute2KB(b *testing.B)  { benchTagging(b, 2048) }
func BenchmarkCompute256B(b *testing.B) { benchTagging(b, 256) }

// TestComputeAllocsPerGroup is the tagging allocation gate: Compute groups
// iterations by their block tuple and builds one dense tag per group, so
// its allocations grow with the number of groups, not with the 65 536
// iterations (a per-iteration tag or key costs at least one each).
func TestComputeAllocsPerGroup(t *testing.T) {
	for _, blockBytes := range []int64{2048, 256} {
		pts, refs, layout := mirrorKernel(blockBytes)
		groups := len(Compute(pts, refs, layout).Groups)
		allocs := testing.AllocsPerRun(2, func() { Compute(pts, refs, layout) })
		if limit := float64(4*groups + 64); allocs > limit {
			t.Errorf("%d-byte blocks: Compute made %.0f allocations for %d groups of %d iterations, limit %.0f",
				blockBytes, allocs, groups, len(pts), limit)
		}
	}
}

func BenchmarkTagDot(b *testing.B) {
	t1, t2 := NewTag(4096), NewTag(4096)
	for i := 0; i < 4096; i += 3 {
		t1.Set(i)
	}
	for i := 0; i < 4096; i += 5 {
		t2.Set(i)
	}
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += t1.Dot(t2)
	}
	_ = acc
}

func BenchmarkCoarsen(b *testing.B) {
	const n = 1 << 15
	a := poly.NewArray("A", n)
	nest := poly.NewNest(poly.RectLoop("j", 0, n-1))
	refs := []*poly.Ref{poly.NewRef(a, poly.Read, poly.Var(0, 1))}
	layout := poly.NewLayout(256, a)
	pts := nest.Points()
	tg := Compute(pts, refs, layout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Coarsen(tg, 256)
		if len(out.Groups) > 256 {
			b.Fatal("coarsen failed")
		}
	}
}
