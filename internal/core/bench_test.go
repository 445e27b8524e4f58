package core

import (
	"testing"

	"repro/internal/tags"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// coarsenedTagging tags the named kernel at 2 KB blocks and coarsens it to
// at most maxGroups groups, as the mapping pipeline does.
func coarsenedTagging(tb testing.TB, name string, maxGroups int) *tags.Tagging {
	k, err := workloads.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	layout := k.Layout(2048)
	return tags.Coarsen(tags.ComputeNest(k.Nest, k.Refs, layout), maxGroups)
}

func benchDistribute(b *testing.B, name string, maxGroups int) {
	tg := coarsenedTagging(b, name, maxGroups)
	m := topology.Dunnington()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distribute(tg, m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributeGalgel768(b *testing.B) { benchDistribute(b, "galgel", 768) }
func BenchmarkDistributeGalgel256(b *testing.B) { benchDistribute(b, "galgel", 256) }
func BenchmarkDistributeSp(b *testing.B)        { benchDistribute(b, "sp", 768) }

// TestDistributeAllocs is the distribution allocation gate. Clustering
// galgel's 768 groups pushes over half a million candidate pairs through
// the Fig 6 merge heap; the heap stores them unboxed in one pre-sized
// slice, so Distribute's allocations stay with its groups and clusters
// (about 12k). A heap that allocated per pushed pair would blow the limit
// many times over.
func TestDistributeAllocs(t *testing.T) {
	tg := coarsenedTagging(t, "galgel", 768)
	m := topology.Dunnington()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Distribute(tg, m, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 24000
	if allocs > limit {
		t.Errorf("Distribute(galgel, 768 groups) made %.0f allocations, limit %d", allocs, limit)
	}
}
