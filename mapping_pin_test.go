package repro_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// mappingPinGolden holds one line per pinned cell: the cell name, a
// SHA-256 of its per-core schedule and its simulated cycle count.
var mappingPinGolden = filepath.Join("testdata", "mapping_pin.golden")

// pinCell is one cell of the mapping pin grid.
type pinCell struct {
	k      *repro.Kernel
	m      *repro.Machine
	scheme repro.Scheme
}

func (c pinCell) name() string {
	return fmt.Sprintf("%s/%s/%v", c.k.Name, c.m.Name, c.scheme)
}

// scheduleHash digests the exact per-core execution plan of a mapped run:
// for every barrier round and core, the group ids in order and each
// group's iterations in order. Any change to tagging, coarsening,
// dependence collapsing, Fig 6 distribution or Fig 7 scheduling that moves
// an iteration changes the hash.
func scheduleHash(run *repro.Run) string {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	s := run.Schedule
	put(int64(s.NumCores))
	put(int64(len(s.Rounds)))
	if s.Synchronized {
		put(1)
	} else {
		put(0)
	}
	for _, round := range s.Rounds {
		for c, gs := range round {
			put(int64(c))
			put(int64(len(gs)))
			for _, g := range gs {
				put(int64(g))
				iters := run.Mapping.Groups[g].Iters
				put(int64(len(iters)))
				for _, p := range iters {
					for _, v := range p {
						put(v)
					}
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestMappingPin pins the mapping pipeline's output byte for byte: the
// per-core schedule (iteration lists in order) and simulated cycles of the
// Table 2 kernels on Dunnington under TopologyAware and Combined, plus
// galgel-x2 on a 24-core Dunnington. Performance work on tagging,
// dependence analysis and distribution must leave every line unchanged.
func TestMappingPin(t *testing.T) {
	want := readPinGolden(t)
	cfg := repro.DefaultConfig()
	var cells []pinCell
	for _, k := range repro.Kernels() {
		for _, s := range []repro.Scheme{repro.SchemeTopologyAware, repro.SchemeCombined} {
			cells = append(cells, pinCell{k, repro.Dunnington(), s})
		}
	}
	if !testing.Short() {
		d24, err := topology.ScaleDunnington(24)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := workloads.Scaled("galgel", 2)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, pinCell{g2, d24, repro.SchemeTopologyAware})
	}
	for _, c := range cells {
		run, err := repro.Evaluate(c.k, c.m, c.scheme, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		got := fmt.Sprintf("%s %d", scheduleHash(run), run.Sim.TotalCycles)
		w, ok := want[c.name()]
		switch {
		case !ok:
			t.Errorf("%s: no golden line; got\n%s %s", c.name(), c.name(), got)
		case w != got:
			t.Errorf("%s: mapping moved\n got  %s\n want %s", c.name(), got, w)
		}
	}
}

func readPinGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(mappingPinGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", mappingPinGolden, line)
		}
		out[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
