package spmat

import (
	"testing"
	"testing/quick"

	"repro/internal/prng"
	"repro/internal/smp"
	"repro/internal/spvec"
)

// figure2Triples is the example matrix from the paper's Figure 2.
func figure2Triples() []Triple {
	return []Triple{
		{0, 1}, {0, 4}, {1, 0}, {1, 2}, {2, 3}, {2, 5},
		{3, 1}, {3, 2}, {3, 4}, {4, 3}, {5, 0},
	}
}

func TestCSCBasic(t *testing.T) {
	m, err := NewCSC(6, 6, figure2Triples())
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 11 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	got := m.ColRows(1)
	want := []int64{0, 3}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("col 1 rows = %v, want %v", got, want)
	}
	if len(m.ColRows(5)) != 1 {
		t.Errorf("col 5 rows = %v", m.ColRows(5))
	}
}

func TestDCSCMatchesCSC(t *testing.T) {
	ts := figure2Triples()
	c, err := NewCSC(6, 6, append([]Triple(nil), ts...))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDCSC(6, 6, append([]Triple(nil), ts...))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != d.NNZ() {
		t.Fatalf("nnz mismatch: %d vs %d", c.NNZ(), d.NNZ())
	}
	if d.NZC() != 6 {
		t.Errorf("NZC = %d", d.NZC())
	}
	for j, col := range d.JC {
		got := d.colRowsAt(j)
		want := c.ColRows(col)
		if len(got) != len(want) {
			t.Fatalf("col %d: %v vs %v", col, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("col %d: %v vs %v", col, got, want)
			}
		}
	}
}

func TestDCSCHypersparseStorage(t *testing.T) {
	// A single nonzero in a huge matrix: DCSC storage must be O(1),
	// CSC would be O(cols).
	const dim = 1 << 20
	d, err := NewDCSC(dim, dim, []Triple{{5, 1000000}})
	if err != nil {
		t.Fatal(err)
	}
	if d.StorageWords() > 8 {
		t.Errorf("DCSC storage for 1 nonzero = %d words", d.StorageWords())
	}
	c, err := NewCSC(dim, dim, []Triple{{5, 1000000}})
	if err != nil {
		t.Fatal(err)
	}
	if c.StorageWords() < dim {
		t.Errorf("CSC storage unexpectedly small: %d", c.StorageWords())
	}
}

func TestDuplicateCollapse(t *testing.T) {
	ts := []Triple{{1, 1}, {1, 1}, {1, 1}, {2, 1}}
	d, err := NewDCSC(4, 4, ts)
	if err != nil {
		t.Fatal(err)
	}
	if d.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", d.NNZ())
	}
}

func TestBoundsChecked(t *testing.T) {
	if _, err := NewDCSC(4, 4, []Triple{{4, 0}}); err == nil {
		t.Error("row out of range accepted")
	}
	if _, err := NewCSC(4, 4, []Triple{{0, -1}}); err == nil {
		t.Error("negative col accepted")
	}
	if _, err := NewRowSplit(4, 4, []Triple{{0, 4}}, 2); err == nil {
		t.Error("col out of range accepted")
	}
	if _, err := NewSym(4, []Triple{{4, 1}}); err == nil {
		t.Error("symmetric entry out of range accepted")
	}
	if _, err := NewSym(-1, nil); err == nil {
		t.Error("negative dimension accepted")
	}
}

func TestSpMSVFigure2(t *testing.T) {
	d, err := NewDCSC(6, 6, figure2Triples())
	if err != nil {
		t.Fatal(err)
	}
	// Frontier {1, 4} with values equal to indices (BFS convention).
	f := &spvec.Vec{}
	f.Append(1, 1)
	f.Append(4, 4)
	for _, kernel := range []Kernel{KernelSPA, KernelHeap, KernelAuto} {
		out := d.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: kernel})
		// Col 1 has rows {0,3}; col 4 has rows {0,3}. Union: {0,3} with
		// max value 4.
		if out.NNZ() != 2 || out.Ind[0] != 0 || out.Ind[1] != 3 {
			t.Fatalf("kernel %v: out.Ind = %v", kernel, out.Ind)
		}
		if out.Val[0] != 4 || out.Val[1] != 4 {
			t.Errorf("kernel %v: out.Val = %v, want max semiring value 4", kernel, out.Val)
		}
	}
}

func TestSpMSVEmptyFrontier(t *testing.T) {
	d, err := NewDCSC(6, 6, figure2Triples())
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []Kernel{KernelSPA, KernelHeap, KernelAuto} {
		out := d.SpMSV(&spvec.Vec{}, &spvec.Vec{}, SpMSVOpts{Kernel: kernel})
		if out.NNZ() != 0 {
			t.Errorf("kernel %v: empty frontier produced %d nonzeros", kernel, out.NNZ())
		}
	}
}

func randomTriples(rng *prng.Xoshiro256, rows, cols int64, m int) []Triple {
	ts := make([]Triple, m)
	for i := range ts {
		ts[i] = Triple{rng.Int64n(rows), rng.Int64n(cols)}
	}
	return ts
}

func randomFrontier(rng *prng.Xoshiro256, cols int64, k int) *spvec.Vec {
	ind := make([]int64, k)
	val := make([]int64, k)
	for i := range ind {
		ind[i] = rng.Int64n(cols)
		val[i] = rng.Int64n(1000)
	}
	return spvec.FromUnsorted(ind, val)
}

// Property: all three kernels agree with the CSC oracle on random inputs.
func TestKernelsAgreeWithOracle(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		rows := int64(rng.Intn(100) + 1)
		cols := int64(rng.Intn(100) + 1)
		ts := randomTriples(rng, rows, cols, rng.Intn(300))
		c, err := NewCSC(rows, cols, append([]Triple(nil), ts...))
		if err != nil {
			return false
		}
		d, err := NewDCSC(rows, cols, append([]Triple(nil), ts...))
		if err != nil {
			return false
		}
		f := randomFrontier(rng, cols, rng.Intn(30))
		want := c.SpMSV(&spvec.Vec{}, f)
		for _, kernel := range []Kernel{KernelSPA, KernelHeap, KernelAuto} {
			got := d.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: kernel})
			if got.NNZ() != want.NNZ() {
				return false
			}
			for i := range got.Ind {
				if got.Ind[i] != want.Ind[i] || got.Val[i] != want.Val[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: row-split SpMSV (sequential and parallel) agrees with the
// unsplit DCSC product.
func TestRowSplitAgrees(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		rows := int64(rng.Intn(120) + 2)
		cols := int64(rng.Intn(80) + 1)
		ts := randomTriples(rng, rows, cols, rng.Intn(400))
		d, err := NewDCSC(rows, cols, append([]Triple(nil), ts...))
		if err != nil {
			return false
		}
		nthreads := rng.Intn(6) + 1
		rs, err := NewRowSplit(rows, cols, append([]Triple(nil), ts...), nthreads)
		if err != nil {
			return false
		}
		if rs.NNZ() != d.NNZ() {
			return false
		}
		f := randomFrontier(rng, cols, rng.Intn(25))
		want := d.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: KernelSPA})
		pool := smp.NewPool(nthreads)
		defer pool.Close()
		var rsc RowScratch
		for _, p := range []*smp.Pool{nil, pool} {
			// Run twice per mode so scratch reuse is exercised.
			for pass := 0; pass < 2; pass++ {
				got := rs.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: KernelHeap}, p, &rsc)
				if got.NNZ() != want.NNZ() || !got.IsSorted() {
					return false
				}
				for i := range got.Ind {
					if got.Ind[i] != want.Ind[i] || got.Val[i] != want.Val[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRowSplitStripShapes(t *testing.T) {
	rs, err := NewRowSplit(10, 6, figure2Triples()[:6], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Strips) != 3 {
		t.Fatalf("strip count = %d", len(rs.Strips))
	}
	var total int64
	for s, strip := range rs.Strips {
		if strip.Rows != rs.Offsets[s+1]-rs.Offsets[s] {
			t.Errorf("strip %d rows = %d", s, strip.Rows)
		}
		total += strip.Rows
	}
	if total != 10 {
		t.Errorf("strips cover %d rows, want 10", total)
	}
}

// TestScratchReuseMatchesFresh drives both kernels through a shared
// Scratch across differently shaped matrices and checks against
// scratch-free runs: the pooled SPA, stream list, and cursor heap must
// never leak state between calls.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := prng.New(0x5c)
	var sc Scratch
	for round := 0; round < 40; round++ {
		rows := int64(rng.Intn(60) + 2)
		cols := int64(rng.Intn(40) + 1)
		d, err := NewDCSC(rows, cols, randomTriples(rng, rows, cols, rng.Intn(200)))
		if err != nil {
			t.Fatal(err)
		}
		f := randomFrontier(rng, cols, rng.Intn(15))
		for _, kernel := range []Kernel{KernelSPA, KernelHeap, KernelAuto} {
			want := d.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: kernel})
			got := d.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: kernel, Scratch: &sc})
			if got.NNZ() != want.NNZ() {
				t.Fatalf("round %d kernel %v: nnz %d != %d", round, kernel, got.NNZ(), want.NNZ())
			}
			for i := range got.Ind {
				if got.Ind[i] != want.Ind[i] || got.Val[i] != want.Val[i] {
					t.Fatalf("round %d kernel %v: entry %d differs", round, kernel, i)
				}
			}
		}
	}
}

func TestSPAReuseAcrossCalls(t *testing.T) {
	d, err := NewDCSC(6, 6, figure2Triples())
	if err != nil {
		t.Fatal(err)
	}
	spa := spvec.NewSPA(6)
	f := &spvec.Vec{}
	f.Append(1, 1)
	a := d.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: KernelSPA, SPA: spa})
	b := d.SpMSV(&spvec.Vec{}, f, SpMSVOpts{Kernel: KernelSPA, SPA: spa})
	if a.NNZ() != b.NNZ() {
		t.Error("SPA reuse changed result")
	}
}
