package edgefile

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/rmat"
)

func TestRoundTrip(t *testing.T) {
	el, err := rmat.Graph500(8, 8, 0xe1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, el); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVerts != el.NumVerts || len(got.Edges) != len(el.Edges) {
		t.Fatalf("header mismatch: %d/%d vs %d/%d", got.NumVerts, len(got.Edges), el.NumVerts, len(el.Edges))
	}
	for i := range got.Edges {
		if got.Edges[i] != el.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRoundTripFile(t *testing.T) {
	el := &graph.EdgeList{NumVerts: 5, Edges: []graph.Edge{{U: 0, V: 4}, {U: 3, V: 2}}}
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := WriteFile(path, el); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVerts != 5 || len(got.Edges) != 2 || got.Edges[1] != (graph.Edge{U: 3, V: 2}) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	el := &graph.EdgeList{NumVerts: 3, Edges: []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}}
	var buf bytes.Buffer
	if err := Write(&buf, el); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { c := clone(b); c[0] ^= 0xff; return c }},
		{"truncated header", func(b []byte) []byte { return clone(b)[:12] }},
		{"truncated edges", func(b []byte) []byte { return clone(b)[:len(b)-8] }},
		{"trailing garbage", func(b []byte) []byte { return append(clone(b), 0xaa) }},
		{"out-of-range edge", func(b []byte) []byte {
			c := clone(b)
			// Overwrite the first edge's target with a huge value.
			for i := 0; i < 8; i++ {
				c[len(Magic)+16+8+i] = 0x7f
			}
			return c
		}},
		{"negative counts", func(b []byte) []byte {
			c := clone(b)
			c[len(Magic)+7] = 0x80 // sign bit of the vertex count
			return c
		}},
		{"huge edge count", func(b []byte) []byte {
			// A 24-byte file: the header alone, declaring 2^58 edges.
			c := clone(b)[:len(Magic)+16]
			binary.LittleEndian.PutUint64(c[len(Magic)+8:], 1<<58)
			return c
		}},
	}
	for _, tc := range cases {
		if _, err := Read(bytes.NewReader(tc.mutate(good))); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// Property: arbitrary edge lists survive a round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := prng.New(seed)
		n := rng.Int64n(1000) + 1
		el := &graph.EdgeList{NumVerts: n}
		for i := 0; i < rng.Intn(500); i++ {
			el.Edges = append(el.Edges, graph.Edge{U: rng.Int64n(n), V: rng.Int64n(n)})
		}
		var buf bytes.Buffer
		if err := Write(&buf, el); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.NumVerts != el.NumVerts || len(got.Edges) != len(el.Edges) {
			return false
		}
		for i := range got.Edges {
			if got.Edges[i] != el.Edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzRead feeds arbitrary bytes to Read. It must never panic; a file it
// accepts holds only in-range edges and writes back to the same bytes.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, &graph.EdgeList{NumVerts: 3, Edges: []graph.Edge{{U: 0, V: 1}, {U: 2, V: 2}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		el, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range el.Edges {
			if e.U < 0 || e.U >= el.NumVerts || e.V < 0 || e.V >= el.NumVerts {
				t.Fatalf("accepted out-of-range edge %v with %d vertices", e, el.NumVerts)
			}
		}
		var out bytes.Buffer
		if err := Write(&out, el); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d bytes that write back as %d different bytes", len(data), out.Len())
		}
	})
}
