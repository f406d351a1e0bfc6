package dag

import (
	"bytes"
	"testing"

	"jobgraph/internal/taskname"
)

// FuzzGraphGobDecode feeds arbitrary bytes to the JGD2 graph decoder.
// It must return an error or a valid graph whose re-encoding decodes to
// an equal graph (compared through the encoding itself, which is
// injective and, unlike JSON, carries NaN attributes). Decoded sizes
// stay within what the input bytes can describe, so a corrupt length
// can never drive an allocation beyond the input's scale.
func FuzzGraphGobDecode(f *testing.F) {
	diamond := New("j_fuzz")
	for i := 1; i <= 4; i++ {
		if err := diamond.AddNode(Node{ID: NodeID(i), Type: taskname.TypeMap, Duration: float64(i), Instances: i, PlanCPU: 0.5, PlanMem: 0.25}); err != nil {
			f.Fatal(err)
		}
	}
	for _, e := range [][2]NodeID{{1, 2}, {1, 3}, {2, 4}, {3, 4}} {
		if err := diamond.AddEdge(e[0], e[1]); err != nil {
			f.Fatal(err)
		}
	}
	for _, g := range []*Graph{diamond, New("empty")} {
		b, err := g.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte("JGD2"))
	f.Add([]byte("JGD2\x00\xff\xff\xff\xff\x0f"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := g.GobDecode(data); err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph is invalid: %v", err)
		}
		if g.NumNodes() > len(data)/27+1 || g.NumEdges() > len(data) {
			t.Fatalf("%d nodes, %d edges decoded from %d bytes", g.NumNodes(), g.NumEdges(), len(data))
		}
		enc, err := g.GobEncode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var back Graph
		if err := back.GobDecode(enc); err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		again, err := back.GobEncode()
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(enc, again) || back.JobID != g.JobID {
			t.Fatal("re-encoding decoded to a different graph")
		}
	})
}
