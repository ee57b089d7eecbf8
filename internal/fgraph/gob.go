package fgraph

import (
	"bytes"
	"encoding/gob"
)

// wireGraph is the exported wire form of a Graph for gob transport between
// real networked nodes.
type wireGraph struct {
	Fns     []string
	Deps    [][2]int
	Commute [][2]int
}

// GobEncode implements gob.GobEncoder, so messages carrying function graphs
// (probes, requests, service graphs) can cross process boundaries.
func (g *Graph) GobEncode() ([]byte, error) {
	w := wireGraph{Fns: g.fns, Commute: g.commute}
	for u := range g.succ {
		for _, v := range g.succ[u] {
			w.Deps = append(w.Deps, [2]int{u, v})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. The decoded graph passes the same
// validation as Builder.Build, so a malformed peer cannot inject cyclic,
// disconnected or over-branched graphs, and derives the same patterns and
// branches.
func (g *Graph) GobDecode(data []byte) error {
	var w wireGraph
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	b := NewBuilder()
	for _, f := range w.Fns {
		b.AddFunction(f)
	}
	for _, d := range w.Deps {
		b.AddDependency(d[0], d[1])
	}
	for _, c := range w.Commute {
		b.AddCommutation(c[0], c[1])
	}
	decoded, err := b.Build()
	if err != nil {
		return err
	}
	*g = *decoded
	g.patterns[0] = g // pattern 0 is the graph itself, not the copy decoded
	return nil
}
