package wl

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"jobgraph/internal/dag"
)

// TestDictionaryGobRoundTrip is the kernel-state cache guarantee: a
// dictionary that went through gob embeds a new graph to the identical
// feature vector the original would have produced.
func TestDictionaryGobRoundTrip(t *testing.T) {
	opt := DefaultOptions()
	corpus := []*dag.Graph{chainGraph(t, "a", 3), chainGraph(t, "b", 5)}
	vecs, dict, err := Features(corpus, opt)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dict); err != nil {
		t.Fatal(err)
	}
	var restored Dictionary
	if err := gob.NewDecoder(&buf).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != dict.Len() {
		t.Fatalf("restored %d labels, want %d", restored.Len(), dict.Len())
	}

	query := chainGraph(t, "q", 4)
	want, err := dict.Embed(query, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Embed(query, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored dictionary embeds differently:\n%v\nvs\n%v", want, got)
	}
	// Existing corpus vectors stay comparable against the restored
	// dictionary's embeddings.
	if s := Similarity(got, vecs[1]); s <= 0 {
		t.Fatalf("similarity against corpus vector = %v", s)
	}
}

// TestDictionaryGobRejectsCorruptIDs: a decoded dictionary must assign
// ids 0..len-1, each once. A negative id would index the embedder's
// token tables out of range, a huge one would grow them to match, and
// a gap or duplicate would make interning collide.
func TestDictionaryGobRejectsCorruptIDs(t *testing.T) {
	for name, ids := range map[string]map[string]int{
		"negative":  {"M": 0, "R": -7},
		"huge":      {"M": 0, "R": 1 << 40},
		"gap":       {"M": 0, "R": 2},
		"duplicate": {"M": 0, "R": 0},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ids); err != nil {
			t.Fatal(err)
		}
		var d Dictionary
		if err := d.GobDecode(buf.Bytes()); err == nil {
			t.Errorf("%s ids %v accepted", name, ids)
		}
	}
}
