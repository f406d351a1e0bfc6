package wl

import (
	"slices"
	"strconv"

	"jobgraph/internal/dag"
	"jobgraph/internal/taskname"
)

// This file is the package's one WL refinement loop. A node's label is
// an int32 ref into small token tables, and all scratch (ref arrays,
// neighbor form lists, the composition buffer, BFS state) is owned by an
// embedder, so a warm embedder refines an already-seen graph shape
// without allocating at all (asserted by TestEmbedIntoZeroAlloc).
//
// Recording appends each occurrence's vector key to a scratch list;
// sorting and run-length encoding that list yields the CompactVector
// directly, with no map on the path.
//
// One embedder serves three label compressors, chosen by which of its
// fields is set:
//
//   - dict: a Dictionary interns every refined label and record key;
//   - froz: a Frozen view looks them up, and a refined label it never
//     saw compresses to "?%016x" of its FNV-1a hash;
//   - buckets: feature hashing compresses a refined label to
//     "#<iteration>/<bucket>" and records into FNV-1a buckets.
//
// and all three base kernels: subtree records node labels, edge records
// "N|<label>" per node and "E|<label>|<label>" per edge, and shortest
// path records "SP|<label>|<label>|<d>" per reachable ordered pair.
//
// Every walk runs in ascending node position (= ascending NodeID), and
// each round compresses all nodes before recording, so dictionary ids
// are deterministic. TestGoldenEmbeddings pins every output family.

// A node's current label is an int32 ref:
//
//	ref < 0   token found by content (frozen miss or hashed); index -(ref+1) into extra
//	ref >= 0  index into toks: initial labels first, then "#<id>" with id = ref-tokenBase
const tokenBase = numInitLabels

// Initial-label indices (iteration-0 labels).
const (
	initMap = iota
	initReduce
	initJoin
	initOther
	initUniform // "·" when Options.UseTypeLabels is false
	numInitLabels
)

var initForms = [numInitLabels]string{"M", "R", "J", "?", "·"}

// Sentinels for lazily resolved record keys.
const (
	keyAbsent     int32 = -1 // label not in the (frozen) label space
	keyUnresolved int32 = -2
)

// token is one distinct label: its form, as it appears inside a
// composed refined label, and the vector key its occurrences count into
// (resolved on first record).
type token struct {
	form string
	key  int32
}

// embedder owns the refinement state of one label compressor. Exactly
// one of dict, froz and buckets is set; the embedder must only ever be
// used with that compressor because every cached key is in its space.
type embedder struct {
	dict    *Dictionary
	froz    *Frozen
	buckets uint64

	codes []int32  // current label ref per node position
	next  []int32  // next round's refs (swapped, never reallocated)
	nbrs  []string // neighbor forms, sorted per multiset
	buf   []byte   // composition scratch for one label or record key
	dist  []int32  // shortest-path BFS distances, -1 when unreached
	queue []int32  // shortest-path BFS visit order
	occ   []int32  // vector key of every occurrence recorded this embedding

	toks     []token
	extra    []token
	extraRef map[[2]uint64]int32
}

func newEmbedder(d *Dictionary, f *Frozen, buckets int) *embedder {
	e := &embedder{dict: d, froz: f, buckets: uint64(buckets)}
	for _, form := range initForms {
		e.toks = append(e.toks, token{form: form, key: keyUnresolved})
	}
	return e
}

// embed returns g's feature vector. opt must already be validated.
func (e *embedder) embed(g *dag.Graph, opt Options) CompactVector {
	var vec CompactVector
	e.embedInto(&vec, g, opt)
	return vec
}

// embedInto overwrites vec with g's feature vector, reusing vec's
// storage when it has room. A warm embedder (all labels seen before)
// performs no allocations beyond growth of vec.
func (e *embedder) embedInto(vec *CompactVector, g *dag.Graph, opt Options) {
	e.occ = e.occ[:0]
	n := g.NumNodes()
	if n == 0 {
		e.compact(vec)
		return
	}
	e.codes = resizeRefs(e.codes, n)
	e.next = resizeRefs(e.next, n)

	for p := 0; p < n; p++ {
		e.codes[p] = initRef(g.NodeAt(p).Type, opt.UseTypeLabels)
	}
	e.record(g, opt.Base)

	for it := 0; it < opt.Iterations; it++ {
		for p := 0; p < n; p++ {
			e.compose(g, p, opt.Undirected)
			e.next[p] = e.compress(it)
		}
		e.codes, e.next = e.next, e.codes
		e.record(g, opt.Base)
	}
	e.compact(vec)

	if e.buckets > 0 {
		return // the hashed scale path is not tallied
	}
	obsEmbeds.Add(1)
	obsRefineRounds.Add(int64(opt.Iterations))
	obsVectorSize.Observe(float64(len(vec.Keys)))
	if e.dict != nil {
		obsDictLabels.Set(int64(e.dict.Len()))
	}
}

// compact sorts the recorded occurrence keys and run-length encodes
// them into vec: one entry per distinct key, its count the run length.
func (e *embedder) compact(vec *CompactVector) {
	occ := e.occ
	slices.Sort(occ)
	distinct := 0
	for i := range occ {
		if i == 0 || occ[i] != occ[i-1] {
			distinct++
		}
	}
	keys, vals := vec.Keys[:0], vec.Vals[:0]
	if cap(keys) < distinct {
		keys = make([]int32, 0, distinct)
	}
	if cap(vals) < distinct {
		vals = make([]float64, 0, distinct)
	}
	for i := 0; i < len(occ); {
		j := i + 1
		for j < len(occ) && occ[j] == occ[i] {
			j++
		}
		keys = append(keys, occ[i])
		vals = append(vals, float64(j-i))
		i = j
	}
	vec.Keys, vec.Vals = keys, vals
}

func initRef(t taskname.Type, useTypes bool) int32 {
	if !useTypes {
		return initUniform
	}
	switch t {
	case taskname.TypeMap:
		return initMap
	case taskname.TypeReduce:
		return initReduce
	case taskname.TypeJoin:
		return initJoin
	default:
		return initOther
	}
}

func (e *embedder) tok(ref int32) *token {
	if ref < 0 {
		return &e.extra[-(ref + 1)]
	}
	return &e.toks[ref]
}

// form returns the form of node p's current label.
func (e *embedder) form(p int32) string { return e.tok(e.codes[p]).form }

// compose builds node p's refined label into e.buf: own label, then
// "(P:pred,…|S:succ,…)", or "(nbr,…)" when undirected, with each
// multiset sorted bytewise.
func (e *embedder) compose(g *dag.Graph, p int, undirected bool) {
	preds, succs := g.PredPos(p), g.SuccPos(p)
	buf := append(e.buf[:0], e.form(int32(p))...)
	if undirected {
		f := e.gather(preds, nil)
		f = e.gather(succs, f)
		slices.Sort(f)
		buf = append(buf, '(')
		buf = joinForms(buf, f)
		e.buf = append(buf, ')')
		return
	}
	f := e.gather(preds, nil)
	slices.Sort(f)
	buf = append(buf, "(P:"...)
	buf = joinForms(buf, f)
	f = e.gather(succs, nil)
	slices.Sort(f)
	buf = append(buf, "|S:"...)
	buf = joinForms(buf, f)
	e.buf = append(buf, ')')
}

// gather appends the forms of the given neighbor positions to dst
// (dst == nil restarts the shared scratch slice).
func (e *embedder) gather(nbrs []int32, dst []string) []string {
	if dst == nil {
		dst = e.nbrs[:0]
	}
	for _, q := range nbrs {
		dst = append(dst, e.form(q))
	}
	e.nbrs = dst
	return dst
}

func joinForms(buf []byte, forms []string) []byte {
	for i, f := range forms {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, f...)
	}
	return buf
}

// compress resolves the refined label in e.buf, composed in round it,
// to its next-round ref.
func (e *embedder) compress(it int) int32 {
	switch {
	case e.dict != nil:
		return e.tokenRef(e.dict.intern(e.buf))
	case e.froz != nil:
		if v, ok := e.froz.ids[string(e.buf)]; ok {
			return e.tokenRef(v)
		}
		return e.extraTok([2]uint64{fnvSum(e.buf)})
	default:
		return e.extraTok([2]uint64{uint64(it), fnvSum(e.buf) % e.buckets})
	}
}

// tokenRef returns the ref for dictionary token "#<v>", materializing
// its form on first use.
func (e *embedder) tokenRef(v int) int32 {
	ref := tokenBase + v
	for len(e.toks) <= ref {
		e.toks = append(e.toks, token{key: keyUnresolved})
	}
	if e.toks[ref].form == "" {
		var b [24]byte
		e.toks[ref].form = string(strconv.AppendInt(append(b[:0], '#'), int64(v), 10))
	}
	return int32(ref)
}

// extraTok returns the ref of a token found by content: a frozen miss,
// keyed by its hash, or a hashed token, keyed by (round, bucket).
func (e *embedder) extraTok(k [2]uint64) int32 {
	if ref, ok := e.extraRef[k]; ok {
		return ref
	}
	var b [48]byte
	form := b[:0]
	if e.froz != nil {
		form = appendHashLabel(form, k[0])
	} else {
		form = strconv.AppendUint(append(form, '#'), k[0], 10)
		form = strconv.AppendUint(append(form, '/'), k[1], 10)
	}
	ref := -int32(len(e.extra)) - 1
	e.extra = append(e.extra, token{form: string(form), key: keyUnresolved})
	if e.extraRef == nil {
		e.extraRef = make(map[[2]uint64]int32)
	}
	e.extraRef[k] = ref
	return ref
}

// key resolves the label or record key in e.buf to its vector key: a
// dictionary interns it, a frozen view looks it up, feature hashing
// buckets it. Bucket counts are capped at math.MaxInt32 on entry, so
// every key fits.
func (e *embedder) key() int32 {
	switch {
	case e.dict != nil:
		return int32(e.dict.intern(e.buf))
	case e.froz != nil:
		if v, ok := e.froz.ids[string(e.buf)]; ok {
			return int32(v)
		}
		return keyAbsent
	default:
		return int32(fnvSum(e.buf) % e.buckets)
	}
}

// count records one occurrence of the key in e.buf.
func (e *embedder) count() {
	if k := e.key(); k >= 0 {
		e.occ = append(e.occ, k)
	}
}

// record appends the current round's base-kernel occurrences to e.occ,
// walking nodes (and their successors or BFS reach) in ascending
// position so dictionary interning stays deterministic.
func (e *embedder) record(g *dag.Graph, base BaseKernel) {
	n := len(e.codes)
	switch base {
	case BaseEdge:
		for p := 0; p < n; p++ {
			fu := e.form(int32(p))
			e.buf = append(append(e.buf[:0], "N|"...), fu...)
			e.count()
			for _, q := range g.SuccPos(p) {
				buf := append(append(e.buf[:0], "E|"...), fu...)
				buf = append(buf, '|')
				e.buf = append(buf, e.form(q)...)
				e.count()
			}
		}
	case BaseShortestPath:
		e.dist = resizeRefs(e.dist, n)
		for i := range e.dist {
			e.dist[i] = -1
		}
		for p := 0; p < n; p++ {
			e.queue = bfsFrom(g, int32(p), e.dist, e.queue)
			fu := e.form(int32(p))
			for _, q := range e.queue {
				buf := append(append(e.buf[:0], "SP|"...), fu...)
				buf = append(buf, '|')
				buf = append(buf, e.form(q)...)
				buf = append(buf, '|')
				e.buf = strconv.AppendInt(buf, int64(e.dist[q]), 10)
				e.count()
			}
			for _, q := range e.queue {
				e.dist[q] = -1
			}
		}
	default:
		for p := 0; p < n; p++ {
			t := e.tok(e.codes[p])
			if t.key == keyUnresolved {
				e.buf = append(e.buf[:0], t.form...)
				t.key = e.key()
			}
			if t.key >= 0 {
				e.occ = append(e.occ, t.key)
			}
		}
	}
}

// bfsFrom runs a directed unit-weight BFS from position src over the
// CSR successor lists. dist must hold -1 at every position on entry; on
// return dist holds the distance of every reached position, and the
// reached positions are returned in visit order (src first, at distance
// 0), reusing queue's storage.
func bfsFrom(g *dag.Graph, src int32, dist, queue []int32) []int32 {
	queue = append(queue[:0], src)
	dist[src] = 0
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, v := range g.SuccPos(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

func resizeRefs(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// fnvSum is FNV-1a over b, allocation-free (hash/fnv's New64a escapes).
func fnvSum(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// appendHashLabel appends the frozen-miss form "?%016x" of h.
func appendHashLabel(dst []byte, h uint64) []byte {
	const hexdigits = "0123456789abcdef"
	dst = append(dst, '?')
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexdigits[(h>>uint(shift))&0xf])
	}
	return dst
}
