package dag

import (
	"encoding/binary"
	"fmt"
	"math"

	"jobgraph/internal/taskname"
)

// Gob support for Graph, required by the engine's artifact cache. The
// wire form is a compact binary CSR listing — magic header, delta-coded
// node ids, fixed64 attributes, then successor rows in position order —
// a fraction of the size of the JSON delegation the map-era codec used
// and decodable without a JSON parse. Decoded graphs are validated, so
// a corrupt artifact surfaces as a cache miss, not a bad graph. This
// format change bumped the engine cache key schema to
// "jobgraph-engine/v2": v1 artifacts must miss rather than decode
// wrongly.

// gobMagic versions the binary wire form.
var gobMagic = [4]byte{'J', 'G', 'D', '2'}

// GobEncode implements gob.GobEncoder.
func (g *Graph) GobEncode() ([]byte, error) {
	g.ensureBuilt()
	n := g.NumNodes()
	buf := make([]byte, 0, 4+len(g.JobID)+8+n*32+g.NumEdges()*4)
	buf = append(buf, gobMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(g.JobID)))
	buf = append(buf, g.JobID...)
	buf = binary.AppendUvarint(buf, uint64(n))
	prev := uint64(0)
	for p := 0; p < n; p++ {
		node := &g.nodes[g.byID[p]]
		id := uint64(node.ID)
		buf = binary.AppendUvarint(buf, id-prev) // ids ascend; delta ≥ 1
		prev = id
		buf = append(buf, byte(node.Type))
		buf = binary.AppendUvarint(buf, uint64(node.Instances))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(node.Duration))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(node.PlanCPU))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(node.PlanMem))
	}
	for p := 0; p < n; p++ {
		row := g.SuccPos(p)
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		for _, q := range row {
			buf = binary.AppendUvarint(buf, uint64(q))
		}
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder; the receiver is reset. The
// decoded graph is re-validated like any other construction path.
func (g *Graph) GobDecode(data []byte) error {
	r := gobReader{data: data}
	var magic [4]byte
	if err := r.bytes(magic[:]); err != nil || magic != gobMagic {
		return fmt.Errorf("dag: bad graph wire header")
	}
	jobLen, err := r.uvarint()
	if err != nil {
		return err
	}
	if jobLen > uint64(len(data)) {
		return fmt.Errorf("dag: truncated graph wire form")
	}
	jobID := make([]byte, jobLen)
	if err := r.bytes(jobID); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	// Each node costs ≥ 27 wire bytes; an n beyond that bound means a
	// corrupt length, and rejecting it here avoids a huge allocation.
	if n > uint64(len(data))/27+1 {
		return fmt.Errorf("dag: graph wire form claims %d nodes in %d bytes", n, len(data))
	}
	fresh := New(string(jobID))
	ids := make([]NodeID, n)
	prev := uint64(0)
	for p := uint64(0); p < n; p++ {
		delta, err := r.uvarint()
		if err != nil {
			return err
		}
		prev += delta
		typ, err := r.byte()
		if err != nil {
			return err
		}
		inst, err := r.uvarint()
		if err != nil {
			return err
		}
		var f [3]float64
		for i := range f {
			bits, err := r.fixed64()
			if err != nil {
				return err
			}
			f[i] = math.Float64frombits(bits)
		}
		ids[p] = NodeID(prev)
		if err := fresh.AddNode(Node{
			ID:        ids[p],
			Type:      taskname.Type(typ),
			Duration:  f[0],
			Instances: int(inst),
			PlanCPU:   f[1],
			PlanMem:   f[2],
		}); err != nil {
			return err
		}
	}
	for p := uint64(0); p < n; p++ {
		rowLen, err := r.uvarint()
		if err != nil {
			return err
		}
		for j := uint64(0); j < rowLen; j++ {
			q, err := r.uvarint()
			if err != nil {
				return err
			}
			if q >= n {
				return fmt.Errorf("dag: graph wire form references position %d of %d", q, n)
			}
			if err := fresh.AddEdge(ids[p], ids[q]); err != nil {
				return err
			}
		}
	}
	if err := fresh.Validate(); err != nil {
		return err
	}
	*g = *fresh
	return nil
}

// gobReader is a minimal cursor over the wire bytes with explicit
// truncation errors.
type gobReader struct {
	data []byte
	off  int
}

func (r *gobReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("dag: truncated graph wire form")
	}
	r.off += n
	return v, nil
}

func (r *gobReader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, fmt.Errorf("dag: truncated graph wire form")
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *gobReader) fixed64() (uint64, error) {
	if r.off+8 > len(r.data) {
		return 0, fmt.Errorf("dag: truncated graph wire form")
	}
	v := binary.LittleEndian.Uint64(r.data[r.off : r.off+8])
	r.off += 8
	return v, nil
}

func (r *gobReader) bytes(dst []byte) error {
	if r.off+len(dst) > len(r.data) {
		return fmt.Errorf("dag: truncated graph wire form")
	}
	copy(dst, r.data[r.off:r.off+len(dst)])
	r.off += len(dst)
	return nil
}
