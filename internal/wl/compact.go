package wl

// CompactVector is the package's one feature vector φ(G), a sparse
// label-count vector in sorted parallel-array form: Keys ascending
// (dictionary ids or hash buckets), Vals[i] the count for Keys[i], zero
// entries dropped. Pairwise kernels are linear merge-joins over the
// sorted key lists. Values are label counts (exact small integers), so
// every product and partial sum is an exactly-representable integer and
// kernel values do not depend on summation order.
type CompactVector struct {
	Keys []int32
	Vals []float64
}

// Dot returns ⟨c, o⟩ — the un-normalized WL kernel value — by merging
// the two sorted key lists.
func (c CompactVector) Dot(o CompactVector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(c.Keys) && j < len(o.Keys) {
		switch {
		case c.Keys[i] < o.Keys[j]:
			i++
		case c.Keys[i] > o.Keys[j]:
			j++
		default:
			s += c.Vals[i] * o.Vals[j]
			i++
			j++
		}
	}
	return s
}

// SelfDot returns ⟨c, c⟩.
func (c CompactVector) SelfDot() float64 {
	var s float64
	for _, v := range c.Vals {
		s += v * v
	}
	return s
}
