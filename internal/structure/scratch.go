package structure

import "math"

// Scratch is reusable dense working memory for the greedy independent
// cover kernel, so a caller that builds many covers on one graph (the
// Theorem 5 schedule builder runs one per tail round) allocates O(n) once
// instead of hash maps per call.
//
// Its vertex-indexed mark array is epoch-stamped: a call reserves fresh
// stamps and a vertex is in a set iff its mark equals the set's stamp, so
// "clearing" every set between calls is a counter increment.
//
// A Scratch is not safe for concurrent use.
type Scratch struct {
	mark  []int32
	epoch int32
	keys  []uint64 // packed (degree, position) sort keys
}

// NewScratch returns scratch for graphs of up to n vertices. It grows on
// demand when the kernel is handed a larger graph.
func NewScratch(n int) *Scratch {
	return &Scratch{mark: make([]int32, n)}
}

// fit grows the mark array to cover vertex ids below n. A grown array is
// fresh zeroes, so the epoch restarts.
func (s *Scratch) fit(n int) {
	if len(s.mark) < n {
		s.mark = make([]int32, n)
		s.epoch = 0
	}
}

// stamps reserves k consecutive fresh stamps and returns the first. When
// the epoch would overflow, every mark is cleared and numbering restarts,
// which keeps the "no vertex carries a fresh stamp" invariant.
func (s *Scratch) stamps(k int32) int32 {
	if s.epoch > math.MaxInt32-k {
		clear(s.mark)
		s.epoch = 0
	}
	base := s.epoch + 1
	s.epoch += k
	return base
}
