package maxcover

import "math/bits"

// heapOrdered is implemented by heap elements; above reports whether the
// receiver has strictly higher priority (max-heap order).
type heapOrdered[T any] interface{ above(T) bool }

// The sift routines below replicate container/heap's algorithm exactly
// (same child-selection and tie handling) so that lazy-greedy selection
// order — and therefore every returned seed set — is identical to the
// container/heap-based implementation they replace. Operating on the
// concrete element type avoids interface boxing: zero allocations per
// push/pop on the selection hot path.

func heapInit[T heapOrdered[T]](h []T) {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		heapDown(h, i, n)
	}
}

func heapPush[T heapOrdered[T]](h *[]T, x T) {
	*h = append(*h, x)
	heapUp(*h, len(*h)-1)
}

func heapPop[T heapOrdered[T]](h *[]T) T {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	heapDown(old, 0, n)
	x := old[n]
	*h = old[:n]
	return x
}

func heapUp[T heapOrdered[T]](h []T, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h[j].above(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func heapDown[T heapOrdered[T]](h []T, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].above(h[j1]) {
			j = j2 // right child
		}
		if !h[j].above(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// The candidate heap of a greedy run — heapify builds it, extend pops and
// pushes — has its own sifts on the concrete candidate type: through the
// generic ones every comparison is an above call through the
// instantiation's dictionary, never inlined, and a first visit to a prefix
// (BenchmarkSolverFirstVisit, two cores) took about 15 % longer. siftDown and
// siftUp are heapDown and heapUp with above spelled out, so ties break as
// in container/heap.

// heapify is heapInit on candidates — Floyd's pass, siftDown(i) for i from
// len(h)/2−1 down to 0 — with the subtrees rooted at one level sifted
// concurrently on workers goroutines once h holds parallelMin candidates,
// and the levels above them serially after. siftDown(i) reads and writes
// only i's subtree, and every node is still sifted after all of its
// descendants, so the array is byte-identical to the serial pass for any
// worker count.
func heapify(h []candidate, workers int) {
	inner := len(h) / 2 // nodes [0, inner) have children
	top := inner        // nodes [0, top) are sifted serially, last
	// The level with four roots per worker, so that subtrees the partly
	// filled bottom level leaves unequal still balance, or the lowest level
	// with children when the heap is shallower.
	roots := 1 << bits.Len(uint(4*workers-1))
	for roots > 1 && roots-1 >= inner {
		roots >>= 1
	}
	if workers > 1 && len(h) >= parallelMin && roots > 1 {
		top = roots - 1
		last := min(2*roots-1, inner) // the roots with children: [top, last)
		// Every workers-th root: the bigger subtrees sit left, so this
		// deals them out evenly.
		parallel(workers, func(p int) {
			for r := top + p; r < last; r += workers {
				siftSubtree(h, r, inner)
			}
		})
	}
	for i := top - 1; i >= 0; i-- {
		siftDown(h, i, len(h))
	}
}

// siftSubtree runs siftDown over the inner nodes of r's subtree, deepest
// level first. The nodes d levels below r are [(r+1)·2^d − 1, (r+2)·2^d − 1).
func siftSubtree(h []candidate, r, inner int) {
	d := 0
	for (r+1)<<(d+1)-1 < inner {
		d++
	}
	for ; d >= 0; d-- {
		lo, hi := (r+1)<<d-1, min((r+2)<<d-1, inner)
		for i := hi - 1; i >= lo; i-- {
			siftDown(h, i, len(h))
		}
	}
}

// popCandidate removes h's top, as heapPop does.
func popCandidate(h *[]candidate) {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	siftDown(*h, 0, n)
}

// pushCandidate adds x to h, as heapPush does.
func pushCandidate(h *[]candidate, x candidate) {
	*h = append(*h, x)
	siftUp(*h, len(*h)-1)
}

func siftDown(h []candidate, i, n int) {
	for {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].gain > h[j].gain {
			j = j2
		}
		if h[j].gain <= h[i].gain {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func siftUp(h []candidate, j int) {
	for j > 0 {
		i := (j - 1) / 2
		if h[j].gain <= h[i].gain {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}
