package tensor

// Arena is a grow-only scratch allocator for inference temporaries.
// Get hands out tensors backed by reusable buffers; Reset recycles every
// tensor handed out since the previous Reset without freeing anything.
// After the first few requests at a given batch size, every slot has
// grown to its steady-state capacity and a Reset/Get cycle performs no
// heap allocation at all — the property the serving fast path's
// zero-alloc guarantee rests on.
//
// Tensors returned by Get and View are only valid until the next Reset;
// an Arena is owned by one goroutine (one serving replica) and is not
// safe for concurrent use.
type Arena struct {
	slots []*Tensor
	next  int

	// int8/int64 scratch pools for the quantized inference path: the
	// quantized activations, lowered int8 cols and packed-lane GEMM
	// accumulators cycle through these with the same grow-only
	// discipline as the tensor slots.
	i8slots  [][]int8
	i8next   int
	i64slots [][]int64
	i64next  int
}

// NewArena creates an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset recycles every tensor and scratch slice handed out since the
// last Reset. Backing buffers are retained at their high-water capacity.
func (a *Arena) Reset() {
	a.next = 0
	a.i8next = 0
	a.i64next = 0
}

// Slots reports how many tensors the arena currently owns (its
// high-water mark of concurrent temporaries).
func (a *Arena) Slots() int { return len(a.slots) }

// Floats reports the float32 capacity the arena's tensor slots hold: the
// memory a warm forward pass keeps for its temporaries.
func (a *Arena) Floats() int {
	n := 0
	for _, t := range a.slots {
		n += cap(t.data)
	}
	return n
}

// Get returns a tensor of the given shape drawn from the arena. The
// contents are UNSPECIFIED — stale data from a previous use — so callers
// must fully overwrite it. Get never zeroes memory.
func (a *Arena) Get(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Constant message: formatting shape here would make the variadic
			// escape and cost an allocation on every call.
			panic("tensor: negative dimension in arena shape")
		}
		n *= d
	}
	t := a.slot()
	if cap(t.data) < n {
		t.data = make([]float32, n)
	}
	t.data = t.data[:n]
	t.setShape(shape)
	return t
}

// View returns a tensor sharing x's data with a new shape of equal
// volume, drawing the header from the arena (like Reshape, but without
// allocating). One dimension may be -1 to be inferred.
func (a *Arena) View(x *Tensor, shape ...int) *Tensor {
	infer := -1
	known := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				panic("tensor: at most one dimension may be -1 in View")
			}
			infer = i
		case d < 0:
			panic("tensor: negative dimension in view shape")
		default:
			known *= d
		}
	}
	t := a.slot()
	t.data = x.data
	t.setShape(shape)
	if infer >= 0 {
		if known == 0 || len(x.data)%known != 0 {
			panic("tensor: cannot infer dimension for view shape")
		}
		t.shape[infer] = len(x.data) / known
		t.recomputeStrides()
	}
	if Volume(t.shape) != len(x.data) {
		panic("tensor: view changes volume")
	}
	return t
}

// Int8 returns an int8 scratch slice of length n drawn from the arena.
// Contents are UNSPECIFIED (stale data); callers must fully overwrite it.
// Like Get, steady-state calls allocate nothing once every slot has
// grown to its high-water capacity.
func (a *Arena) Int8(n int) []int8 {
	if a.i8next == len(a.i8slots) {
		a.i8slots = append(a.i8slots, nil)
	}
	s := a.i8slots[a.i8next]
	if cap(s) < n {
		s = make([]int8, n)
		a.i8slots[a.i8next] = s
	}
	a.i8next++
	return s[:n]
}

// Int64 returns an int64 scratch slice of length n drawn from the arena,
// with the same unspecified-contents / grow-only contract as Int8. The
// quantized GEMM uses these as packed dual-lane accumulators.
func (a *Arena) Int64(n int) []int64 {
	if a.i64next == len(a.i64slots) {
		a.i64slots = append(a.i64slots, nil)
	}
	s := a.i64slots[a.i64next]
	if cap(s) < n {
		s = make([]int64, n)
		a.i64slots[a.i64next] = s
	}
	a.i64next++
	return s[:n]
}

func (a *Arena) slot() *Tensor {
	if a.next == len(a.slots) {
		a.slots = append(a.slots, &Tensor{})
	}
	t := a.slots[a.next]
	a.next++
	return t
}

// setShape updates t's shape and strides in place, reusing the backing
// arrays so repeated reshaping allocates nothing once capacity exists.
func (t *Tensor) setShape(shape []int) {
	t.shape = append(t.shape[:0], shape...)
	t.recomputeStrides()
}

func (t *Tensor) recomputeStrides() {
	t.strides = t.strides[:0]
	for range t.shape {
		t.strides = append(t.strides, 0)
	}
	acc := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		t.strides[i] = acc
		acc *= t.shape[i]
	}
}
