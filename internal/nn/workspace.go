package nn

// Workspace is a bump-pointer float32 arena for the layer kernels: a
// pass Takes every buffer it needs from it in a deterministic order,
// and the caller Resets it before the next pass. An inference pass
// Resets before each state; a training step Resets before its Forward
// and keeps taking through its Backward, so the forward's activations
// stay valid until the step ends.
//
// The arena grows to the high-water mark of the previous pass: the
// first pass over a new shape allocates (every Take that misses falls
// back to make), and every following pass of the same or smaller shape
// performs zero heap allocations. Buffers handed out by Take are NOT
// zeroed — every kernel fully overwrites its destination or clears it
// first, so recycled garbage can never leak into an output (tests pin
// the results of a warm workspace bit-identical to those of a nil one).
//
// A nil *Workspace is valid and degrades every Take to a plain make.
type Workspace struct {
	arena []float32
	off   int // bump pointer into arena
	need  int // high-water mark of the current pass
}

// Reset recycles the arena for a new pass, growing it to the previous
// pass's high-water mark so the new pass can run allocation-free.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	if w.need > len(w.arena) {
		w.arena = make([]float32, w.need)
	}
	w.off = 0
	w.need = 0
}

// Take returns a length-n float32 buffer with undefined contents. The
// buffer is valid until the next Reset; its capacity is clipped so an
// append can never bleed into a neighbouring Take.
func (w *Workspace) Take(n int) []float32 {
	if w == nil {
		return make([]float32, n)
	}
	w.need += n
	if w.off+n > len(w.arena) {
		// Warm-up miss: serve from the heap now, grow at the next Reset.
		return make([]float32, n)
	}
	s := w.arena[w.off : w.off+n : w.off+n]
	w.off += n
	return s
}
