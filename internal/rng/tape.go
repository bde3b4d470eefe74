package rng

import (
	"math/rand"
	"sync"
)

// Source is a stream of raw 63-bit draws, the one method every draw of
// an RNG goes through; an *RNG is one.
type Source interface {
	Int63() int64
}

// Tape records the raw draws of a source so that they can be read
// again from any offset, by several readers at once. A reader that
// reaches the end of the recording draws the next values from the
// source, in order, whichever reader asks, so every reader sees the
// source's one sequence: a reader from offset k returns the source's
// draws k, k+1, … (counting from 0). Float64, Intn and Choice on a
// reader therefore return what they would on the source from that
// draw on, retries included.
//
// The RL trainer rolls a round of episodes out concurrently this way:
// each episode reads the actions tape from the offset where it would
// have started in a sequential run (DESIGN.md §8).
//
// A tape keeps every draw it recorded, 8 bytes each; a training run
// records about one per step.
type Tape struct {
	mu    sync.Mutex
	src   Source
	draws []int64
}

// NewTape returns an empty tape over src. Only the tape may draw from
// src afterwards.
func NewTape(src Source) *Tape { return &Tape{src: src} }

// at returns the draw at offset off, recording the source's draws up
// to it first.
func (t *Tape) at(off int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for off >= len(t.draws) {
		t.draws = append(t.draws, t.src.Int63())
	}
	return t.draws[off]
}

// Reader is an RNG that reads a Tape from an offset on. Like any RNG
// it is not safe for concurrent use, but any number of Readers may
// read one Tape at once.
type Reader struct {
	RNG
	cur cursor
}

// Reader returns an RNG whose draws are the tape's from offset off on.
func (t *Tape) Reader(off int) *Reader {
	rd := &Reader{cur: cursor{t: t, off: off}}
	rd.RNG.src = rand.New(&rd.cur)
	return rd
}

// Off returns the offset of the next draw rd reads: the offset it
// started from plus the raw draws read since.
func (rd *Reader) Off() int { return rd.cur.off }

// cursor is a Reader's position on its tape, as a rand.Source.
type cursor struct {
	t   *Tape
	off int
}

func (c *cursor) Int63() int64 {
	v := c.t.at(c.off)
	c.off++
	return v
}

func (c *cursor) Seed(int64) { panic("rng: Seed on a tape reader") }
