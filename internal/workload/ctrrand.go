package workload

// Counter-based RNG (stream format v3). The v2 generator walked a
// sequential splitmix64 state, so the draw at instruction n depended on
// every draw before it and the only way to reach instruction n was to
// generate the n-1 instructions in front of it. v3 replaces the walk
// with the same splitmix64 output function applied to an explicit
// (key, counter) pair: draw i of the stream is ctrDraw(key, i), a pure
// function, so the RNG can jump to any instruction's draws in O(1).
//
// The counter space is partitioned into lanes so no two draw sites can
// collide:
//
//	[0, 1<<62)            per-instruction draws: instruction seq owns
//	                      counters [seq*drawStride, (seq+1)*drawStride)
//	[1<<62, ...)          chunk-reset draws: chunk c owns counters
//	                      [resetLane + c*resetStride, ... + resetStride)
//
// drawStride bounds the draws any one instruction may consume; every
// synthesis path is audited (and test-asserted) to stay below it.

const (
	splitmixGamma = 0x9E3779B97F4A7C15

	// drawStride is the per-instruction draw budget: instruction seq
	// draws from counters [seq*drawStride, (seq+1)*drawStride). The
	// longest synthesis path (kernel entry + tabulated geometric + load
	// address + source picks) consumes under 24 draws.
	drawStride = 32

	// resetLane is the counter-space base of the chunk-reset draws.
	// Per-instruction counters stay below it for any stream shorter
	// than 2^57 instructions.
	resetLane = uint64(1) << 62

	// resetStride is the per-chunk draw budget of a chunk reset (start
	// block, serialize phase, one cursor per region).
	resetStride = 64

	// phaseChunks is the number of consecutive chunks that share one
	// phase anchor (the function a chunk reset restarts interpretation
	// at). With 131072-instruction chunks one chunk is one phase — long
	// enough that code-signature analyses see stable phases, as the v2
	// sequential walk produced organically, and kept equal to the reset
	// unit so a reset never teleports control flow mid-phase (mid-phase
	// teleports measurably hurt timing fidelity on dependence-heavy
	// profiles).
	phaseChunks = 1

	// phaseLane is the counter-space base of the per-phase draws, above
	// the reset lane (which tops out at resetLane + 2^44*resetStride for
	// the longest representable stream).
	phaseLane = uint64(3) << 62

	// cursorLane is the counter-space base of the per-region cursor
	// start offsets — constant per stream (chunk resets advance the
	// cursor deterministically from this start, they do not redraw it).
	cursorLane = uint64(7) << 61
)

// ctrDraw is the splitmix64 output function over an explicit counter:
// the i-th draw of a v2 sequential walk seeded with key is exactly
// ctrDraw(key, i-1). Making the counter an argument is the whole v3
// trick — any draw in the stream is addressable without producing its
// predecessors.
func ctrDraw(key, ctr uint64) uint64 {
	z := key + (ctr+1)*splitmixGamma
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ctrRand is the generator's position in the per-instruction lane: the
// emitter sets ctr to the start of an instruction's window and the draws
// advance it. The hot body path carries ctr in a local and calls ctrDraw
// directly (it inlines); the draw-by-draw methods serve the paths around
// it — block terminators, serializing periods, kernel segments — and the
// multi-round samplers through rngSource.
type ctrRand struct {
	key uint64
	ctr uint64
}

func (r *ctrRand) next() uint64 {
	z := ctrDraw(r.key, r.ctr)
	r.ctr++
	return z
}

func (r *ctrRand) Intn(n int) int { return int(r.next() % uint64(n)) }
