package graph

import "math/bits"

// Fingerprint hashes the solve-relevant identity of a graph at machine
// word width h: n, h and the dense weight matrix. It is the shared
// placement key of the serving stack: internal/serve micro-batches
// requests whose fingerprints match (with an exact graph compare behind
// it, so a collision costs a missed coalesce, never a wrong answer), and
// internal/router consistent-hashes it across the backend fleet so
// identical graphs land on the backend already holding a warm session for
// them. Router and server MUST hash identically — that is why this lives
// here and not in either of them.
//
// Each input is mixed as one 64-bit word (rotate, xor, multiply by an odd
// constant, as FxHash does), one serial multiply per matrix entry, and
// the result goes through Murmur3's fmix64 avalanche so that ring
// placement sees every input bit. Every step is a bijection of the
// running state, so two graphs that differ in a single entry always
// fingerprint differently.
func Fingerprint(g *Graph, h uint) uint64 {
	const k = 0x517cc1b727220a95
	fp := (bits.RotateLeft64(uint64(g.N)*k, 5) ^ uint64(h)) * k
	for _, w := range g.W {
		fp = (bits.RotateLeft64(fp, 5) ^ uint64(w)) * k
	}
	fp ^= fp >> 33
	fp *= 0xff51afd7ed558ccd
	fp ^= fp >> 33
	fp *= 0xc4ceb9fe1a85ec53
	fp ^= fp >> 33
	return fp
}
