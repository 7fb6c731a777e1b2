"""The stream of doubles that `numpy.random.default_rng(seed).random()`
draws, recomputed with plain ints so that a sampled run never imports
`numpy.random`.

`default_rng(seed)` hashes the seed into a `SeedSequence` pool and seeds
a PCG64 generator from it: a 128-bit LCG whose 64-bit outputs are its
state's halves xored and rotated (XSL-RR; O'Neill, HMC-CS-2014-0905).
Each double is the top 53 bits of one output. NEP 19 keeps bit-generator
streams fixed across numpy versions; the tests hold this copy to numpy's
and pin a few of its draws."""

from __future__ import annotations

import operator

M32 = 0xFFFFFFFF
M64 = (1 << 64) - 1
M128 = (1 << 128) - 1
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_state(seed: int) -> list[int]:
    """`SeedSequence(seed).generate_state(4, np.uint64)`."""
    words = [seed & M32]  # the seed's 32-bit words, least significant first
    while seed := seed >> 32:
        words.append(seed & M32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & M32
        value = value * const & M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & M32
        value = value * const & M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """`np.random.default_rng(seed)`'s PCG64 state; `random()` returns its
    next double, bit for bit `Generator.random()`'s."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        s0, s1, i0, i1 = _seed_state(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & M128
        self.state = ((self.inc + (s0 << 64 | s1)) * PCG_MULT + self.inc) & M128

    def random(self) -> float:
        self.state = state = (self.state * PCG_MULT + self.inc) & M128
        value, rot = (state >> 64 ^ state) & M64, state >> 122
        value = (value >> rot | value << (-rot & 63)) & M64
        return (value >> 11) * (1.0 / 9007199254740992.0)
