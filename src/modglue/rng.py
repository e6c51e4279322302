"""Portable seeded random number generation.

The generator is a fixed 64-bit splitmix-style stream so that instances can
be reproduced bit-for-bit from a seed, independently of any platform RNG.
State advance and output mixing use the constants

    GAMMA = 0x9E3779B97F4A7C15
    MIX1  = 0xBF58476D1CE4E5B9
    MIX2  = 0x94D049BB133111EB

with the output z := state; z ^= z >> 30; z *= MIX1; z ^= z >> 27; z *= MIX2;
z ^= z >> 31 (all mod 2^64).  Uniforms take the top 53 bits shifted into
(0, 1]; a standard complex Gaussian is sqrt(-ln u1) * exp(2*pi*i*u2).
Unitaries come from modified Gram-Schmidt on a square complex Gaussian with
the diagonal phase fixed to be real positive.

A Gaussian matrix is drawn as one block (Steele, Lea & Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014): the state after k
steps is state + k*GAMMA mod 2^64, so the 2N outputs of an N-entry matrix are
computed at once in numpy uint64, and their uniforms exactly in float64.
The entries are then formed one by one from the uniforms as Python floats,
with the libm (math) ln, cos and sin: numpy's own differ from libm in the
last bit on a fraction of inputs.  The stream, and every array drawn from
it, is bit for bit that of the scalar generator, one output at a time, kept
as the reference in tests/oracles.py (ScalarRng).
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# The same constants as numpy uint64 scalars, for the array form of the stream.
_GAMMA, _MIX1, _MIX2, _ONE = (np.uint64(c) for c in (GAMMA, MIX1, MIX2, 1))
_S11, _S27, _S30, _S31 = (np.uint64(c) for c in (11, 27, 30, 31))


class Rng:
    """Splitmix-style 64-bit generator with numeric helpers."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & _MASK
        z = ((z ^ (z >> 27)) * MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def uniform(self) -> float:
        """Uniform in (0, 1]."""
        return ((self.next_u64() >> 11) + 1) * (2.0 ** -53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive), by rejection-free modulo.

        The tiny modulo bias is irrelevant for instance generation and keeps
        the stream layout simple and portable.
        """
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def gauss_matrix(self, m: int, n: int) -> np.ndarray:
        """m x n standard complex Gaussians in row-major order: entry t is
        sqrt(-ln u1) * exp(2*pi*i*u2) for the uniforms of the stream's
        outputs 2t + 1 and 2t + 2."""
        u = self._uniforms(2 * m * n).tolist()
        sqrt, log, cos, sin, two_pi = math.sqrt, math.log, math.cos, math.sin, 2 * math.pi
        out = [complex(r * cos(two_pi * u2), r * sin(two_pi * u2))
               for u1, u2 in zip(u[0::2], u[1::2]) for r in (sqrt(-log(u1)),)]
        return np.array(out, dtype=np.complex128).reshape(m, n)

    def _uniforms(self, count: int) -> np.ndarray:
        """The uniforms of the next count outputs, computed at once: output
        k of the stream mixes state + k*GAMMA."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _GAMMA
        z += np.uint64(self.state)
        self.state = (self.state + count * GAMMA) & _MASK
        z ^= z >> _S30
        z *= _MIX1
        z ^= z >> _S27
        z *= _MIX2
        z ^= z >> _S31
        z >>= _S11
        z += _ONE
        u = z.astype(np.float64)
        u *= 2.0 ** -53
        return u

    def gauss_vector(self, n: int) -> np.ndarray:
        return self.gauss_matrix(1, n).reshape(-1) if n else np.zeros(0, dtype=np.complex128)

    def unit_scalar(self) -> complex:
        phase = 2 * math.pi * self.uniform()
        return complex(math.cos(phase), math.sin(phase))

    def unitary(self, m: int) -> np.ndarray:
        """Haar-like unitary: Gram-Schmidt of a complex Gaussian.

        Normalizing each residual by its (real, positive) length is exactly
        the QR factorization with phase-fixed R diagonal, so the result is
        deterministic given the stream and approximately Haar distributed.
        """
        if m == 0:
            return np.zeros((0, 0), dtype=np.complex128)
        G = self.gauss_matrix(m, m)
        Q = np.zeros((m, m), dtype=np.complex128)
        for c in range(m):
            v = G[:, c].copy()
            for p in range(c):
                v -= np.vdot(Q[:, p], v) * Q[:, p]
            # second orthogonalization pass for numerical safety
            for p in range(c):
                v -= np.vdot(Q[:, p], v) * Q[:, p]
            Q[:, c] = v / np.linalg.norm(v)
        return Q
