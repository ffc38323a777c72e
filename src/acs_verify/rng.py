"""Deterministic random draws via SplitMix64.

The generator is pinned by its constants so a reimplementation in any
language reproduces every draw bit for bit:

    state := (state + 0x9E3779B97F4A7C15) mod 2^64
    z := state
    z := (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z := (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output := z XOR (z >> 31)

Doubles in [0, 1) take the top 53 bits: (output >> 11) * 2^-53.
All library randomness (scenario materialization, test sweeps) flows
through this class; numpy's generators are never used for draws that a
seed in a scenario file is supposed to determine.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive, by rejection-free modulo.

        The tiny modulo bias is irrelevant here (ranges are far below 2^32)
        and keeping the rule branch-free keeps reimplementation trivial.
        """
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def reals(self, n: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)])

    def real_matrix(self, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
        return scale * self.reals(rows * cols).reshape(rows, cols)

    def complex_matrix(self, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
        re = self.real_matrix(rows, cols)
        im = self.real_matrix(rows, cols)
        return scale * (re + 1j * im)
