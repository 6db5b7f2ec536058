"""Seedable random sources shared by every stochastic operation.

All sampling runs on counter-based Philox4x64-10 streams (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so per-trial
generators are derived from (seed, trial index) without coordination, which
keeps Monte-Carlo runs reproducible under any work scheduling.

The stream is numpy's ``Generator(Philox(SeedSequence(seed, spawn_key=
(index,))))`` written in plain integers: the same key derivation, the same
32-bit words, and the same ``bytes`` and ``permutation`` draws, bit for bit.
Sampling therefore loads no numpy.  Every step is integer arithmetic, so a
seed's draws are the same on every platform.
"""
from __future__ import annotations

from functools import lru_cache

from .errors import DomainError
from .graphs import Graph, from_code, pair_list

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# Philox4x64 multipliers and Weyl key increments (Random123).
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def _words32(value: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first; 0 is one word."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


class _Hash:
    """SeedSequence's multiply-xorshift hash, whose multiplier advances with
    every call: ``hashmix`` with the A constants, ``generate_state`` with the B."""
    __slots__ = ("const", "mult")

    def __init__(self, const: int, mult: int) -> None:
        self.const, self.mult = const, mult

    def __call__(self, value: int) -> int:
        value ^= self.const
        self.const = self.const * self.mult & _M32
        value = value * self.const & _M32
        return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return result ^ result >> 16


def _absorb(pool: list[int], words: list[int], hashmix: _Hash) -> None:
    """Mix each of ``words`` into every pool word (entropy past the pool size)."""
    for word in words:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))


@lru_cache(maxsize=1)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool after every word of ``seed``, and the hash multiplier
    it leaves: the part of a stream's key that the trial index does not touch.

    numpy zero-pads the seed's words to the pool size when a spawn key
    follows; without one it hashes zeros in their place, so the pool is the
    same either way and the index's words always come after all of the seed's.
    One entry is kept: every unit of a run shares its seed."""
    words = _words32(seed)
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    _absorb(pool, words[_POOL_SIZE:], hashmix)
    return tuple(pool), hashmix.const


def _philox_key(seed: int, index: int | None) -> tuple[int, int]:
    """``SeedSequence(seed, spawn_key=(index,)).generate_state(2, uint64)``."""
    seeded, const = _seed_pool(seed)
    pool = list(seeded)
    if index is not None:
        _absorb(pool, _words32(index), _Hash(const, _MULT_A))
    s0, s1, s2, s3 = map(_Hash(_INIT_B, _MULT_B), pool)
    return s0 | s1 << 32, s2 | s3 << 32


class PhiloxStream:
    """numpy's ``Generator`` on a ``Philox`` bit generator, reduced to the two
    draws the library makes.

    The counter is incremented before each block, and a block's four 64-bit
    outputs are taken as eight 32-bit words, low half first, which is the
    order of numpy's ``next_uint32``.  ``_bits`` holds the ``_nbits`` bits of
    the words not yet drawn, the next word lowest."""
    __slots__ = ("_round_keys", "_counter", "_bits", "_nbits")

    def __init__(self, key: tuple[int, int]) -> None:
        k0, k1 = key
        round_keys = []
        for _ in range(_PHILOX_ROUNDS):
            round_keys.append((k0, k1))
            k0, k1 = (k0 + _PHILOX_W0) & _M64, (k1 + _PHILOX_W1) & _M64
        self._round_keys = tuple(round_keys)
        self._counter = 0
        self._bits = 0
        self._nbits = 0

    def _block(self) -> int:
        """The next Philox block's 256 bits, its first output word lowest."""
        self._counter = counter = self._counter + 1 & (1 << 256) - 1
        c0, c1 = counter & _M64, counter >> 64 & _M64
        c2, c3 = counter >> 128 & _M64, counter >> 192
        for k0, k1 in self._round_keys:
            p0 = _PHILOX_M0 * c0
            p1 = _PHILOX_M1 * c2
            c0 = p1 >> 64 ^ c1 ^ k0
            c2 = p0 >> 64 ^ c3 ^ k1
            c1 = p1 & _M64
            c3 = p0 & _M64
        return c0 | c1 << 64 | c2 << 128 | c3 << 192

    def bytes(self, length: int) -> bytes:
        """``Generator.bytes``: ceil(length / 4) words, little-endian, cut to
        ``length``; like numpy's, a draw of no bytes still takes one word."""
        nbits = ((length + 3) // 4 or 1) * 32
        while self._nbits < nbits:
            self._bits |= self._block() << self._nbits
            self._nbits += 256
        drawn = self._bits & (1 << nbits) - 1
        self._bits >>= nbits
        self._nbits -= nbits
        return drawn.to_bytes(nbits // 8, "little")[:length]

    def permutation(self, m: int) -> list[int]:
        """``Generator.permutation(m)`` for m up to 2^32: Fisher-Yates from the
        top, each position's partner drawn as one word masked to the smallest
        all-ones mask covering it and redrawn while it is too large."""
        out = list(range(m))
        bits, nbits = self._bits, self._nbits
        for i in range(m - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if not nbits:
                    bits, nbits = self._block(), 256
                j = bits & mask
                bits >>= 32
                nbits -= 32
                if j <= i:
                    break
            out[i], out[j] = out[j], out[i]
        self._bits, self._nbits = bits, nbits
        return out


def derive_rng(seed: int, index: int | None = None) -> PhiloxStream:
    """Stream for a run, or for one trial of a run when ``index`` is given;
    it draws what numpy's ``Generator(Philox(SeedSequence(seed,
    spawn_key=(index,))))`` draws."""
    if seed < 0 or (index is not None and index < 0):
        raise DomainError("seed and index must be non-negative")
    return PhiloxStream(_philox_key(seed, index))


def gnp_half(n: int, rng: PhiloxStream) -> Graph:
    """Uniform labelled graph on n vertices (each pair an edge with prob 1/2).

    Bit i of the drawn bytes, lowest bit of the first byte first, decides
    row-major pair i; the bits past the last pair are drawn and dropped."""
    npairs = n * (n - 1) // 2
    code = int.from_bytes(rng.bytes((npairs + 7) // 8), "little")
    return from_code(n, code & ((1 << npairs) - 1))


def random_pair_order(n: int, rng: PhiloxStream) -> tuple[tuple[int, int], ...]:
    """Uniformly random ordering of all vertex pairs."""
    pairs = pair_list(n)
    return tuple(pairs[i] for i in rng.permutation(len(pairs)))
