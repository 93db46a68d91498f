"""Deterministic seed derivation shared by samplers, solvers, and the harness."""

from __future__ import annotations

import operator

import numpy as np


def _seed(x) -> int:
    """``x`` as an int; a non-integer raises ``TypeError``, a negative one ``ValueError``."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("seeds and derivation indices must be non-negative")
    return x


def derive_seed(master: int, *path: int) -> int:
    """Mix ``(master, *path)`` into a fresh 64-bit seed.

    Uses numpy's SeedSequence hashing, which is stable across platforms and
    library versions.  Trial ``t`` therefore gets the same seed no matter how
    many other trials run or in which order.  Non-integers raise ``TypeError``.
    """
    entropy = tuple(map(_seed, (master, *path)))
    words = np.random.SeedSequence(entropy=entropy).generate_state(2, dtype=np.uint32)
    return (int(words[0]) << 32) | int(words[1])


def generator(seed: int) -> np.random.Generator:
    """A PCG64 generator seeded from ``seed``, checked as :func:`derive_seed` checks it."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_seed(seed))))
