"""Seeded input streams, one per workload.

Each stream is an iterator of distinct inputs, determined entirely by the
workload name and the seed. The program only ever sees the generator lists
drawn here.

The semigroup streams are drawn so that every prefix has nearly the same mix
of costs whatever the seed: the generator count m cycles, and verify-large
aims each op at a cost from an evenly spread sequence. With a few dozen ops
per run, a plain random draw moves the median by several per cent.
"""

from __future__ import annotations

import random
from math import gcd, log

from oracle import genus_and_frobenius

# Fractional part of the golden ratio: i * GOLDEN mod 1 spreads evenly over
# [0, 1) for every prefix of i, so cost targets drawn from it do too.
GOLDEN = 0.6180339887498949


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _coprime_sample(rng, lo: int, hi: int, m: int) -> tuple[int, ...] | None:
    gens = tuple(sorted(rng.sample(range(lo, hi + 1), m)))
    return gens if gcd(*gens) == 1 else None


# Draws in a row that may fail to find a new generator set of the current
# size before the sets of that size count as used up and the stream ends.
MAX_MISSES = 2000


def _cycled(workload: str, seed: int, lo: int, hi: int, sizes):
    """Distinct coprime generator sets in lo..hi whose size m cycles through
    sizes, so every prefix of the stream has the same mix of m. The stream
    ends when the sets of one size run out rather than change that mix."""
    rng = _rng(workload, seed)
    start = rng.randrange(len(sizes))
    seen = set()
    i = misses = 0
    while misses <= MAX_MISSES:
        gens = _coprime_sample(rng, lo, hi, sizes[(start + i) % len(sizes)])
        if gens and gens not in seen:
            seen.add(gens)
            i += 1
            misses = 0
            yield gens
        else:
            misses += 1


# One pair per 14 sets each of sizes 3, 4 and 5. There are 431 coprime
# pairs in 3..40 (and 7,137 triples), so the mix holds for 431 * 43 = 18,533
# ops, several times the ops of a run at the speed the benchmark was defined
# on; a faster program that would run more ops in --seconds ends the run
# there instead of running on without pairs.
SWEEP_SIZES = (2,) + (3, 4, 5) * 14


def sweep_small(seed: int):
    """Semigroups with generators in 3..40 and m from 2 to 5 (SWEEP_SIZES)."""
    return _cycled("sweep-small", seed, 3, 40, SWEEP_SIZES)


def schoolbook_pairs(gens) -> int:
    """genus * (deg P + 1): inner-loop slots of the dense product Phi * P."""
    genus, _ = genus_and_frobenius(gens)
    return genus * (sum(gens) + 1)


# Cost band of verify-large in schoolbook pairs; genus runs from about 4.5k
# to 17k across it.
LARGE_PAIRS = (3_000_000, 12_000_000)
LARGE_CANDIDATES = 48


def verify_large(seed: int):
    """Three generators in 150..320, with costs spread evenly over LARGE_PAIRS.

    Op i aims at a cost taken from a golden-ratio sequence with a seeded
    start, log-uniform over the band, and takes the closest of a few random
    candidates.
    """
    rng = _rng("verify-large", seed)
    lo, hi = LARGE_PAIRS
    u = rng.random()
    seen = set()
    while True:
        u = (u + GOLDEN) % 1.0
        target = log(lo) + u * (log(hi) - log(lo))
        tried = []
        while len(tried) < LARGE_CANDIDATES:
            a = rng.randint(150, 300)
            top = min(320, a + rng.randint(4, 170))
            gens = tuple(sorted((a, *rng.sample(range(a + 1, top + 1), 2))))
            if gcd(*gens) == 1 and gens not in seen:
                tried.append(gens)
        best = min(tried, key=lambda g: abs(log(schoolbook_pairs(g)) - target))
        seen.add(best)
        yield best


def verify_deep(seed: int):
    """Generators in 20..60; m cycles 4, 5, 6 from a seeded start."""
    return _cycled("verify-deep", seed, 20, 60, (4, 5, 6))
