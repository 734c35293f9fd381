"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS line once its criterion holds (visible with
pytest -s; the -v listing shows the same per-criterion outcome). Tolerances
are zero everywhere: all assertions are literal equality of exact values.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

from felcheck.exact import IntPolynomial
from felcheck.hilbert import alternating_syzygy_sums, hilbert_numerator, k_denominator
from felcheck.semigroup import apery_set, compute_gaps, make_semigroup
from felcheck.universal import t_symbolic, t_values
from felcheck.verify import (
    invariants,
    random_semigroup,
    verify_companions,
    verify_fel_main,
    verify_low_order,
    verify_m2_closed_form,
    verify_series_lemmas,
    verify_thm_kp,
)

from oracles import subset_power_sum

F = Fraction


def _pass(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _passed(records):
    """What VerificationReport.passed says of a report holding these records."""
    return all(c.status != "fail" for c in records)


def _sparse(entries):
    coeffs = [0] * (max(entries) + 1)
    for i, c in entries.items():
        coeffs[i] = c
    return IntPolynomial(coeffs)


GOLDEN_WORKED = (
    ((3, 5), (1, 2, 4, 7), {0: 1, 15: -1}),
    ((4, 5, 6), (1, 2, 3, 7), {0: 1, 10: -1, 12: -1, 22: 1}),
    (
        (5, 6, 8, 9),
        (1, 2, 3, 4, 7),
        {
            0: 1, 14: -1, 15: -1, 16: -1, 17: -1, 18: -2,
            22: 1, 23: 2, 24: 1, 25: 1, 26: 2, 27: 1,
            31: -1, 32: -1, 35: -1,
        },
    ),
)

# printed closed forms for the symbolic table: (denominator, integer numerator terms)
GOLDEN_T_TABLE = (
    (1, {(): 1}),
    (2, {(1,): 1}),
    (12, {(2,): 3, (0, 1): 1}),
    (8, {(3,): 1, (1, 1): 1}),
    (240, {(4,): 15, (2, 1): 30, (0, 2): 5, (0, 0, 0, 1): -2}),
    (96, {(5,): 3, (3, 1): 10, (1, 2): 5, (1, 0, 0, 1): -2}),
    (
        4032,
        {
            (6,): 63,
            (4, 1): 315,
            (2, 2): 315,
            (2, 0, 0, 1): -126,
            (0, 3): 35,
            (0, 1, 0, 1): -42,
            (0, 0, 0, 0, 0, 1): 16,
        },
    ),
    (
        1152,
        {
            (7,): 9,
            (5, 1): 63,
            (3, 2): 105,
            (3, 0, 0, 1): -42,
            (1, 3): 35,
            (1, 1, 0, 1): -42,
            (1, 0, 0, 0, 0, 1): 16,
        },
    ),
)


def test_criterion_01_worked_example_goldens():
    for gens, gold_gaps, gold_q in GOLDEN_WORKED:
        S = make_semigroup(gens)
        gaps = compute_gaps(S)
        assert gaps.gaps == gold_gaps
        assert hilbert_numerator(S, gaps.apery).numerator == _sparse(gold_q)
    _pass(1, "worked-example goldens")


def test_criterion_02_symbolic_table():
    for n, (den, terms) in enumerate(GOLDEN_T_TABLE):
        cleared = {mono: c * den for mono, c in t_symbolic(n).terms.items()}
        assert cleared == {mono: F(c) for mono, c in terms.items()}
        assert all(c.denominator == 1 for c in cleared.values())
        # the integer form the companion checks read: the same numerators over den
        assert t_symbolic(n).den == den
        assert {pairs: c for c, pairs in t_symbolic(n).sparse} == {
            tuple((i, e) for i, e in enumerate(mono) if e): c for mono, c in terms.items()
        }
    _pass(2, "symbolic table for n <= 7")


def test_criterion_03_low_order_closed_forms():
    rng = random.Random(1003)
    for _ in range(200):
        S = random_semigroup(rng, 4, 30)
        records = verify_low_order(invariants(S))
        assert _passed(records), S.generators
    _pass(3, "low-order closed forms on 200 random semigroups")


def test_criterion_04_main_identity_sweep():
    rng = random.Random(1004)
    for _ in range(100):
        S = random_semigroup(rng, 5, 40)
        records = verify_fel_main(invariants(S, 8))
        assert _passed(records), S.generators
    _pass(4, "main identity sweep, p <= 8 on 100 random semigroups")


def test_criterion_05_structural_clauses():
    rng = random.Random(1005)
    for _ in range(100):
        S = random_semigroup(rng, 5, 40)
        while S.m < 2:
            S = random_semigroup(rng, 5, 40)
        records = verify_thm_kp(invariants(S))
        assert _passed(records), S.generators
        assert all(c.status == "pass" for c in records)
    _pass(5, "alternating-sum structural clauses for m >= 2")


def test_criterion_06_series_lemmas():
    rng = random.Random(1006)
    for _ in range(50):
        S = random_semigroup(rng, 5, 40)
        records = verify_series_lemmas(invariants(S, order=S.m + 10))
        assert _passed(records), S.generators
    _pass(6, "series lemma suite to order m + 10 on 50 random semigroups")


def test_criterion_07_oracle_equivalence():
    rng = random.Random(1007)
    for _ in range(50):
        m = rng.randint(1, 4)
        x = []
        for _ in range(m):
            num = rng.randint(-9, 9) or 1
            x.append(F(num, rng.randint(1, 9)))
        prod = F(1)
        for c in x:
            prod *= c
        for n in range(m, m + 7):
            denom = prod * F((-1) ** (m + 1) * factorial(n), factorial(n - m))
            t_value = t_values(x, n - m)[n - m]
            assert t_value == subset_power_sum(x, n) / denom
    _pass(7, "series route equals subset brute force on 50 random vectors")


def test_criterion_08_companion_identities():
    report = verify_companions(samples=20, seed=1008)
    assert report.passed
    zig = [c for c in report.checks if c.identity == "FEL2_ZIGZAG"]
    flip = [c for c in report.checks if c.identity == "FEL1_SIGNFLIP"]
    assert sorted({c.parameter for c in zig}) == [1, 2, 3]
    assert sorted({c.parameter for c in flip}) == [2, 3, 4, 5, 6, 7]
    assert all(len([c for c in zig if c.parameter == n]) == 20 for n in (1, 2, 3))
    # the narrow sign-flip reading diverges from n = 5 on; the divergence must
    # be reported in the record notes, never silently absorbed
    for n in (5, 6, 7):
        notes = [c.note for c in flip if c.parameter == n]
        assert all("every even-index power sum" in note for note in notes)
    _pass(8, "companion identities at 20 sample points each, discrepancy reported")


def test_criterion_09_two_generator_closed_forms():
    rng = random.Random(1009)
    done = 0
    while done < 50:
        d1, d2 = rng.randint(2, 40), rng.randint(2, 40)
        if gcd(d1, d2) != 1:
            continue
        done += 1
        S = make_semigroup([d1, d2])
        h = hilbert_numerator(S, apery_set(S))
        assert h.numerator == IntPolynomial.one_minus_pow(d1 * d2)
        for p in range(7):
            k = F(alternating_syzygy_sums(h, S.m + p)[S.m + p], k_denominator(S, p))
            assert k == F((d1 * d2) ** (p + 1), (p + 1) * (p + 2))
        assert _passed(verify_m2_closed_form(invariants(S, 6)))
    _pass(9, "two-generator closed forms on 50 random coprime pairs")


def test_criterion_10_byte_identical_output():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "felcheck", "verify", "--random", "--seed", "7", "--count", "50"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout
    _pass(10, "random sweep output is byte-identical across runs")
