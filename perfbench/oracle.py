"""Output checks that do not use felcheck.

Every value the benchmark compares against is worked out here from first
principles: gaps from a brute-force representability table and check counts
from the shape of the request. The functions return a list of problems; an
empty list means the op is correct.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

# Number of samples cmd_verify passes to verify_companions when --samples is
# not given, and the companion indices it checks.
CLI_SAMPLES = 20
ZIGZAG_N = 3  # FEL2_ZIGZAG for n = 1..3
SIGNFLIP_N = 6  # FEL1_SIGNFLIP for n = 2..7

LEMMAS = (
    "LEMMA_SERIES_C",
    "LEMMA_SERIES_PHI",
    "LEMMA_SERIES_P",
    "LEMMA_SERIES_PDIV",
    "LEMMA_ONE_MINUS_Q",
)


def representable_bits(gens) -> tuple[int, int]:
    """Bitset of the integers below a*max(gens) that are sums of generators.

    Bit n is set iff n is a nonnegative integer combination of gens. The
    table is closed under adding each generator in turn (shifts by d, 2d,
    4d, ... close it under all multiples of d), so one pass over the
    generators reaches every combination; a second pass confirms nothing
    changes. Every Apéry element is at most (a-1)*max(gens), so all gaps lie
    below the limit.
    """
    limit = min(gens) * max(gens)
    mask = (1 << limit) - 1
    table = 1
    while True:
        grown = table
        for d in gens:
            step = d
            while step < limit:
                grown |= (grown << step) & mask
                step *= 2
        if grown == table:
            return table, limit
        table = grown


def _holes(gens) -> int:
    table, limit = representable_bits(gens)
    return ~table & ((1 << limit) - 1)


def genus_and_frobenius(gens) -> tuple[int, int]:
    """Number of gaps and the largest gap (-1 when there is none)."""
    holes = _holes(gens)
    return holes.bit_count(), holes.bit_length() - 1


def gap_list(gens) -> list[int]:
    """The gaps in increasing order."""
    bits = bin(_holes(gens))[:1:-1]
    return [n for n, bit in enumerate(bits) if bit == "1"]


def expected_counts(m: int, p_max: int, samples: int | None) -> Counter:
    """Check records per identity that one verify request must produce.

    samples is None for a bare verify_semigroup call, which has no companion
    checks.
    """
    want = Counter(
        FEL_MAIN=p_max + 1,
        EQ_FINAL=p_max + 1,
        THM_KP=m if m >= 2 else 1,
        LOW_ORDER_K=4,
        M2_CLOSED_FORM=p_max + 2 if m == 2 else 1,
    )
    for name in LEMMAS:
        want[name] = 1
    if samples is not None:
        want["FEL2_ZIGZAG"] = ZIGZAG_N * samples
        want["FEL1_SIGNFLIP"] = SIGNFLIP_N * samples
    return want


def expected_skips(m: int) -> Counter:
    skips = Counter()
    if m != 2:
        skips["M2_CLOSED_FORM"] = 1
    if m == 1:
        skips["THM_KP"] = 1
    return skips


def check_records(gens, p_max: int, samples: int | None, records, order) -> list[str]:
    """Check the records of one verify request for one semigroup.

    records holds (identity, parameter, status, lhs, rhs) tuples from the
    semigroup report followed by the companion report, if any.
    """
    m = len(gens)
    problems = []
    counts = Counter(r[0] for r in records)
    want = expected_counts(m, p_max, samples)
    if counts != want:
        problems.append(f"check counts {dict(counts)} != expected {dict(want)}")
    skips = Counter(r[0] for r in records if r[2] == "skip")
    if skips != expected_skips(m):
        problems.append(f"skipped checks {dict(skips)} != expected {dict(expected_skips(m))}")
    bad = [r for r in records if r[2] not in ("pass", "skip")]
    if bad:
        problems.append(f"{len(bad)} checks not passed, first {bad[0][:3]}")
    if order != m + p_max + 2:
        problems.append(f"series order {order} != m + p_max + 2 = {m + p_max + 2}")
    genus, _ = genus_and_frobenius(gens)
    k0 = Fraction(2 * genus + sum(gens) - 1, 2)
    low = [r for r in records if r[0] == "LOW_ORDER_K" and r[1] == 0]
    if not low or low[0][3] != str(k0):
        got = low[0][3] if low else None
        problems.append(f"LOW_ORDER_K p=0 is {got}, genus + (s1-1)/2 = {k0}")
    return problems


def check_report(gens, p_max: int, report) -> tuple[list[str], list[tuple]]:
    """Problems with an in-process VerificationReport (no companion checks),
    and its check records."""
    records = [(c.identity, c.parameter, c.status, c.lhs, c.rhs) for c in report.checks]
    problems = []
    if not report.passed:
        problems.append("report not passed")
    if tuple(report.generators) != tuple(gens):
        problems.append(f"report generators {report.generators} != {gens}")
    return problems + check_records(gens, p_max, None, records, report.order), records


def check_verify_output(gens, p_max: int, code: int, text: str) -> tuple[list[str], list[tuple]]:
    """Problems with the JSON printed by `felcheck verify g1 g2 ... --format json`,
    and its check records."""
    if code != 0:
        return [f"exit code {code}"], []
    try:
        doc = json.loads(text)
        reports = doc["reports"]
        records = [
            (c["identity"], c["parameter"], c["status"], c["lhs"], c["rhs"])
            for r in reports
            for c in r["checks"]
        ]
    except (json.JSONDecodeError, KeyError, TypeError) as err:
        return [f"output is not a verify document: {err}"], []
    problems = []
    if doc.get("passed") is not True or not all(r.get("passed") for r in reports):
        problems.append("report not passed")
    if len(reports) != 2 or reports[0].get("generators") != list(gens):
        problems.append(f"expected the semigroup report and the companion report for {gens}")
        return problems, records
    return problems + check_records(gens, p_max, CLI_SAMPLES, records, reports[0].get("order")), records
