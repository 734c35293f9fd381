"""Every check can still fail: corrupt one input and the checks that read it
report fail, while the checks that do not read it keep passing.

The corrupt input goes in where the invariants bundle is built, by
replacing the apery_set or hilbert_numerator that verify calls for m != 3,
the three-generator source it calls for m = 3, or the surjection-number
rows that E is built from; in the power sums W of the
Apéry set held by a built bundle, which G has already been computed from,
so that only the Phi route of the series lemmas reads the corrupted sums;
in the G or c of a built bundle, for the LOW_ORDER_K records; for the
companion checks, by replacing the tangent numbers or the umbral
factors that verify reads; for symbolic T_n, by replacing the Bernoulli
numbers that t_symbolic reads, with its cache cleared before and after.
test_each_kernel_fails_exactly_its_readers perturbs each kernel that verify
reads once and pins the exact set of identities that fail, the table in
verify's module docstring, and the JSON of two runs with a changed
Bernoulli number is pinned byte for byte. A three-generator relation or
region changed by one makes the source's witness raise before any record is
made."""

import hashlib
from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest

from felcheck import cli, semigroup, universal, verify
from felcheck.exact import IntPolynomial, NonExactDivision, power_sums
from felcheck.hilbert import hilbert_numerator
from felcheck.semigroup import (
    AperyRegionWitnessFailed,
    _three_generator_source,
    apery_set,
    gap_power_sums,
    make_semigroup,
)
from felcheck.universal import _scaled_bernoulli, _surjection_row, _umbral_factor, t_values, zigzag
from felcheck.verify import (
    invariants,
    verify_fel_main,
    verify_semigroup,
    verify_series_lemmas,
)

from oracles import evaluate_symbolic, universal_identity_sides

S = make_semigroup([5, 6, 8, 9])
APERY = tuple(apery_set(S))  # (0, 6, 12, 8, 9): gaps 1 2 3 4 7
H = hilbert_numerator(S, APERY)
ORDER = S.m + 8
SIGNFLIP_FAILING_DIGEST = "d436e0af0167ee4fd2deb29217ad87315dfaf410fb498f03ba02cc78c5c39411"


def statuses(records):
    out = {}
    for check in records:
        out.setdefault(check.identity, set()).add(check.status)
    return out


def bumped_numerator(h):
    """h with the z^14 coefficient of Q changed from -1 to 0."""
    terms = dict(h.numerator.items())
    terms[14] += 1
    return replace(h, numerator=IntPolynomial.from_terms(sorted(terms.items())))


def corrupted(monkeypatch, apery=APERY, h=None):
    """The bundle for S at p_max 6 and ORDER, built from the given Apéry set
    and, if h is given, that numerator instead of the one computed from it."""
    monkeypatch.setattr(verify, "apery_set", lambda S, bound: list(apery))
    if h is not None:
        monkeypatch.setattr(verify, "hilbert_numerator", lambda S, apery: h)
    return invariants(S, 6, ORDER)


def test_changed_numerator_coefficient_fails_fel_main_eq_final_and_one_minus_q(monkeypatch):
    inv = corrupted(monkeypatch, h=bumped_numerator(H))
    assert statuses(verify_fel_main(inv))["FEL_MAIN"] == {"fail"}
    lemmas = statuses(verify_series_lemmas(inv))
    assert lemmas["EQ_FINAL"] == {"fail"}
    assert lemmas["LEMMA_ONE_MINUS_Q"] == {"fail"}
    assert lemmas["LEMMA_SERIES_PHI"] == {"pass"}


def test_changed_numerator_fails_inside_verify_semigroup(monkeypatch):
    monkeypatch.setattr(verify, "hilbert_numerator", lambda S, apery: bumped_numerator(H))
    report = verify_semigroup(S, p_max=6)
    found = statuses(report.checks)
    assert not report.passed
    for identity in ("FEL_MAIN", "EQ_FINAL", "LEMMA_ONE_MINUS_Q"):
        assert "fail" in found[identity]
    fails = [c for c in report.checks if c.identity == "FEL_MAIN" and c.status == "fail"]
    assert fails[0].lhs != fails[0].rhs


def eq_final_and_one_minus_q(report, m):
    """(lhs, rhs) of each EQ_FINAL record, and of entry m + p of LEMMA_ONE_MINUS_Q."""
    (lemma,) = [c for c in report.checks if c.identity == "LEMMA_ONE_MINUS_Q"]
    lhs, rhs = lemma.lhs.split(" "), lemma.rhs.split(" ")
    finals = [c for c in report.checks if c.identity == "EQ_FINAL"]
    entries = [(lhs[m + c.parameter], rhs[m + c.parameter]) for c in finals]
    return [(c.lhs, c.rhs) for c in finals], entries


def test_changed_numerator_eq_final_is_still_read_off_one_minus_q(monkeypatch):
    monkeypatch.setattr(verify, "hilbert_numerator", lambda S, apery: bumped_numerator(H))
    report = verify_semigroup(S, p_max=6)
    finals, entries = eq_final_and_one_minus_q(report, S.m)
    assert statuses(report.checks)["EQ_FINAL"] == {"fail"}
    assert len(finals) == 7
    assert finals == entries


def with_apery_sums(inv, apery):
    """inv with W replaced by the power sums of apery, to the same index."""
    return replace(inv, W=tuple(power_sums(apery, len(inv.W) - 1)))


def test_dropped_gap_with_apery_kept_fails_series_phi():
    # the Phi route reads the gaps 2, 7 in the class 2 mod 5 off apery[2] = 12;
    # 7 there drops the gap 7, while G and Q keep the true Apéry set
    dropped = APERY[:2] + (7,) + APERY[3:]
    inv = with_apery_sums(invariants(S, 6, ORDER), dropped)
    assert inv.h == H
    assert statuses(verify_series_lemmas(inv))["LEMMA_SERIES_PHI"] == {"fail"}
    # G comes from the Apéry set alone, so the main identity does not see it
    assert statuses(verify_fel_main(inv))["FEL_MAIN"] == {"pass"}


def test_apery_entry_off_its_class_fails_series_phi_without_an_exception():
    # 7 is not 1 mod 5, so the sums per residue class leave a remainder; the
    # records then compare every side times one integer and fail
    inv = with_apery_sums(invariants(S, 6, ORDER), APERY[:1] + (7,) + APERY[2:])
    records = verify_series_lemmas(inv)
    phi = [c for c in records if c.identity == "LEMMA_SERIES_PHI"]
    assert [(c.status, c.note) for c in phi] == [("fail", "Phi from the Apéry set is not an integer")]
    assert phi[0].rhs == " ".join(str(Fraction(g, factorial(n))) for n, g in enumerate(inv.G[: ORDER + 1]))
    lemmas = statuses(records)
    assert lemmas["LEMMA_SERIES_C"] == {"fail"}
    assert lemmas["LEMMA_SERIES_P"] == lemmas["LEMMA_ONE_MINUS_Q"] == {"pass"}


def test_changed_apery_entry_fails_fel_main(monkeypatch):
    apery = list(APERY)
    apery[1] += min(S.generators)
    inv = corrupted(monkeypatch, apery, H)
    assert "fail" in statuses(verify_fel_main(inv))["FEL_MAIN"]


def low_order_rows(records):
    return [(c.identity, c.parameter, c.lhs, c.rhs, c.status) for c in records]


def test_changed_gap_count_fails_every_low_order_row():
    # G_0 (the genus) enters every closed form; rows recorded while
    # LOW_ORDER_K still compared Fractions
    inv = invariants(S, 6, ORDER)
    records = verify.verify_low_order(replace(inv, G=(inv.G[0] + 1, *inv.G[1:])))
    assert low_order_rows(records) == [
        ("LOW_ORDER_K", 0, "37/2", "39/2", "fail"),
        ("LOW_ORDER_K", 1, "560/3", "602/3", "fail"),
        ("LOW_ORDER_K", 2, "32059/12", "11539/4", "fail"),
        ("LOW_ORDER_K", 3, "451241/10", "485891/10", "fail"),
    ]


def test_changed_syzygy_sum_fails_its_low_order_row():
    # m = 3 is odd, so the normaliser of K_1, -pi 4!/1! = -2880, is negative;
    # c[m+1] enters K_1 alone
    S3 = make_semigroup([4, 5, 6])
    inv = invariants(S3, 3)
    c = list(inv.c)
    c[S3.m + 1] -= 7
    records = verify.verify_low_order(replace(inv, c=tuple(c)))
    assert [r for r in low_order_rows(records) if r[4] == "fail"] == [
        ("LOW_ORDER_K", 1, "203527/2880", "212/3", "fail"),
    ]
    assert [r.status for r in records] == ["pass", "fail", "pass", "pass"]


def test_changed_surjection_number_fails_series_p(monkeypatch):
    rows = universal._surjection_row
    rows(ORDER + 10)  # every row the bundle reads is cached before the swap

    def corrupt(n):
        row = rows(n)
        return row[:5] + (row[5] + 1,) + row[6:] if n == 7 else row

    monkeypatch.setattr(universal, "_surjection_row", corrupt)
    inv = invariants(S, 6, ORDER)
    lemmas = statuses(verify_series_lemmas(inv))
    assert lemmas["LEMMA_SERIES_P"] == {"fail"}
    assert lemmas["LEMMA_SERIES_PHI"] == {"pass"}
    # the cached rows themselves were left as they were
    monkeypatch.undo()
    assert statuses(verify_series_lemmas(invariants(S, 6, ORDER)))["LEMMA_SERIES_P"] == {"pass"}


def test_changed_tangent_numbers_fail_every_zigzag_record(monkeypatch):
    monkeypatch.setattr(verify, "zigzag", lambda j: universal.zigzag(j) + 1)
    found = statuses(verify.verify_companions(samples=5, seed=0).checks)
    assert found["FEL2_ZIGZAG"] == {"fail"}
    assert found["FEL1_SIGNFLIP"] == {"pass"}


def bumped_umbral_factor(d, n_max):
    # coefficient n_max moves coefficient n of any product of m factors by m L^(m-1)
    *low, top = universal._umbral_factor(d, n_max)
    return [*low, top + 1]


def test_changed_umbral_factor_fails_every_signflip_record(monkeypatch):
    monkeypatch.setattr(verify, "_umbral_factor", bumped_umbral_factor)
    found = statuses(verify.verify_companions(samples=5, seed=0).checks)
    assert found["FEL1_SIGNFLIP"] == {"fail"}
    assert found["FEL2_ZIGZAG"] == {"pass"}


def test_failing_signflip_records_keep_their_text(monkeypatch):
    # SHA-256 of the records' (lhs, rhs, status, note) lines, recorded while
    # FEL1_SIGNFLIP records were still built by hand, before _ratio_record
    monkeypatch.setattr(verify, "_umbral_factor", bumped_umbral_factor)
    report = verify.verify_companions(samples=5, seed=0)
    # the digest lists the records in the order of the draws, zig-zag first
    zig = [c for c in report.checks if c.identity == "FEL2_ZIGZAG"]
    flip = [c for c in report.checks if c.identity == "FEL1_SIGNFLIP"]
    assert report.checks == flip + zig
    text = "\n".join("\t".join((c.lhs, c.rhs, c.status, c.note)) for c in zig + flip)
    assert hashlib.sha256(text.encode()).hexdigest() == SIGNFLIP_FAILING_DIGEST


REAL_BERNOULLI = universal.bernoulli


@pytest.mark.parametrize(
    "changed, first",
    [
        (lambda k: -REAL_BERNOULLI(k) if k == 1 else REAL_BERNOULLI(k), 1),
        (lambda k: REAL_BERNOULLI(k) + Fraction(1, 30) if k == 4 else REAL_BERNOULLI(k), 4),
    ],
    ids=["flipped_B1", "B4_plus_1_30"],
)
def test_changed_bernoulli_number_fails_the_universal_identity(monkeypatch, changed, first):
    # U_n reads B_j from the oracle on its right side: with t_symbolic's own
    # bernoulli() on both sides, a flipped B_1 would pass. The numeric T_n at
    # (3, 5) reads no Bernoulli number; a flipped B_1 negates the odd powers
    # of s1, so it moves T_n only at odd n.
    monkeypatch.setattr(universal, "bernoulli", changed)
    universal.t_symbolic.cache_clear()
    try:
        for n in range(12):
            lhs, rhs = universal_identity_sides(n)
            assert (lhs == rhs) == (n < first), n
            sigma = [3**k + 5**k for k in range(1, n + 1)]
            value = evaluate_symbolic(universal.t_symbolic(n), sigma)
            moved = n >= first and (first != 1 or n % 2 == 1)
            assert (value == t_values((3, 5), n)[n]) != moved, n
    finally:
        universal.t_symbolic.cache_clear()


# Each kernel that verify reads, perturbed once: the replacements, then the
# identities with a FAIL record on (5, 6, 8, 9), on (3, 5) and on (4, 5, 7)
# at p_max 4, and in verify_companions(5, 0). (4, 5, 7) is a triple that is
# not a gluing, so its W and Q come from _three_generator_source, not from
# apery_set and hilbert_numerator. The same table is in verify's module
# docstring.
REAL_PHI_BY_CLASSES = verify._gap_power_sums_by_classes


def raised_class_1(S, bound):
    # class 1 mod a raised by a: a wrong Apéry set that Q, W, G and Phi all read
    apery = apery_set(S, bound)
    apery[1] += min(S.generators)
    return apery


def bumped_surjection_entry(j):
    """_surjection_row with entry j (the last one for j = None) raised by 1
    in every row n >= 6."""

    def corrupt(n):
        row = _surjection_row(n)
        k = n if j is None else j
        return row[:k] + (row[k] + 1,) + row[k + 1 :] if n >= 6 else row

    return [(universal, "_surjection_row", corrupt), (verify, "_surjection_row", corrupt)]


def two_extra_terms(q):
    # + z^(D+1) - z^(D+2), D = deg Q: Q(1) stays 0, C_1 moves by 1
    terms = dict(q.items())
    top = max(terms)
    terms[top + 1], terms[top + 2] = 1, -1
    return IntPolynomial.from_terms(sorted(terms.items()))


def two_extra_q_terms(S, apery):
    h = hilbert_numerator(S, apery)
    return replace(h, numerator=two_extra_terms(h.numerator))


def two_extra_source_terms(S, n_max, bound):
    a, W, q = _three_generator_source(S, n_max, bound)
    return a, W, two_extra_terms(q)


def bumped_g2(W, r_max):
    G = gap_power_sums(W, r_max)
    G[2] += 1
    return G


def bumped_phi2(W, order):
    phi, M = REAL_PHI_BY_CLASSES(W, order)
    phi[2] += M
    return phi, M


def bumped_b4(n_max):
    # L B_4 + 1 in verify's table only; the umbral factors read universal's
    L, bern = _scaled_bernoulli(n_max)
    return (L, (*bern[:4], bern[4] + 1, *bern[5:])) if n_max >= 4 else (L, bern)


def bumped_umbral_entry_2(d, n_max):
    factor = _umbral_factor(d, n_max)
    factor[2] += 1
    return factor


def fails(text=""):
    return frozenset(text.split())


SERIES_SIDE = "LEMMA_ONE_MINUS_Q EQ_FINAL FEL_MAIN"
KERNELS = {
    "apery_set class 1 + a": (
        [(verify, "apery_set", raised_class_1)],
        fails(),
        fails("M2_CLOSED_FORM"),
        fails(),
        fails(),
    ),
    "surjection last entry + 1": (
        bumped_surjection_entry(None),
        fails(f"LEMMA_SERIES_P LEMMA_SERIES_PDIV LEMMA_SERIES_C {SERIES_SIDE}"),
        fails(f"LEMMA_SERIES_P LEMMA_SERIES_PDIV LEMMA_SERIES_C {SERIES_SIDE}"),
        fails(f"LEMMA_SERIES_P LEMMA_SERIES_PDIV LEMMA_SERIES_C {SERIES_SIDE}"),
        fails(),
    ),
    "surjection entry 1 + 1": (
        bumped_surjection_entry(1),
        fails(),
        fails("LEMMA_SERIES_C LEMMA_SERIES_PDIV"),
        fails(),
        fails(),
    ),
    "G_2 + 1": (
        [(verify, "gap_power_sums", bumped_g2)],
        fails(f"LEMMA_SERIES_PHI LOW_ORDER_K {SERIES_SIDE}"),
        fails(f"LEMMA_SERIES_PHI LOW_ORDER_K {SERIES_SIDE}"),
        fails(f"LEMMA_SERIES_PHI LOW_ORDER_K {SERIES_SIDE}"),
        fails(),
    ),
    "Phi_2 + M": (
        [(verify, "_gap_power_sums_by_classes", bumped_phi2)],
        fails("LEMMA_SERIES_PHI LEMMA_SERIES_C"),
        fails("LEMMA_SERIES_PHI LEMMA_SERIES_C"),
        fails("LEMMA_SERIES_PHI LEMMA_SERIES_C"),
        fails(),
    ),
    "two extra terms in Q": (
        [(verify, "hilbert_numerator", two_extra_q_terms)],
        fails(f"THM_KP LOW_ORDER_K LEMMA_SERIES_C {SERIES_SIDE}"),
        fails(f"THM_KP LOW_ORDER_K LEMMA_SERIES_C M2_CLOSED_FORM {SERIES_SIDE}"),
        fails(),
        fails(),
    ),
    "L B_4 + 1": (
        [(verify, "_scaled_bernoulli", bumped_b4)],
        fails(f"LEMMA_SERIES_PHI LEMMA_SERIES_C LEMMA_SERIES_PDIV {SERIES_SIDE}"),
        fails(f"LEMMA_SERIES_PHI LEMMA_SERIES_C LEMMA_SERIES_PDIV {SERIES_SIDE}"),
        fails(f"LEMMA_SERIES_PHI LEMMA_SERIES_C LEMMA_SERIES_PDIV {SERIES_SIDE}"),
        fails(),
    ),
    "zigzag(5) + 1": (
        [(verify, "zigzag", lambda j: zigzag(j) + (j == 5))],
        fails(),
        fails(),
        fails(),
        fails("FEL2_ZIGZAG"),
    ),
    "umbral factor entry 2 + 1": (
        [(verify, "_umbral_factor", bumped_umbral_entry_2)],
        fails(),
        fails(),
        fails(),
        fails("FEL1_SIGNFLIP"),
    ),
    "two extra terms in the source's Q": (
        [(verify, "_three_generator_source", two_extra_source_terms)],
        fails(),
        fails(),
        fails(f"THM_KP LOW_ORDER_K LEMMA_SERIES_C {SERIES_SIDE}"),
        fails(),
    ),
}


# SHA-256 of the JSON of `verify <gens> --p-max 4` with L B_4 + 1 in verify's
# Bernoulli table. Recorded while D was still the convolution of E with every
# L B_k and each record reduced its own text: the FAIL records of
# LEMMA_SERIES_PDIV, LEMMA_ONE_MINUS_Q, EQ_FINAL and FEL_MAIN now print a text
# shared with another record, or one reduced over a smaller denominator.
BUMPED_B4_DIGESTS = {
    ("5", "6", "8", "9"): "9e54dc4a39f63b98c6b9e05ecdec0340f0b406a8d64cff3363997a800386392f",
    ("3", "5"): "bd2fa7b5a539d61112712c2b01fcaee8c075e888b8c41b975d24ef0c72c19fe2",
}


@pytest.mark.parametrize("gens", BUMPED_B4_DIGESTS, ids=" ".join)
def test_changed_bernoulli_table_keeps_the_fail_bytes(monkeypatch, capsys, gens):
    monkeypatch.setattr(verify, "_scaled_bernoulli", bumped_b4)
    code = cli.main(["verify", *gens, "--p-max", "4", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == BUMPED_B4_DIGESTS[gens]


def failing(records):
    return frozenset(c.identity for c in records if c.status == "fail")


@pytest.mark.parametrize("kernel", KERNELS)
def test_each_kernel_fails_exactly_its_readers(monkeypatch, kernel):
    patches, on_5689, on_35, on_457, in_companions = KERNELS[kernel]
    _surjection_row(40)  # every true row read is cached before any swap
    for module, name, replacement in patches:
        monkeypatch.setattr(module, name, replacement)
    found = [
        failing(verify_semigroup(make_semigroup(gens), p_max=4).checks)
        for gens in (S.generators, [3, 5], [4, 5, 7])
    ]
    assert found == [on_5689, on_35, on_457]
    assert failing(verify.verify_companions(5, 0).checks) == in_companions
    # FEL_MAIN and EQ_FINAL compare the same integers
    for identities in found:
        assert ("FEL_MAIN" in identities) == ("EQ_FINAL" in identities)


def test_wrong_apery_power_sum_raises_instead_of_failing_a_record(monkeypatch):
    # W_3 + 1 leaves G_2 a non-integer: gap_power_sums raises inside
    # invariants, before any record, where the same non-integrality on the
    # Phi route is a FAIL record (test_apery_entry_off_its_class_...)
    def bumped_w3(values, k):
        W = power_sums(values, k)
        W[3] += 1
        return W

    monkeypatch.setattr(verify, "power_sums", bumped_w3)
    for gens in ([5, 6, 8, 9], [3, 5]):
        with pytest.raises(NonExactDivision, match="G_2 from the Apéry set is not an integer"):
            verify_semigroup(make_semigroup(gens), p_max=4)


def test_three_generators_take_no_apery_power_sums(monkeypatch):
    # the power_sums patch above makes (5, 6, 8, 9) and (3, 5) raise; the
    # W of a triple comes from its region, and every record passes
    def bumped_w3(values, k):
        W = power_sums(values, k)
        W[3] += 1
        return W

    monkeypatch.setattr(verify, "power_sums", bumped_w3)
    assert verify_semigroup(make_semigroup([4, 5, 7]), p_max=4).passed


def no_records(*args, **kwargs):
    raise AssertionError("a record was made")


def test_bumped_relation_raises_before_any_record(monkeypatch):
    real = semigroup._least_multiple

    def bumped(b, a, c):
        k, lam, mu = real(b, a, c)
        return k, lam + 1, mu

    monkeypatch.setattr(semigroup, "_least_multiple", bumped)
    monkeypatch.setattr(verify, "CheckRecord", no_records)
    relation = r"^\d+\*\d+ = \d+\*\d+ \+ \d+\*\d+ does not hold$"
    # an L-shape, a gluing and a list with a redundant entry
    for gens in ([4, 5, 7], [6, 10, 15], [3, 9, 5]):
        with pytest.raises(AperyRegionWitnessFailed, match=relation):
            verify_semigroup(make_semigroup(gens), p_max=4)


def test_region_with_a_point_too_many_raises_before_any_record(monkeypatch):
    real = semigroup._three_generator_region

    def widened(gens):
        a, b, c, blocks, relations = real(gens)
        (U, V0, V1), *rest = blocks
        return a, b, c, [(U + 1, V0, V1), *rest], relations

    monkeypatch.setattr(semigroup, "_three_generator_region", widened)
    monkeypatch.setattr(verify, "CheckRecord", no_records)
    message = r"the blocks \[\(4, 0, 1\), \(1, 1, 2\)\] of 5 and 7 are not an Apéry set of 4"
    with pytest.raises(AperyRegionWitnessFailed, match=message):
        verify_semigroup(make_semigroup([4, 5, 7]), p_max=4)
