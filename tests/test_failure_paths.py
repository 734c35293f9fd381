"""Every check can still fail: corrupt one input and the checks that read it
report fail, while the checks that do not read it keep passing.

The corrupt input goes in where the invariants bundle is built, by
replacing the compute_gaps or hilbert_numerator that verify calls, or the
surjection-number rows that E is built from; for the companion checks, by
replacing the tangent numbers or the umbral factors that verify reads."""

from dataclasses import replace

from felcheck import universal, verify
from felcheck.exact import IntPolynomial
from felcheck.hilbert import hilbert_numerator
from felcheck.semigroup import compute_gaps, make_semigroup
from felcheck.verify import (
    invariants,
    verify_fel_main,
    verify_semigroup,
    verify_series_lemmas,
)

S = make_semigroup([5, 6, 8, 9])
GAPS = compute_gaps(S)
H = hilbert_numerator(S, GAPS)
ORDER = S.m + 8


def statuses(report):
    out = {}
    for check in report.checks:
        out.setdefault(check.identity, set()).add(check.status)
    return out


def bumped_numerator(h):
    """h with the z^14 coefficient of Q changed from -1 to 0."""
    terms = dict(h.numerator.items())
    terms[14] += 1
    return replace(h, numerator=IntPolynomial.from_terms(sorted(terms.items())))


def corrupted(monkeypatch, gaps=GAPS, h=None):
    """The bundle for S at p_max 6 and ORDER, built from the given gap data and,
    if h is given, that numerator instead of the one computed from the gaps."""
    monkeypatch.setattr(verify, "compute_gaps", lambda S, bound: gaps)
    if h is not None:
        monkeypatch.setattr(verify, "hilbert_numerator", lambda S, gaps: h)
    return invariants(S, 6, ORDER)


def test_changed_numerator_coefficient_fails_fel_main_eq_final_and_one_minus_q(monkeypatch):
    inv = corrupted(monkeypatch, h=bumped_numerator(H))
    main = statuses(verify_fel_main(inv))
    assert main["FEL_MAIN"] == {"fail"}
    assert main["EQ_FINAL"] == {"fail"}
    lemmas = statuses(verify_series_lemmas(inv))
    assert lemmas["LEMMA_ONE_MINUS_Q"] == {"fail"}
    assert lemmas["LEMMA_SERIES_PHI"] == {"pass"}


def test_changed_numerator_fails_inside_verify_semigroup(monkeypatch):
    monkeypatch.setattr(verify, "hilbert_numerator", lambda S, gaps: bumped_numerator(H))
    report = verify_semigroup(S, p_max=6)
    found = statuses(report)
    assert not report.passed
    for identity in ("FEL_MAIN", "EQ_FINAL", "LEMMA_ONE_MINUS_Q"):
        assert "fail" in found[identity]
    fails = [c for c in report.checks if c.identity == "FEL_MAIN" and c.status == "fail"]
    assert fails[0].lhs != fails[0].rhs


def test_dropped_gap_with_apery_kept_fails_series_phi(monkeypatch):
    inv = corrupted(monkeypatch, replace(GAPS, gaps=GAPS.gaps[:-1], genus=GAPS.genus - 1))
    assert inv.h == H
    assert statuses(verify_series_lemmas(inv))["LEMMA_SERIES_PHI"] == {"fail"}
    # G comes from the Apéry set alone, so the main identity does not see it
    assert statuses(verify_fel_main(inv))["FEL_MAIN"] == {"pass"}


def test_changed_apery_entry_fails_fel_main(monkeypatch):
    apery = list(GAPS.apery)
    apery[1] += min(S.generators)
    inv = corrupted(monkeypatch, replace(GAPS, apery=tuple(apery)), H)
    assert "fail" in statuses(verify_fel_main(inv))["FEL_MAIN"]


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
    found = statuses(verify.verify_companions(samples=5, seed=0))
    assert found["FEL2_ZIGZAG"] == {"fail"}
    assert found["FEL1_SIGNFLIP"] == {"pass"}


def test_changed_umbral_factor_fails_every_signflip_record(monkeypatch):
    def bumped(d, n_max):
        # coefficient n_max moves coefficient n of any product of m factors by m L^(m-1)
        *low, top = universal._umbral_factor(d, n_max)
        return [*low, top + 1]

    monkeypatch.setattr(verify, "_umbral_factor", bumped)
    found = statuses(verify.verify_companions(samples=5, seed=0))
    assert found["FEL1_SIGNFLIP"] == {"fail"}
    assert found["FEL2_ZIGZAG"] == {"pass"}
