"""Every check can still fail: corrupt one input and the checks that read it
report fail, while the checks that do not read it keep passing."""

from dataclasses import replace

from felcheck import verify
from felcheck.exact import IntPolynomial
from felcheck.hilbert import hilbert_numerator
from felcheck.semigroup import compute_gaps, make_semigroup
from felcheck.verify import (
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


def test_changed_numerator_coefficient_fails_fel_main_eq_final_and_one_minus_q():
    bad = bumped_numerator(H)
    main = statuses(verify_fel_main(S, 6, GAPS, bad))
    assert main["FEL_MAIN"] == {"fail"}
    assert main["EQ_FINAL"] == {"fail"}
    lemmas = statuses(verify_series_lemmas(S, ORDER, GAPS, bad))
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


def test_dropped_gap_with_apery_kept_fails_series_phi():
    bad = replace(GAPS, gaps=GAPS.gaps[:-1], genus=GAPS.genus - 1)
    lemmas = statuses(verify_series_lemmas(S, ORDER, bad, hilbert_numerator(S, bad)))
    assert lemmas["LEMMA_SERIES_PHI"] == {"fail"}
    # G comes from the Apéry set alone, so the main identity does not see it
    assert statuses(verify_fel_main(S, 6, bad, H))["FEL_MAIN"] == {"pass"}


def test_changed_apery_entry_fails_fel_main():
    apery = list(GAPS.apery)
    apery[1] += min(S.generators)
    bad = replace(GAPS, apery=tuple(apery))
    assert "fail" in statuses(verify_fel_main(S, 6, bad, H))["FEL_MAIN"]
