"""Every check can still fail: corrupt one input and the checks that read it
report fail, while the checks that do not read it keep passing.

The corrupt input goes in where the invariants bundle is built, by
replacing the apery_set or hilbert_numerator that verify calls, or the
surjection-number rows that E is built from; in the power sums W of the
Apéry set held by a built bundle, which G has already been computed from,
so that only the Phi route of the series lemmas reads the corrupted sums;
for the companion checks, by replacing the tangent numbers or the umbral
factors that verify reads."""

import hashlib
from dataclasses import replace
from fractions import Fraction
from math import factorial

from felcheck import universal, verify
from felcheck.exact import IntPolynomial, power_sums
from felcheck.hilbert import hilbert_numerator
from felcheck.semigroup import apery_set, make_semigroup
from felcheck.verify import (
    invariants,
    verify_fel_main,
    verify_semigroup,
    verify_series_lemmas,
)

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
