import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest

from felcheck import cli, universal, verify
from felcheck.exact import IntPolynomial
from felcheck.semigroup import APERY_MAX
from felcheck.universal import SYMBOLIC_N_MAX, t_symbolic
from felcheck.verify import M_MAX, ORDER_MAX, CheckRecord, VerificationReport

from oracles import sigma_by_series
from test_failure_paths import H, bumped_numerator
from test_golden import DIGESTS


def report_dict(report):
    """A verify report as the JSON output lays it out."""
    return {
        "generators": list(report.generators) if report.generators else None,
        "order": report.order,
        "warnings": list(report.warnings),
        "checks": [
            {
                "identity": c.identity,
                "parameter": c.parameter,
                "status": c.status,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "note": c.note,
            }
            for c in report.checks
        ],
        "passed": report.passed,
    }


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_gap_line(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "3", "5")
        assert code == 0
        assert "gaps: 1 2 4 7" in out

    def test_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "invariants", "2", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("GcdNotOne")

    def test_json_frobenius(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "5", "6", "8", "9", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["frobenius"] == 7
        assert doc["schema"] == 1

    def test_trivial_semigroup(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "1")
        assert code == 0
        assert "frobenius: -1" in out
        assert "gaps: \n" in out + "\n"

    def test_p_max_limit_refused_before_any_gaps(self, capsys, monkeypatch):
        class GapsReached(Exception):
            pass

        def reached(*args):
            raise GapsReached

        monkeypatch.setattr(cli, "compute_gaps", reached)
        code, out, err = run_cli(capsys, "invariants", "3", "5", "--p-max", str(ORDER_MAX + 1))
        assert code == 2
        assert out == ""
        assert err.startswith("OrderTooLarge")
        assert f"limited to {ORDER_MAX}" in err
        # the limit itself passes the guard and goes on to the gaps
        with pytest.raises(GapsReached):
            run_cli(capsys, "invariants", "3", "5", "--p-max", str(ORDER_MAX))

    def test_bound_refuses_the_generator_product(self, capsys):
        # compute_gaps' own refusal: min*max above --bound, the bound itself kept
        code, out, err = run_cli(capsys, "invariants", "3", "5", "--bound", "14")
        message = "BoundExceeded: min*max generator product 15 exceeds bound 14\n"
        assert (code, out, err) == (2, "", message)
        code, out, err = run_cli(capsys, "invariants", "3", "5", "--bound", "15")
        assert (code, err) == (0, "")
        assert "gaps: 1 2 4 7" in out


class TestHilbert:
    def test_numerator_line(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "4", "5", "6")
        assert code == 0
        assert "Q: 0:1 10:-1 12:-1 22:1" in out

    def test_k_line(self, capsys):
        _, out, _ = run_cli(capsys, "hilbert", "3", "5")
        assert out.splitlines()[3].startswith("K: 15/2 ")

    def test_trivial(self, capsys):
        _, out, _ = run_cli(capsys, "hilbert", "1")
        assert "Q: 0:1" in out
        assert out.splitlines()[3] == "K: " + " ".join(["0"] * 9)

    def test_order_limit_refused_before_any_gaps(self, capsys, monkeypatch):
        class GapsReached(Exception):
            pass

        def reached(*args):
            raise GapsReached

        monkeypatch.setattr(cli, "apery_set", reached)
        p_max = ORDER_MAX - 1  # C runs to order m + p_max = ORDER_MAX + 1
        code, out, err = run_cli(capsys, "hilbert", "3", "5", "--p-max", str(p_max))
        assert code == 2
        assert out == ""
        assert err.startswith("OrderTooLarge")
        assert f"limited to {ORDER_MAX}, got {ORDER_MAX + 1}" in err
        # the limit itself passes the guard and goes on to the Apéry set
        with pytest.raises(GapsReached):
            run_cli(capsys, "hilbert", "3", "5", "--p-max", str(p_max - 1))


    def test_three_generators_take_q_from_their_relations(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("the Apéry set was built")

        monkeypatch.setattr(cli, "apery_set", never)
        code, out, _ = run_cli(capsys, "hilbert", "1019", "1009", "1013", "--p-max", "0")
        assert code == 0
        assert "Q: 0:1 5065:-1 206845:-1 206857:-1 208883:1 209884:1" in out

    def test_least_generator_above_the_bound_refused(self, capsys):
        # the cost grows with the least generator a, not with max(d) or the genus
        code, out, _ = run_cli(capsys, "hilbert", "2", str(10**12 + 1))
        assert code == 0
        assert f"Q: 0:1 {2 * (10**12 + 1)}:-1" in out
        a = APERY_MAX + 1
        for argv in ((str(a), str(a + 1)), ("4", "5", "6", "--bound", "3")):
            code, out, err = run_cli(capsys, "hilbert", *argv)
            assert (code, out) == (2, "")
            assert err.startswith("AperyTooLarge")
        assert run_cli(capsys, "hilbert", "4", "5", "6", "--bound", "4")[0] == 0


class TestTn:
    def test_symbolic_table(self, capsys):
        _, out, _ = run_cli(capsys, "tn", "2")
        lines = out.splitlines()
        assert lines == ["T_0 = 1", "T_1 = s1/2", "T_2 = (3*s1^2 + s2)/12"]

    def test_seventh_row(self, capsys):
        _, out, _ = run_cli(capsys, "tn", "7")
        assert out.splitlines()[-1] == (
            "T_7 = (9*s1^7 + 63*s1^5*s2 + 105*s1^3*s2^2 - 42*s1^3*s4"
            " + 35*s1*s2^3 - 42*s1*s2*s4 + 16*s1*s6)/1152"
        )

    def test_evaluated(self, capsys):
        _, out, _ = run_cli(capsys, "tn", "1", "--at", "3,5")
        assert out.splitlines() == ["T_0 = 1", "T_1 = 4"]

    def test_rational_points(self, capsys):
        _, out, _ = run_cli(capsys, "tn", "2", "--at", "7/2,1/3")
        assert out.splitlines()[1] == "T_1 = 23/12"

    def test_negative_first_entry(self, capsys):
        # argparse reads "-1,1" as an option; "--at=" keeps it the option's value
        with pytest.raises(SystemExit) as exit_:
            cli.main(["tn", "3", "--at", "-1,1"])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --at: expected one argument" in err
        code, out, _ = run_cli(capsys, "tn", "3", "--at=-1,1")
        assert code == 0
        # s1 = 0, s2 = 2: T_2 = (3*s1^2 + s2)/12
        assert out.splitlines() == ["T_0 = 1", "T_1 = 0", "T_2 = 1/6", "T_3 = 0"]

    def test_evaluated_matches_fraction_series(self, capsys):
        _, out, _ = run_cli(capsys, "tn", "12", "--at", "1/2,3,-5")
        sigma = sigma_by_series((F(1, 2), 3, -5), 12)
        assert out.splitlines() == [f"T_{n} = {factorial(n) * sigma[n]}" for n in range(13)]

    def test_bad_point(self, capsys):
        code, _, err = run_cli(capsys, "tn", "2", "--at", "3,x")
        assert code == 2
        assert "ValueError" in err

    def test_symbolic_limit_refused_up_front(self, capsys):
        # t_symbolic refuses at entry: the refused call builds no row
        t_symbolic.cache_clear()
        code, out, err = run_cli(capsys, "tn", str(SYMBOLIC_N_MAX + 1))
        assert t_symbolic.cache_info().currsize == 0
        assert code == 2
        assert out == ""
        assert err.startswith("SymbolicOrderTooLarge")
        assert f"n <= {SYMBOLIC_N_MAX}" in err

    def test_evaluated_past_symbolic_limit(self, capsys):
        n = SYMBOLIC_N_MAX + 10
        code, out, _ = run_cli(capsys, "tn", str(n), "--at", "1")
        assert code == 0
        assert out.splitlines()[-1] == f"T_{n} = 1/{n + 1}"

    def test_evaluated_order_limit_refused_up_front(self, capsys, monkeypatch):
        class SeriesReached(Exception):
            pass

        def reached(*args):
            raise SeriesReached

        monkeypatch.setattr(universal, "_exp_minus_one_product", reached)
        code, out, err = run_cli(capsys, "tn", str(ORDER_MAX + 1), "--at", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("OrderTooLarge")
        assert f"limited to {ORDER_MAX}" in err
        # the limit itself passes the guard and goes on to the series
        with pytest.raises(SeriesReached):
            run_cli(capsys, "tn", str(ORDER_MAX), "--at", "1")

    def test_evaluated_order_counts_the_entries(self, capsys, monkeypatch):
        # T_n at m entries reads series row n + m; rows past ORDER_MAX + 1 are
        # refused before any series is built, at the limit they are built
        def refused(n, m):
            with monkeypatch.context() as patch:
                patch.setattr(universal, "_exp_minus_one_product", never)
                code, out, err = run_cli(capsys, "tn", str(n), "--at", ",".join(["1"] * m))
            assert (code, out) == (2, "")
            assert err.startswith("OrderTooLarge")
            assert f"limited to {ORDER_MAX}, got {n + m - 1}" in err

        def never(*args):
            raise AssertionError("a series was built")

        refused(ORDER_MAX, 2)
        refused(1, ORDER_MAX + 1)
        code, out, _ = run_cli(capsys, "tn", str(ORDER_MAX - 1), "--at", "1,1")
        assert code == 0
        assert out.splitlines()[1] == "T_1 = 1"
        code, out, _ = run_cli(capsys, "tn", "1", "--at", ",".join(["1"] * ORDER_MAX))
        assert code == 0
        assert out.splitlines() == ["T_0 = 1", f"T_1 = {ORDER_MAX // 2}"]

    def test_long_entry_refused_on_its_text(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("an entry was expanded or a series built")

        monkeypatch.setattr(cli, "Fraction", never)
        monkeypatch.setattr(cli, "t_values", never)
        too_long = (
            "9" * (cli.AT_ENTRY_MAX + 1),
            "1e" + str(cli.AT_ENTRY_MAX),
            "-1e-" + str(cli.AT_ENTRY_MAX - 1),
            "2/" + "7" * cli.AT_ENTRY_MAX + ",3",
            "1e10000000",
            "1E" + "9" * 30,
        )
        for at in too_long:
            code, out, err = run_cli(capsys, "tn", "1", f"--at={at}")
            assert (code, out) == (2, ""), at
            assert err.startswith("EntryTooLarge") and f"limited to {cli.AT_ENTRY_MAX}" in err

    def test_longest_entries_accepted(self, capsys):
        longest = "9" * cli.AT_ENTRY_MAX
        code, out, _ = run_cli(capsys, "tn", "1", "--at", longest)
        assert code == 0
        assert out.splitlines()[1] == f"T_1 = {F(int(longest), 2)}"
        power = "1e" + str(cli.AT_ENTRY_MAX - 1)  # 1 + 99 digits
        code, out, _ = run_cli(capsys, "tn", "1", "--at", power)
        assert code == 0
        assert out.splitlines()[1] == "T_1 = 5" + "0" * (cli.AT_ENTRY_MAX - 2)

    def test_many_longest_entries(self, capsys):
        # the product in v = e^u - 1 skips the coefficients below v^100, all
        # zero; multiplying them too took 40.6 s on a 2-core VM
        longest = "9" * cli.AT_ENTRY_MAX
        entries = 100
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "tn", "1", "--at", ",".join([longest] * entries))
        assert time.perf_counter() - start < 10
        assert code == 0
        assert out.splitlines() == ["T_0 = 1", f"T_1 = {entries * int(longest) // 2}"]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    def test_values_past_the_digit_limit_print(self, capsys, monkeypatch):
        # T_50 at 10^99 is 10^4950/51: more digits than CPython converts by
        # default. The caller's own limit is restored, even on an error.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
        try:
            code, out, _ = run_cli(capsys, "tn", "50", "--at", "1e99")
            assert code == 0
            assert out.splitlines()[-1] == "T_50 = 1" + "0" * 4950 + "/51"
            assert sys.get_int_max_str_digits() == 4321
            code, _, _ = run_cli(capsys, "tn", "1", "--at", "1/0")
            assert code == 2
            assert sys.get_int_max_str_digits() == 4321
            monkeypatch.setattr(cli, "t_values", lambda *args: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                run_cli(capsys, "tn", "1", "--at", "1")
            assert sys.get_int_max_str_digits() == 4321
        finally:
            sys.set_int_max_str_digits(limit)


# Records the verify commands never print: a FAIL note holding a quote, a
# backslash, a tab and U+2028, a SKIP with no parameter, a warning, a report
# with generators None and one with no records.
FAILED = CheckRecord("LEMMA_SERIES_PHI", 12, "1/2", "-3", "fail", 'Apéry "set" \\ \t\u2028')
SKIPPED = CheckRecord("THM_KP", None, "", "", "skip", "statement applies to m >= 2 only")
PASSED = CheckRecord("FEL2_ZIGZAG", 1, "2/3", "2/3", "pass", "sample 0: x = (1)")


def unusual_reports():
    return [
        VerificationReport((7,), [FAILED, SKIPPED], ["order raised"], order=12),
        VerificationReport(None, [], []),
        VerificationReport((3, 5), [SKIPPED], []),
    ]


UNUSUAL_SKIP_LINE = "THM_KP r=- skip  [statement applies to m >= 2 only]"
UNUSUAL_SKIP_ROW = "THM_KP\t-\tskip\t\t\tstatement applies to m >= 2 only"
UNUSUAL_OUTPUT = {
    "table": (
        "semigroup: 7\n"
        "order: 12\n"
        "warning: order raised\n"
        'LEMMA_SERIES_PHI order=12 FAIL lhs=1/2 rhs=-3  [Apéry "set" \\ \t\u2028]\n'
        f"{UNUSUAL_SKIP_LINE}\n"
        "result: FAIL\n"
        "companions: seed=4 samples=2\n"
        "result: pass\n"
        "semigroup: 3 5\n"
        "order: None\n"
        f"{UNUSUAL_SKIP_LINE}\n"
        "result: pass\n"
        "companions: seed=4 samples=2\n"
        "FEL2_ZIGZAG n=1 pass 2/3  [sample 0: x = (1)]\n"
        "result: pass\n"
        "overall: FAIL\n"
    ),
    "tsv": (
        "semigroup\tidentity\tparameter\tstatus\tlhs\trhs\tnote\n"
        '7\tLEMMA_SERIES_PHI\t12\tfail\t1/2\t-3\tApéry "set" \\ \t\u2028\n'
        f"7\t{UNUSUAL_SKIP_ROW}\n"
        f"3 5\t{UNUSUAL_SKIP_ROW}\n"
        "companions\tFEL2_ZIGZAG\t1\tpass\t2/3\t2/3\tsample 0: x = (1)\n"
    ),
}

# verify 5 6 8 9 --p-max 2 --samples 1 with the z^14 coefficient of Q changed
# from -1 to 0: SHA-256 of stdout, and some of the FAIL lines it holds.
BUMPED_OUTPUT = {
    "table": (
        "125d2828cbe01ec1f590736a295078db23906c2d8d528fc737cbc76ae52427e9",
        [
            "FEL_MAIN p=0 FAIL lhs=57539/3240 rhs=37/2",
            "THM_KP r=3 FAIL lhs=10216 rhs=12960",
            "EQ_FINAL p=2 FAIL lhs=129368354/45 rhs=2885310",
            "result: FAIL",
            "overall: FAIL",
        ],
    ),
    "tsv": (
        "57f6495c05e6e9bb1dec2c0bde71d01dc1b084009817a8dec4bcc3c5c8f4e3e1",
        [
            "5 6 8 9\tFEL_MAIN\t0\tfail\t57539/3240\t37/2\t",
            "5 6 8 9\tTHM_KP\t3\tfail\t10216\t12960\t",
            "5 6 8 9\tEQ_FINAL\t2\tfail\t129368354/45\t2885310\t",
        ],
    ),
    "json": (
        "8984a0e4f9075c28e2d9e6e203cc6a01015b20902929f669bccbbec6f983a057",
        ['          "status": "fail",', '  "passed": false'],
    ),
}


_EMPTY_RANGE = "ValueError: no coprime generator list has m in [1, {}] and entries in [1, {}]\n"


class TestVerify:
    def test_trivial_semigroup_skips_structural_clauses(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "1", "--samples", "1")
        assert code == 0
        assert "THM_KP r=- skip" in out
        assert "overall: pass" in out

    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "5", "6", "8", "9", "--p-max", "4", "--samples", "1")
        assert code == 0
        assert "FEL_MAIN p=0 pass 37/2" in out

    def test_requires_target(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "generators" in err

    def test_random_count_below_one_refused(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a semigroup was drawn or the companions ran")

        monkeypatch.setattr(cli, "random_semigroup", never)
        monkeypatch.setattr(cli, "verify_companions", never)
        for count in ("0", "-4", "5001"):
            code, out, err = run_cli(capsys, "verify", "--random", "--count", count)
            assert code == 2
            assert out == ""
            assert err.startswith("ValueError") and "--count" in err

    def test_random_count_limit_is_inclusive(self, capsys, monkeypatch):
        # COUNT_MAX draws pass the count guard, one more is refused; the checks
        # are stubbed, so only the draws and the rendering run
        monkeypatch.setattr(cli, "verify_companions", lambda *args: VerificationReport(None))
        monkeypatch.setattr(cli, "verify_semigroup", lambda S, *a: VerificationReport(S.generators))
        argv = ("verify", "--random", "--count", str(cli.COUNT_MAX), "--format", "json")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(json.loads(out)["reports"]) == cli.COUNT_MAX + 1
        code, out, err = run_cli(capsys, "verify", "--random", "--count", str(cli.COUNT_MAX + 1))
        message = f"ValueError: --count is limited to {cli.COUNT_MAX}, got {cli.COUNT_MAX + 1}\n"
        assert (code, out, err) == (2, "", message)

    def test_random_flags_refused_without_random(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a semigroup was verified or the companions ran")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "verify_semigroup", never)
            patch.setattr(cli, "verify_companions", never)
            given = (
                ("--count", "0"),
                ("--count", "99999"),
                ("--count", "20"),  # the --random default is refused too
                ("--d-max", "-3"),
                ("--m-max", "4"),
            )
            for flag, value in given:
                for gens in (("3", "5"), ()):
                    code, out, err = run_cli(capsys, "verify", *gens, flag, value)
                    assert (code, out) == (2, "")
                    assert err == f"ValueError: {flag} applies only with --random\n"
        # without them the same semigroup verifies, and with --random they apply
        assert run_cli(capsys, "verify", "3", "5", "--samples", "1")[0] == 0
        argv = ("--count", "1", "--m-max", "1", "--d-max", "1", "--samples", "1")
        code, out, _ = run_cli(capsys, "verify", "--random", *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["random"] == {"m_max": 1, "d_max": 1, "count": 1}
        assert doc["reports"][0]["generators"] == [1]

    def test_random_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--random", "--samples", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["random"] == {"m_max": 4, "d_max": 30, "count": 20}
        assert len(doc["reports"]) == 21

    def test_generators_with_random_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "3", "5", "--random", "--count", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("ValueError") and "--random" in err

    def test_samples_below_one_refused_before_any_semigroup(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a semigroup was drawn or verified")

        monkeypatch.setattr(cli, "random_semigroup", never)
        monkeypatch.setattr(cli, "verify_semigroup", never)
        for samples in ("0", "10001"):
            argv = ("verify", "--random", "--count", "5", "--samples", samples)
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("ValueError") and "samples" in err

    def test_order_limit_refused_before_any_gaps(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("the Apéry set was built")

        monkeypatch.setattr(verify, "apery_set", never)
        p_max = ORDER_MAX - 1  # resolved order m + p_max + 2 = ORDER_MAX + 3
        for argv in (("--p-max", str(p_max)), ("--order", str(ORDER_MAX + 1))):
            code, out, err = run_cli(capsys, "verify", "3", "5", *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("OrderTooLarge")
            assert f"limited to {ORDER_MAX}" in err

    @pytest.mark.parametrize("p_max, row", [(0, 6), (4, 9)])
    def test_deepest_series_row(self, capsys, monkeypatch, p_max, row):
        # E is built to row max(order, m + 3) + 1: on 3 5 the default order
        # m + p_max + 2 is 4 at --p-max 0, so m + 3 = 5 decides, and 8 at 4
        rows = []
        build = verify._exp_minus_one_product

        def recording(ps, n_max):
            rows.append((tuple(ps), n_max))
            return build(ps, n_max)

        monkeypatch.setattr(verify, "_exp_minus_one_product", recording)
        code, _, _ = run_cli(capsys, "verify", "3", "5", "--p-max", str(p_max))
        assert code == 0
        assert rows == [((3, 5), row)]

    def test_m_max_limit_refused_before_any_draw(self, capsys, monkeypatch):
        class Drawn(Exception):
            pass

        def drawn(*args):
            raise Drawn

        def never(*args):
            raise AssertionError("the companions ran")

        monkeypatch.setattr(cli, "random_semigroup", drawn)
        monkeypatch.setattr(cli, "verify_companions", never)
        # the deepest order is m_max + p_max + 2 by default, else --order
        # raised to at least m_max + p_max
        refused = (
            ("--m-max", str(ORDER_MAX - 9)),
            ("--m-max", str(ORDER_MAX - 3), "--p-max", "2"),
            ("--m-max", str(ORDER_MAX - 1), "--p-max", "2", "--order", "10"),
            ("--m-max", "5", "--order", str(ORDER_MAX + 1)),
        )
        for argv in refused:
            code, out, err = run_cli(capsys, "verify", "--random", *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("OrderTooLarge") and f"limited to {ORDER_MAX}" in err
        monkeypatch.setattr(cli, "verify_companions", lambda samples, seed: VerificationReport(None))
        # the same orders, each exactly ORDER_MAX, at an m that M_MAX accepts
        accepted = (
            ("--m-max", str(M_MAX), "--p-max", str(ORDER_MAX - M_MAX - 2)),
            ("--m-max", str(M_MAX - 1), "--p-max", str(ORDER_MAX - M_MAX - 1)),
            ("--m-max", str(M_MAX), "--p-max", str(ORDER_MAX - M_MAX), "--order", "10"),
            ("--m-max", "5", "--order", str(ORDER_MAX)),
        )
        for argv in accepted:
            with pytest.raises(Drawn):
                run_cli(capsys, "verify", "--random", *argv)

    def test_generator_count_refused_before_any_draw_or_series(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a semigroup was drawn, or a check or series ran")

        for name in ("random_semigroup", "verify_companions", "verify_semigroup"):
            monkeypatch.setattr(cli, name, never)
        message = f"TooManyGenerators: the number of generators is limited to {M_MAX}, got {M_MAX + 1}\n"
        gens = [str(d) for d in range(2, M_MAX + 3)]
        for argv in (gens, ["--random", "--m-max", str(M_MAX + 1)]):
            code, out, err = run_cli(capsys, "verify", *argv, "--p-max", "0", "--samples", "10000")
            assert (code, out, err) == (2, "", message), argv[:2]
        # hilbert resolves its order through the same owner
        monkeypatch.setattr(cli, "apery_set", never)
        assert run_cli(capsys, "hilbert", *gens, "--p-max", "0") == (2, "", message)
        # M_MAX itself passes the guard and goes on to the draws
        with pytest.raises(AssertionError, match="was drawn"):
            run_cli(capsys, "verify", "--random", "--m-max", str(M_MAX), "--samples", "1")

    def test_least_generator_above_the_bound_refused(self, capsys):
        a = APERY_MAX + 1
        for argv in ((str(a), str(a + 1)), ("4", "5", "6", "--bound", "3")):
            code, out, err = run_cli(capsys, "verify", *argv, "--samples", "1")
            assert (code, out) == (2, "")
            assert err.startswith("AperyTooLarge")
        argv = ("4", "5", "6", "--bound", "4", "--samples", "1")
        assert run_cli(capsys, "verify", *argv)[0] == 0

    def test_costly_generators_refused_before_the_companions(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("the companions ran or a semigroup was verified")

        monkeypatch.setattr(cli, "verify_companions", never)
        monkeypatch.setattr(cli, "verify_semigroup", never)
        order = f"OrderTooLarge: series order is limited to {ORDER_MAX}, got "
        refused = (
            (("3", "5", "--p-max", "600"), order + "604\n"),
            (("1000003", "1000033"), f"AperyTooLarge: least generator 1000003 exceeds bound {APERY_MAX}\n"),
            # both too large: the order is refused first, as invariants() does
            (("1000003", "1000033", "--order", "600"), order + "600\n"),
            (("1000003", "1000033", "--p-max", "-1"), "ValueError: p_max must be nonnegative\n"),
        )
        for argv, message in refused:
            code, out, err = run_cli(capsys, "verify", *argv, "--samples", "10000")
            assert (code, out, err) == (2, "", message), argv

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--m-max", "0"), _EMPTY_RANGE.format(0, 30)),
            (("--d-max", "0"), _EMPTY_RANGE.format(4, 0)),
            # the least generators of all five draws are read before any is verified
            (
                ("--d-max", "3000000", "--count", "5"),
                f"AperyTooLarge: least generator 1272186 exceeds bound {APERY_MAX}\n",
            ),
        ],
        ids=["m-max-0", "d-max-0", "d-max-3000000"],
    )
    def test_random_refusals_come_before_the_companions(self, capsys, monkeypatch, argv, message):
        def never(*args):
            raise AssertionError("the companions ran or a semigroup was verified")

        monkeypatch.setattr(cli, "verify_companions", never)
        monkeypatch.setattr(cli, "verify_semigroup", never)
        code, out, err = run_cli(capsys, "verify", "--random", *argv, "--samples", "10000")
        assert (code, out, err) == (2, "", message)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    def test_verify_past_the_digit_limit_passes(self, capsys):
        # the library raises DigitLimitExceeded here (tests/test_verify.py);
        # the CLI lifts the limit for its run and restores the caller's
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
        try:
            argv = ("verify", "2", str(10**700 + 1), "--p-max", "4", "--samples", "1")
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            assert out.endswith("overall: pass\n")
            assert sys.get_int_max_str_digits() == 4321
        finally:
            sys.set_int_max_str_digits(limit)

    def test_order_warning(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "5", "6", "8", "9", "--order", "5", "--samples", "1")
        assert code == 0
        assert "warning: order raised from 5 to 12" in out

    def test_random_sweep_deterministic(self, capsys):
        args = ("verify", "--random", "--seed", "7", "--count", "5", "--samples", "2")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "3", "5", "--format", "json", "--samples", "1"
        )
        text = out.rstrip("\n")
        assert json.dumps(json.loads(text), indent=2) == text

    @pytest.mark.parametrize(
        "argv",
        [a for a in sorted(DIGESTS) if a[0] == "verify"]
        + [("verify", "--random", "--m-max", "6", "--d-max", "40", "--count", "12", "--seed", "5")],
        ids=" ".join,
    )
    def test_json_renderer_writes_what_json_dumps_writes(self, argv):
        args = cli.build_parser().parse_args(list(argv))
        doc = {"schema": cli.SCHEMA_VERSION, "command": "verify", **cli.cmd_verify(args)}
        laid_out = dict(doc, reports=[report_dict(r) for r in doc["reports"]])
        assert cli.render_json(doc) == json.dumps(laid_out, indent=2)

    def test_json_renderer_on_unusual_records(self):
        reports = unusual_reports()
        doc = {"command": "verify", "reports": reports, "passed": False}
        laid_out = dict(doc, reports=[report_dict(r) for r in reports])
        assert cli.render_json(doc) == json.dumps(laid_out, indent=2)

    @pytest.mark.parametrize("fmt", ["table", "tsv"])
    def test_unusual_records_through_the_cli(self, capsys, monkeypatch, fmt):
        # unusual_reports() stand in for the reports of the three drawn semigroups
        drawn = iter(unusual_reports())
        monkeypatch.setattr(cli, "verify_semigroup", lambda S, *args: next(drawn))
        monkeypatch.setattr(
            cli, "verify_companions", lambda samples, seed: VerificationReport(None, [PASSED], [])
        )
        argv = ("verify", "--random", "--count", "3", "--samples", "2", "--seed", "4", "--format", fmt)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "")
        assert out == UNUSUAL_OUTPUT[fmt]

    @pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
    def test_changed_numerator_prints_the_fail_records(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(verify, "hilbert_numerator", lambda S, apery: bumped_numerator(H))
        argv = ("verify", "5", "6", "8", "9", "--p-max", "2", "--samples", "1", "--format", fmt)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "")
        digest, lines = BUMPED_OUTPUT[fmt]
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert set(lines) <= set(out.splitlines())

    def test_tsv_shape(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "2", "3", "--format", "tsv", "--samples", "1")
        lines = out.splitlines()
        assert lines[0] == "semigroup\tidentity\tparameter\tstatus\tlhs\trhs\tnote"
        assert all(line.count("\t") == 6 for line in lines[1:])


def _bump_c5(sums):
    def bumped(h, r_max):
        c = sums(h, r_max)
        c[5] += 1
        return c

    return bumped


def _change_456_numerator(numerator):
    """hilbert_numerator with the z^10 coefficient of Q for (4, 5, 6) changed
    from -1 to 0; the other examples keep theirs."""

    def changed(S, apery):
        h = numerator(S, apery)
        if S.generators != (4, 5, 6):
            return h
        terms = dict(h.numerator.items())
        terms[10] += 1
        return replace(h, numerator=IntPolynomial.from_terms(sorted(terms.items())))

    return changed


# A route of `examples` tampered with: the cli name replaced, a wrapper of the
# original, and the mismatch it must name; with the SHA-256 of the full
# stdout, recorded while each example still compared its K_p as well.
TAMPERED_EXAMPLES = {
    "C[5] + 1": ("alternating_syzygy_sums", _bump_c5, "3 5: C[5]"),
    "(4, 5, 6) numerator": ("hilbert_numerator", _change_456_numerator, "4 5 6: numerator"),
}
TAMPERED_EXAMPLE_DIGESTS = {
    ("C[5] + 1", "table"): "35da3b5427acbcba3559babc8b5d87534f83a01c63dd38832d6ca0d0615b54ca",
    ("C[5] + 1", "tsv"): "b6702e92b265cd87f6f263fd3da5eb4de9f38a8773396f285f84f42ca9aa7da1",
    ("C[5] + 1", "json"): "d7edb0f715acc90677f718e6edb44948ed06d29792ce0cfe0c904f2c67e61891",
    ("(4, 5, 6) numerator", "table"): "e8819df4f05e236df05359d954dfb8e8f27162d4ee261bff1b4501cdd132202c",
    ("(4, 5, 6) numerator", "tsv"): "1dbebb6906021fb594cfbfca530cb46f6b0de72e5735214b454acd635e096b53",
    ("(4, 5, 6) numerator", "json"): "d2a89e3aac26ab49c22799e232006229104e8f330a3a5b5abc359217f2c816f7",
}


class TestExamples:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "examples")
        assert code == 0
        assert out.count("result: pass") == 3

    def test_json_fields(self, capsys):
        _, out, _ = run_cli(capsys, "examples", "--format", "json")
        doc = json.loads(out)
        assert len(doc["examples"]) == 3
        for entry in doc["examples"]:
            assert set(entry) >= {"generators", "gaps", "numerator", "C", "K"}
        assert doc["examples"][0]["numerator"] == "0:1 15:-1"

    def test_golden_mismatch_names_field(self, capsys, monkeypatch):
        tampered = list(cli.GOLDEN_EXAMPLES)
        gens, gaps, q = tampered[0]
        tampered[0] = (gens, (1, 2, 4, 8), q)
        monkeypatch.setattr(cli, "GOLDEN_EXAMPLES", tuple(tampered))
        code, out, _ = run_cli(capsys, "examples")
        assert code == 1
        assert "mismatch: 3 5: gaps" in out

    @pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
    @pytest.mark.parametrize("case", sorted(TAMPERED_EXAMPLES))
    def test_tampered_route_names_the_first_mismatch(self, capsys, monkeypatch, case, fmt):
        name, tamper, mismatch = TAMPERED_EXAMPLES[case]
        monkeypatch.setattr(cli, name, tamper(getattr(cli, name)))
        code, out, err = run_cli(capsys, "examples", "--format", fmt)
        assert (code, err) == (1, "")
        assert hashlib.sha256(out.encode()).hexdigest() == TAMPERED_EXAMPLE_DIGESTS[case, fmt]
        if fmt == "json":
            assert json.loads(out)["mismatch"] == mismatch
        elif fmt == "table":
            assert f"mismatch: {mismatch}" in out.splitlines()
        else:  # the TSV names no mismatch: every row of that example says FAIL
            where = mismatch.split(":")[0]
            rows = [line for line in out.splitlines() if line.startswith(where + "\t")]
            assert rows and all(row.endswith("\tFAIL") for row in rows)


def _bump_verify_numerator(monkeypatch):
    monkeypatch.setattr(verify, "hilbert_numerator", lambda S, apery: bumped_numerator(H))


def _bump_examples_c5(monkeypatch):
    monkeypatch.setattr(cli, "alternating_syzygy_sums", _bump_c5(cli.alternating_syzygy_sums))


VERIFY_5689 = ("verify", "5", "6", "8", "9", "--p-max", "2", "--samples", "1")


# One passing run of each subcommand, and the failing fixtures of verify and
# examples: (argv, the tamper that makes the run fail or None).
ENVELOPE_RUNS = [
    (("invariants", "3", "5"), None),
    (("hilbert", "4", "5", "6"), None),
    (("tn", "3", "--at", "1/2,3"), None),
    (VERIFY_5689, None),
    (("examples",), None),
    (VERIFY_5689, _bump_verify_numerator),
    (("examples",), _bump_examples_c5),
]


@pytest.mark.parametrize(
    "argv, tamper",
    ENVELOPE_RUNS,
    ids=[" ".join(argv) + (f" {tamper.__name__}" if tamper else "") for argv, tamper in ENVELOPE_RUNS],
)
def test_main_adds_the_envelope_and_exits_1_exactly_when_not_passed(
    capsys, monkeypatch, argv, tamper
):
    if tamper is not None:
        tamper(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert list(doc.items())[:2] == [("schema", 1), ("command", argv[0])]
    assert err == ""
    assert code == (1 if doc.get("passed") is False else 0)
    assert code == (tamper is not None)


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "invariants", "3", "5", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["gaps"] == [1, 2, 4, 7]

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "invariants", "3", "5", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("OSError: ") and "missing" in err
        assert not target.parent.exists()

    def test_empty_out_path(self, capsys):
        # an empty path fails to open like any other, and does not mean stdout
        code, out, err = run_cli(capsys, "tn", "2", "--out", "")
        assert (code, out) == (2, "")
        assert err.startswith("OSError: ") and err.count("\n") == 1

    def test_closed_stdout_pipe(self):
        # tn 40 prints 868 kB, more than a pipe buffer holds; the reader
        # closes the pipe after 100 bytes, and the write fails as an
        # unwritable --out does: exit 2, one line on stderr, no traceback
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "felcheck", "tn", "40"]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert head.startswith(b"T_0 = 1\nT_1 = s1/2\n")
        assert err.startswith("OSError: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_closed_pipe_that_stderr_shares(self):
        # as `felcheck tn 40 2>&1 | head -1`: the OSError line goes to the
        # closed pipe too; that write fails quietly and the exit stays 2
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "felcheck", "tn", "40"]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
        head = proc.stdout.read(100)
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
        assert head.startswith(b"T_0 = 1\nT_1 = s1/2\n")

    def test_refusal_with_a_closed_stderr_pipe(self, monkeypatch):
        # the ValueError path writes only to stderr; a closed pipe there
        # loses the message, and the refusal still exits 2
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stream:
            monkeypatch.setattr(sys, "stderr", stream)
            assert cli.main(["tn", "2", "--at", "1_000,3"]) == 2
            monkeypatch.undo()

    def test_closed_stdout_pipe_closes_its_devnull_descriptor(self, capsys, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)
        real_open = os.open
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        with open(write_end, "w", encoding="utf-8") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            monkeypatch.setattr(os, "open", recording_open)
            code = cli.main(["tn", "3"])
            monkeypatch.undo()
            assert code == 2
            assert len(opened) == 1
            with pytest.raises(OSError):
                os.fstat(opened[0])
        assert capsys.readouterr().err.startswith("OSError: ")


def outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of parse(argv); argparse's own exits included."""
    try:
        code = parse(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            *([command, "--help"] for command in cli.COMMANDS),
            ["verify", "3", "5", "--p-max", "x"],
            ["nosuch"],
        ],
        ids=" ".join,
    )
    def test_help_and_usage_errors_match_a_fresh_parser(self, capsys, monkeypatch, argv):
        # help wraps at the terminal width and its text changes across
        # Python versions: compare with a parser built afresh, not with bytes
        monkeypatch.setenv("COLUMNS", "80")
        fresh = outcome(capsys, cli.build_parser.__wrapped__().parse_args, argv)
        assert fresh[0] in (0, 2) and fresh[1] + fresh[2]
        assert outcome(capsys, cli.build_parser().parse_args, argv) == fresh
        assert outcome(capsys, cli.main, argv) == fresh
        assert outcome(capsys, cli.main, argv) == fresh

    def test_calls_do_not_leak_into_each_other(self, capsys):
        argvs = [
            ["verify", "--random", "--count", "2", "--samples", "1"],
            # --random set the sweep defaults on its namespace, not on the parser
            ["verify", "3", "5", "--m-max", "4"],
            ["verify", "4", "5", "6", "--p-max", "2", "--samples", "1", "--format", "tsv"],
            ["verify", "3", "5", "--p-max", "x"],
            ["invariants", "3", "5", "--format", "json"],
            ["hilbert", "4", "5", "6", "--bound", "3"],
            ["tn", "4", "--at", "1/2,3"],
            ["tn", "3"],
            ["examples", "--format", "tsv"],
            ["verify", "--help"],
        ]
        forward = [outcome(capsys, cli.main, argv) for argv in argvs]
        backward = [outcome(capsys, cli.main, argv) for argv in reversed(argvs)]
        assert forward == backward[::-1]
        assert forward[1][0] == 2 and "--m-max applies only with --random" in forward[1][2]
        assert [code for code, _, _ in forward] == [0, 2, 0, 2, 0, 2, 0, 0, 0, 0]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestRejectedArguments:
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    def test_generator_past_the_digit_limit_is_refused(self, capsys):
        # argv is parsed under the caller's int/str limit, before main lifts
        # it for the run: the only bound on a generator's length
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(SystemExit) as exit_:
                cli.main(["verify", "2", "1" * 4400, "--p-max", "1", "--samples", "1"])
            assert exit_.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "invalid int value" in err
        finally:
            sys.set_int_max_str_digits(limit)

    def test_zero_denominator_in_at(self, capsys):
        code, out, err = run_cli(capsys, "tn", "3", "--at", "1/0")
        assert code == 2
        assert out == ""
        assert err.startswith("ZeroDenominator") and "'1/0'" in err

    def test_underscore_or_inner_space_in_at(self, capsys):
        # CPython 3.10 refuses both, 3.11 reads "1_000" and 3.12 reads "1 / 2"
        for at, entry in (("1_000,3", "'1_000'"), ("1 / 2", "'1 / 2'"), ("1e1_0", "'1e1_0'")):
            code, out, err = run_cli(capsys, "tn", "2", "--at", at)
            assert code == 2
            assert out == ""
            assert err.startswith("ValueError") and entry in err

    def test_negative_n_max_for_tn(self, capsys):
        code, out, err = run_cli(capsys, "tn", "-1")
        assert code == 2
        assert out == ""
        assert err == "ValueError: n_max must be nonnegative\n"

    def test_exponent_that_is_not_an_integer_in_at(self, capsys):
        # "1ex" reads as mantissa 1 and exponent "x": the length check keeps
        # the text's own length, and Fraction refuses the entry
        code, out, err = run_cli(capsys, "tn", "2", "--at", "1ex")
        assert code == 2
        assert out == ""
        assert err.startswith("ValueError") and "'1ex'" in err

    def test_negative_p_max_for_hilbert(self, capsys):
        code, out, err = run_cli(capsys, "hilbert", "3", "5", "--p-max", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("ValueError") and "p_max" in err

    def test_negative_p_max_for_invariants_names_p_max(self, capsys):
        code, out, err = run_cli(capsys, "invariants", "3", "5", "--p-max", "-1")
        assert code == 2
        assert out == ""
        assert "p_max" in err and "K must" not in err
