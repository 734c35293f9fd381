import json

from felcheck import cli
from felcheck.universal import SYMBOLIC_N_MAX


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

    def test_bad_point(self, capsys):
        code, _, err = run_cli(capsys, "tn", "2", "--at", "3,x")
        assert code == 2
        assert "ValueError" in err

    def test_symbolic_limit_refused_up_front(self, capsys, monkeypatch):
        def never(n):
            raise AssertionError(f"t_symbolic({n}) ran")

        monkeypatch.setattr(cli, "t_symbolic", never)
        code, out, err = run_cli(capsys, "tn", str(SYMBOLIC_N_MAX + 1))
        assert code == 2
        assert out == ""
        assert err.startswith("SymbolicOrderTooLarge")
        assert f"n <= {SYMBOLIC_N_MAX}" in err

    def test_evaluated_past_symbolic_limit(self, capsys):
        n = SYMBOLIC_N_MAX + 10
        code, out, _ = run_cli(capsys, "tn", str(n), "--at", "1")
        assert code == 0
        assert out.splitlines()[-1] == f"T_{n} = 1/{n + 1}"


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

    def test_tsv_shape(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "2", "3", "--format", "tsv", "--samples", "1")
        lines = out.splitlines()
        assert lines[0] == "semigroup\tidentity\tparameter\tstatus\tlhs\trhs\tnote"
        assert all(line.count("\t") == 6 for line in lines[1:])


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
        gens, gaps, q, powers = tampered[0]
        tampered[0] = (gens, (1, 2, 4, 8), q, powers)
        monkeypatch.setattr(cli, "GOLDEN_EXAMPLES", tuple(tampered))
        code, out, _ = run_cli(capsys, "examples")
        assert code == 1
        assert "mismatch: 3 5: gaps" in out


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "invariants", "3", "5", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["gaps"] == [1, 2, 4, 7]

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "invariants", "3", "5", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("OSError: ") and "missing" in err
        assert not target.parent.exists()


class TestRejectedArguments:
    def test_zero_denominator_in_at(self, capsys):
        code, out, err = run_cli(capsys, "tn", "3", "--at", "1/0")
        assert code == 2
        assert out == ""
        assert err.startswith("ZeroDenominator") and "'1/0'" in err

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
