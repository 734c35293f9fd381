"""Self-tests of the benchmark: oracle, input streams, tracer, metric names.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import felcheck  # noqa: E402
import felcheck.cli  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

STREAMS = {
    "sweep-small": (inputs.sweep_small, 3000),
    "verify-large": (inputs.verify_large, 40),
    "verify-deep": (inputs.verify_deep, 60),
}


def cli_text(argv):
    op, _ = run._cli_verify(int(argv[argv.index("--p-max") + 1]))
    code, text = op(tuple(int(a) for a in argv[1 : argv.index("--p-max")]))
    return code, text


# --- oracle ----------------------------------------------------------------


@pytest.mark.parametrize("gens", [(3, 5), (4, 5, 6), (5, 6, 8, 9), (23, 40, 46, 58), (211, 223, 227)])
def test_table_matches_felcheck_gaps(gens):
    gaps = felcheck.compute_gaps(felcheck.make_semigroup(gens))
    assert oracle.genus_and_frobenius(gens) == (gaps.genus, gaps.frobenius)
    assert oracle.gap_list(gens) == list(gaps.gaps)


def _verify_doc(gens=(5, 6, 8, 9), p_max=2):
    code, text = cli_text(["verify", *map(str, gens), "--p-max", str(p_max)])
    assert oracle.check_verify_output(gens, p_max, code, text)[0] == []
    return json.loads(text)


def _problems(doc, gens=(5, 6, 8, 9), p_max=2, code=0):
    return oracle.check_verify_output(gens, p_max, code, json.dumps(doc))[0]


def test_oracle_flags_wrong_low_order_value():
    doc = _verify_doc()
    for check in doc["reports"][0]["checks"]:
        if check["identity"] == "LOW_ORDER_K" and check["parameter"] == 0:
            check["lhs"] = check["rhs"] = "1/2"
    assert any("LOW_ORDER_K" in p for p in _problems(doc))


def test_oracle_flags_dropped_check():
    doc = _verify_doc()
    checks = doc["reports"][0]["checks"]
    checks.remove(next(c for c in checks if c["identity"] == "FEL_MAIN"))
    assert any("check counts" in p for p in _problems(doc))


def test_oracle_flags_failed_check_and_report():
    doc = _verify_doc()
    doc["reports"][1]["checks"][0]["status"] = "fail"
    assert _problems(doc)
    doc = _verify_doc()
    doc["passed"] = False
    assert "report not passed" in _problems(doc)


def test_oracle_flags_missing_skip():
    doc = _verify_doc()
    checks = doc["reports"][0]["checks"]
    skip = next(c for c in checks if c["status"] == "skip")
    skip["status"] = "pass"
    assert any("skipped" in p for p in _problems(doc))


def test_oracle_flags_exit_code_and_garbage():
    doc = _verify_doc()
    assert _problems(doc, code=1)
    assert oracle.check_verify_output((5, 6, 8, 9), 2, 0, "not json")[0]


def test_oracle_flags_corrupted_report():
    gens = (4, 5, 6)
    report = felcheck.verify_semigroup(felcheck.make_semigroup(gens), p_max=8)
    assert oracle.check_report(gens, 8, report)[0] == []
    i = next(i for i, c in enumerate(report.checks) if c.identity == "LOW_ORDER_K")
    report.checks[i] = dataclasses.replace(report.checks[i], lhs="0", rhs="0")
    assert oracle.check_report(gens, 8, report)[0]
    del report.checks[-1]
    assert any("check counts" in p for p in oracle.check_report(gens, 8, report)[0])


# --- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    stream, n = STREAMS[name]
    first = list(islice(stream(7), n))
    assert first == list(islice(stream(7), n))
    assert first != list(islice(stream(8), n))


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_no_input_repeats_within_a_run(name):
    stream, n = STREAMS[name]
    items = list(islice(stream(3), n))
    assert len(items) == n
    assert len(set(items)) == n


def test_sweep_mix_holds_well_past_the_longest_run():
    """sweep-small's m follows SWEEP_SIZES for 15,000 ops, over three times
    the ops of the longest baseline run."""
    sizes = inputs.SWEEP_SIZES
    for seed in (1, 2):
        got = [len(g) for g in islice(inputs.sweep_small(seed), 15_000)]
        assert len(got) == 15_000
        assert any(all(sizes[(k + i) % len(sizes)] == m for i, m in enumerate(got)) for k in range(len(sizes)))


def test_verify_large_inputs_stay_in_band():
    lo, hi = inputs.LARGE_PAIRS
    for gens in islice(inputs.verify_large(1), 30):
        assert 150 <= gens[0] and gens[-1] <= 320 and len(gens) == 3
        assert lo / 2 <= inputs.schoolbook_pairs(gens) <= hi * 2


# --- tracer ----------------------------------------------------------------


def test_tracer_restores_originals_and_keeps_output():
    import felcheck.verify

    before = felcheck.verify.k_invariant, felcheck.cli.COMMANDS["verify"], felcheck.exact.IntPolynomial.__mul__
    argv = ["verify", "4", "5", "6", "--p-max", "3"]
    plain = cli_text(argv)
    tracer = spans.Tracer()
    tracer.install()
    first = tracer.begin_op(0)
    try:
        traced = cli_text(argv)
    finally:
        tracer.close(first)
        tracer.uninstall()
    after = felcheck.verify.k_invariant, felcheck.cli.COMMANDS["verify"], felcheck.exact.IntPolynomial.__mul__
    assert before == after
    assert traced == plain
    names = {s[1] for s in tracer.spans}
    assert {"cli.main", "cli.cmd_verify", "verify.verify_fel_main", "hilbert.hilbert_numerator"} <= names
    times = spans.op_breakdown(tracer.spans, first)
    assert 0 < times["hilbert.hilbert_numerator_s"] < times["op_s"]
    assert 0 <= times["uncovered_s"] < times["op_s"]
    counts = spans.work_counts(tracer.observed, tracer.products)
    genus, frobenius = oracle.genus_and_frobenius((4, 5, 6))
    assert counts["semigroup.genus"] == genus and counts["semigroup.frobenius"] == frobenius
    assert counts["hilbert.phi_p_pairs_visited"] == genus * (4 + 5 + 6 + 1)
    assert counts["hilbert.q_nonzeros"] == 4


# --- metric names ----------------------------------------------------------


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(spans.PER_LAYER)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == spans.PER_LAYER[m["name"]]
    assert {w["name"] for w in spec["workloads"]} <= set(run.workloads())
    assert [m["name"] for m in spec["end_to_end"]] == ["op_p50_s", "ops_per_s", "setup_s", "peak_rss_mb"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
