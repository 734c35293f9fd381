"""What the benchmark (perfbench/) reads of the library.

perfbench/spans.py re-issues the exact-layer kernels in probe_exact, and its
Tracer swaps IntPolynomial.__mul__; perfbench/test_perfbench.py builds its
gap table from felcheck.compute_gaps. A library change that drops one of
these would otherwise show only in a traced benchmark run. spans.py is loaded
from its path, read-only. When the benchmark stops reading a name, the test
here changes with it.
"""

import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest

import felcheck
import felcheck.cli
from felcheck.exact import IntPolynomial

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # run_path compiles the file without writing bytecode next to it
    return SimpleNamespace(**runpy.run_path(str(SPANS)))


def test_probe_exact_runs_every_kernel(spans):
    times = spans.probe_exact((4, 5, 6), [1, 2, 3, 7], 2, 7)
    assert set(times) == {
        "exact.poly_mul_s",
        "exact.poly_exact_div_s",
        "exact.poly_at_exp_s",
        "exact.series_mul_s",
        "exact.series_div_s",
    }
    assert all(t >= 0 for t in times.values())


def test_tracer_restores_the_polynomial_product(spans):
    mul, verify = IntPolynomial.__mul__, felcheck.cli.COMMANDS["verify"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert IntPolynomial.__mul__ is not mul
    finally:
        tracer.uninstall()
    assert IntPolynomial.__mul__ is mul
    assert felcheck.cli.COMMANDS["verify"] is verify


def test_compute_gaps_feeds_the_gap_table():
    gaps = felcheck.compute_gaps(felcheck.make_semigroup((4, 5, 6)))
    assert (gaps.genus, gaps.frobenius) == (4, 7)
    assert list(gaps.gaps) == [1, 2, 3, 7]
