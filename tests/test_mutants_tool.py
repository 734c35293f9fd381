"""tools/mutants.py keeps working as the library changes: it enumerates the
same mutants on every call, over all five modules, and each one it writes is
valid Python that differs from its file in exactly one line. Nothing here
starts a process; the CI step "Mutation sampler" runs a two-mutant sample."""

import random
import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def mutants():
    # run_path compiles the file without writing bytecode next to it
    return SimpleNamespace(**runpy.run_path(str(ROOT / "tools" / "mutants.py")))


def test_enumeration_is_fixed_and_covers_every_module(mutants):
    found = mutants.enumerate_mutants(SRC)
    assert found and found == mutants.enumerate_mutants(SRC)
    assert {m["module"] for m in found} == set(mutants.MODULES)


def test_each_mutant_changes_exactly_one_line(mutants):
    found = mutants.enumerate_mutants(SRC)
    for mutant in random.Random(1).sample(found, 20):
        original = (SRC / "felcheck" / f"{mutant['module']}.py").read_bytes().split(b"\n")
        changed = mutants.mutated_source(SRC, mutant).split(b"\n")  # parses, or raises
        assert len(changed) == len(original)
        assert [i + 1 for i, (a, b) in enumerate(zip(original, changed)) if a != b] == [mutant["line"]]
