"""Record-level mutation sampler: does `felcheck verify` notice a wrong library?

Usage (from the repository root):

    python3 tools/mutants.py --sample 100 --seed 1

A mutant changes one line of exact, semigroup, hilbert, universal or verify,
in one of two ways: one binary, augmented or comparison operator is swapped
(SWAPS), or an integer literal 0, 1 or 2 gains 1. Only code inside functions
and methods is mutated; module-level constants, type annotations, f-strings
and the lines of a raise statement are left alone. The mutants are listed in
a fixed order (module, line, column, kind), and --sample draws a seeded
sample of them (all of them when --sample is 0).

Each sampled mutant is written into a copy of src in a temporary directory,
never under src/, and COMMANDS run against it one process at a time. Each
run is then compared with the same command on the unmutated copy:

- identical: stdout and exit code are the same for every command;
- fail_record: some command exits 1 with "overall: FAIL", a FAIL record;
- silent: the output changes but every command still exits 0;
- exit_2: some command exits 2, the code for an input error;
- other_exit: anything else, such as a traceback with exit 1 or a timeout.

A mutant takes the first of other_exit, exit_2, fail_record, silent and
identical that any of its commands shows. The result is one JSON line with
the counts and the location of each silent mutant. The script reads no
network and needs nothing beyond the standard library.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("exact", "semigroup", "hilbert", "universal", "verify")
COMMANDS = (
    ("verify", "3", "5", "--p-max", "4", "--samples", "4"),
    ("verify", "4", "5", "6", "--p-max", "4", "--samples", "4"),
    ("verify", "5", "6", "8", "9", "--p-max", "4", "--samples", "4"),
    ("verify", "23", "29", "31", "37", "--p-max", "3", "--samples", "4"),
)
# Each operator token and the one it is swapped for.
SWAPS = {
    "+": "-", "-": "+", "*": "//", "//": "*", "/": "*", "%": "//", "**": "*",
    "<<": ">>", ">>": "<<", "&": "|", "|": "&", "^": "|",
    "+=": "-=", "-=": "+=", "*=": "//=", "//=": "*=", "%=": "//=",
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "is": "is not", "is not": "is", "in": "not in", "not in": "in",
}
OUTCOMES = ("other_exit", "exit_2", "fail_record", "silent", "identical")
TIMEOUT_S = 20
MEMORY_LIMIT = 1 << 30  # address space of each run, in bytes


def _skipped_lines(tree: ast.Module) -> set[int]:
    """Lines of raise statements."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _skipped_nodes(tree: ast.Module) -> set[int]:
    """ids of the nodes inside f-strings and type annotations."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            roots.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
            args = node.args
            roots += [a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            roots += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def _functions(tree: ast.Module):
    """The top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _operator_sites(node):
    """(line, start, end) byte spans, each between two operands on one line,
    that hold one operator token of node."""
    if isinstance(node, ast.BinOp):
        pairs = [(node.left, node.right)]
    elif isinstance(node, ast.AugAssign):
        pairs = [(node.target, node.value)]
    elif isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        pairs = list(zip(operands, operands[1:]))
    else:
        return []
    return [
        (a.end_lineno, a.end_col_offset, b.col_offset)
        for a, b in pairs
        if a.end_lineno == b.lineno
    ]


def enumerate_mutants(src: Path) -> list[dict]:
    """Every single-line mutant of MODULES, in a fixed order."""
    mutants = []
    for module in MODULES:
        path = src / "felcheck" / f"{module}.py"
        lines = path.read_bytes().split(b"\n")
        tree = ast.parse(path.read_bytes())
        raise_lines, skipped = _skipped_lines(tree), _skipped_nodes(tree)
        found = []
        for function in _functions(tree):
            for node in ast.walk(function):
                if id(node) in skipped:
                    continue
                for line, start, end in _operator_sites(node):
                    text = lines[line - 1][start:end].decode()
                    token = text.strip(" ()")
                    if line in raise_lines or token not in SWAPS:
                        continue
                    at = start + text.index(token)
                    found.append((line, at, at + len(token), token, SWAPS[token]))
                if (
                    isinstance(node, ast.Constant)
                    and type(node.value) is int
                    and node.value in (0, 1, 2)
                    and node.lineno == node.end_lineno
                    and node.lineno not in raise_lines
                ):
                    text = lines[node.lineno - 1][node.col_offset : node.end_col_offset].decode()
                    if text == str(node.value):
                        found.append((node.lineno, node.col_offset, node.end_col_offset, text, str(node.value + 1)))
        for line, start, end, old, new in sorted(set(found)):
            mutants.append({"module": module, "line": line, "col": start, "end": end, "old": old, "new": new})
    return mutants


def mutated_source(src: Path, mutant: dict) -> bytes:
    path = src / "felcheck" / f"{mutant['module']}.py"
    lines = path.read_bytes().split(b"\n")
    row = lines[mutant["line"] - 1]
    lines[mutant["line"] - 1] = row[: mutant["col"]] + mutant["new"].encode() + row[mutant["end"] :]
    out = b"\n".join(lines)
    ast.parse(out)  # every mutant stays valid Python
    return out


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_commands(src: Path) -> list[tuple[int | None, bytes]]:
    """(exit code, stdout) of each command against the package in src;
    the exit code is None after a timeout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    results = []
    for argv in COMMANDS:
        try:
            done = subprocess.run(
                [sys.executable, "-m", "felcheck", *argv],
                capture_output=True,
                env=env,
                cwd=src.parent,
                timeout=TIMEOUT_S,
                preexec_fn=_limit_memory,
            )
            results.append((done.returncode, done.stdout))
        except subprocess.TimeoutExpired:
            results.append((None, b""))
    return results


def classify(results, baseline) -> str:
    """The outcome of one mutant from its commands' results."""
    seen = set()
    for (code, out), (_, base_out) in zip(results, baseline):
        if code == 2:
            seen.add("exit_2")
        elif code == 1 and b"overall: FAIL" in out:
            seen.add("fail_record")
        elif code != 0:
            seen.add("other_exit")
        elif out != base_out:
            seen.add("silent")
        else:
            seen.add("identical")
    return next(outcome for outcome in OUTCOMES if outcome in seen)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample", type=int, default=100, help="mutants to draw, 0 for all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="felcheck-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        baseline = run_commands(src)
        if any(code != 0 for code, _ in baseline):
            print("the unmutated package does not pass every command", file=sys.stderr)
            return 1
        mutants = enumerate_mutants(src)
        chosen = range(len(mutants))
        if 0 < args.sample < len(mutants):
            chosen = sorted(random.Random(args.seed).sample(chosen, args.sample))
        counts = dict.fromkeys(OUTCOMES, 0)
        silent = []
        for index in chosen:
            mutant = mutants[index]
            path = src / "felcheck" / f"{mutant['module']}.py"
            original = path.read_bytes()
            try:
                path.write_bytes(mutated_source(src, mutant))
                outcome = classify(run_commands(src), baseline)
            finally:
                path.write_bytes(original)
            counts[outcome] += 1
            if outcome == "silent":
                silent.append(f"{mutant['module']}.py:{mutant['line']}: {mutant['old']} -> {mutant['new']}")
    summary = {"mutants": len(mutants), "sampled": len(chosen), "seed": args.seed, **counts}
    print(json.dumps({**summary, "silent_locations": silent}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
