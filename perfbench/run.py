"""felcheck benchmark: run one workload with one seed and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 20 --trace 0

Load shape: one process, a closed loop with one client; each op starts after
the previous one returns. Inputs come from the seed (inputs.py) and no input
repeats within a run. Every op's output is checked by oracle.py outside the
timed region.

--trace 0 prints the end-to-end metrics: op_p50_s, ops_per_s, setup_s and
peak_rss_mb, plus op_p90_s (where a run has at least 100 ops) and fail_ratio
on the lines above the result. Its times are scaled to a reference speed of
the machine (PROBE_REF_S below); the raw ones are printed too. --trace 1 replays the first PREFIX ops of the
same stream twice each, plain and traced (spans.py), and prints the
per-layer metrics. Both print the SHA-256 of the outputs of those first
PREFIX ops. The last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable

import inputs
import oracle
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# setup_s is the fastest of SETUP_TRIALS children, one before the first op
# and the rest spread evenly over the op time, scaled like the op times
# (below). The median of a burst of 7 trials before the first op moved
# 25-38% (IQR/median over ten runs) from run to run; this moves 8-18%.
SETUP_TRIALS = 21
P90_MIN_OPS = 100

# The machine's speed drifts by 20-40% over seconds to minutes, and
# felcheck's interpreter-bound ops drift with it. speed_probe(), a fixed loop
# that uses no felcheck code, is timed before the first op and after every
# PROBE_EVERY_S of op time. Each reported time is scaled by PROBE_REF_S over
# the median of the probes within PROBE_SPAN of the last one before it, i.e.
# given in seconds at the speed at which the probe takes PROBE_REF_S. Run
# side by side with a verify op for 200 s, the op's 20-second medians spread
# 16% (IQR/median) and their ratio to the probe's 5%. The raw values are
# printed above the result line.
PROBE_REF_S = 0.025
PROBE_EVERY_S = 0.5
PROBE_SPAN = 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args) -> tuple[int, bytes, float]:
    """Run a Python child to completion: exit code, stdout, wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    return proc.returncode, proc.stdout, time.perf_counter() - t0


# --- workloads ------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload: its input stream, op, output check and sizes.

    op(input) is the timed call; it returns (exit code, payload).
    finish(input, code, payload) runs untimed and returns (output bytes,
    problems, check records). prefix is the number of leading ops every run
    makes: the digest, the work counts and the traced run cover exactly these.
    warmup is what a setup child runs after spawning, before a first op.
    """

    name: str
    inputs: Callable
    op: Callable
    finish: Callable
    prefix: int
    warmup: str
    p_max: int
    cli_output: bool = True


def _sweep_op(gens):
    import felcheck

    return 0, felcheck.verify_semigroup(felcheck.make_semigroup(gens), p_max=8)


def _sweep_finish(gens, code, report):
    problems, records = oracle.check_report(gens, 8, report)
    lines = [" ".join(map(str, gens))]
    lines += ["\t".join(map(str, r)) for r in records]
    return ("\n".join(lines) + "\n").encode(), problems, records


def _verify_argv(gens, p_max):
    return ["verify", *map(str, gens), "--p-max", str(p_max), "--format", "json"]


def _cli_verify(p_max):
    def op(gens):
        import felcheck.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = felcheck.cli.main(_verify_argv(gens, p_max))
        return code, out.getvalue()

    def finish(gens, code, text):
        problems, records = oracle.check_verify_output(gens, p_max, code, text)
        return text.encode(), problems, records

    return op, finish


# The verify ops' first-call caches (Bernoulli, zig-zag and lambda tables,
# t_symbolic for the companions) do not depend on p_max.
_VERIFY_WARMUP = (
    "import contextlib, io\n"
    "import felcheck.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    f"    felcheck.cli.main({_verify_argv((5, 6, 8, 9), 6)!r})\n"
)


def workloads() -> dict[str, Workload]:
    large_op, large_finish = _cli_verify(6)
    deep_op, deep_finish = _cli_verify(64)
    return {
        w.name: w
        for w in (
            Workload(
                "sweep-small",
                inputs.sweep_small,
                _sweep_op,
                _sweep_finish,
                prefix=600,
                warmup="import felcheck\nfelcheck.verify_semigroup(felcheck.make_semigroup((5, 6, 8, 9)), p_max=8)\n",
                p_max=8,
                cli_output=False,
            ),
            Workload(
                "verify-large",
                inputs.verify_large,
                large_op,
                large_finish,
                prefix=14,
                warmup=_VERIFY_WARMUP,
                p_max=6,
            ),
            Workload(
                "verify-deep",
                inputs.verify_deep,
                deep_op,
                deep_finish,
                prefix=16,
                warmup=_VERIFY_WARMUP,
                p_max=64,
            ),
        )
    }


# --- measurement ----------------------------------------------------------


class Digest:
    """SHA-256 over the length-prefixed outputs of the first prefix ops."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def add(self, output: bytes) -> None:
        self.hash.update(len(output).to_bytes(8, "big"))
        self.hash.update(output)

    def hexdigest(self) -> str:
        return self.hash.hexdigest()


def run_op(wl: Workload, item):
    """Time one op. An op that raises returns code None and the traceback."""
    t0 = time.perf_counter()
    try:
        code, payload = wl.op(item)
    except Exception:  # a failing op is counted, and the run goes on
        return None, traceback.format_exc(), time.perf_counter() - t0
    return code, payload, time.perf_counter() - t0


def finish_op(wl: Workload, item, code, payload):
    if code is None:
        return b"", [f"raised:\n{payload}"], []
    return wl.finish(item, code, payload)


def report_problems(i, item, problems) -> None:
    for problem in problems[:3]:
        print(f"op {i} {item}: {problem}", file=sys.stderr)


def speed_probe() -> float:
    """Wall time of a fixed interpreter-bound loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - t0


def setup_trial(wl: Workload) -> float:
    """Wall time of one fresh child that spawns Python, imports felcheck and
    runs the warm-up."""
    code, _, wall = spawn(["-c", wl.warmup])
    if code != 0:
        raise RuntimeError(f"setup child exited with {code}")
    return wall


def median_import() -> float:
    """Median time of `import felcheck.cli` measured inside fresh children."""
    probe = "import time\nt = time.perf_counter()\nimport felcheck.cli\nprint(time.perf_counter() - t)\n"
    times = []
    for _ in range(SETUP_TRIALS):
        code, out, _ = spawn(["-c", probe])
        if code != 0:
            raise RuntimeError(f"import child exited with {code}")
        times.append(float(out))
    return statistics.median(times)


def timed_run(wl: Workload, seed: int, seconds: float) -> dict:
    """Untraced closed loop: at least prefix ops, then on until the ops
    have taken `seconds` in total."""
    probes = [speed_probe()]
    setups = [(setup_trial(wl), 0)]  # (wall seconds, index of the last probe before it)
    exec(wl.warmup, {})
    latencies, failed, busy = [], 0, 0.0
    digest = Digest()
    for i, item in enumerate(wl.inputs(seed)):
        if i >= wl.prefix and busy >= seconds:
            break
        if len(setups) < SETUP_TRIALS and busy >= len(setups) * seconds / SETUP_TRIALS:
            setups.append((setup_trial(wl), len(probes) - 1))
        if busy >= len(probes) * PROBE_EVERY_S:
            probes.append(speed_probe())
        code, payload, dt = run_op(wl, item)
        latencies.append((dt, len(probes) - 1))
        busy += dt
        output, problems, _ = finish_op(wl, item, code, payload)
        if i < wl.prefix:
            digest.add(output)
        if problems:
            failed += 1
            report_problems(i, item, problems)
    n = len(latencies)
    scale = [PROBE_REF_S / statistics.median(probes[max(0, j - PROBE_SPAN) : j + PROBE_SPAN + 1]) for j in range(len(probes))]
    op_s = [dt * scale[j] for dt, j in latencies]
    metrics = {
        "op_p50_s": (statistics.median(op_s), "s"),
        "ops_per_s": (n / sum(op_s), "1/s"),
        "setup_s": (min(t * scale[j] for t, j in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_p50 = statistics.median(dt for dt, _ in latencies)
    notes = [
        f"samples {n}",
        f"fail_ratio {failed / n} ({failed}/{n})",
        f"speed scale median {statistics.median(scale)} min {min(scale)} max {max(scale)} from {len(probes)} probes",
        f"raw op_p50_s {raw_p50} ops_per_s {n / busy} setup_s {min(t for t, _ in setups)} from {len(setups)} trials",
    ]
    if busy < seconds:
        notes.append(f"the input stream ran out after {n} ops, {busy:.1f} s of {seconds} s")
    if n >= P90_MIN_OPS:
        notes.append(f"op_p90_s {statistics.quantiles(op_s, n=10)[-1]} s (n={n})")
    else:
        notes.append(f"op_p90_s undefined: {n} ops < {P90_MIN_OPS}")
    notes.append(f"digest sha256={digest.hexdigest()} over the first {wl.prefix} ops")
    return {"attempted": n, "failed": failed, "metrics": metrics, "notes": notes}


def traced_op(wl: Workload, tracer, i, item):
    tracer.install()
    t0 = time.perf_counter()
    first = tracer.begin_op(i, t0)
    try:
        code, payload = wl.op(item)
    except Exception:  # counted as a failed op by the caller
        code, payload = None, traceback.format_exc()
    finally:
        tracer.close(first)
        dt = time.perf_counter() - t0
        tracer.uninstall()
    times = spans.op_breakdown(tracer.spans, first)
    counts = spans.work_counts(tracer.observed, tracer.products)
    gaps = [(r.genus, r.frobenius) for name, r in tracer.observed if name == "semigroup.compute_gaps"]
    return code, payload, dt, times, counts, gaps


def traced_run(wl: Workload, seed: int) -> dict:
    """Each of the first prefix ops twice, plain and traced, alternating
    which goes first; per-layer metrics come from the traced runs."""
    exec(wl.warmup, {})
    tracer = spans.Tracer()
    plain_total = traced_total = 0.0
    per_op_times, per_op_counts = [], []
    record_totals = dict.fromkeys(("verify.checks", "verify.checks_failed", "verify.checks_skipped", "verify.record_bytes", "cli.output_bytes"), 0)
    failed = 0
    digest = Digest()
    items = list(islice(wl.inputs(seed), wl.prefix))
    for i, item in enumerate(items):
        if i % 2 == 0:
            plain = run_op(wl, item)
            traced = traced_op(wl, tracer, i, item)
        else:
            traced = traced_op(wl, tracer, i, item)
            plain = run_op(wl, item)
        code, payload, dt = plain
        t_code, t_payload, t_dt, times, counts, gaps = traced
        plain_total += dt
        traced_total += t_dt
        output, problems, records = finish_op(wl, item, code, payload)
        t_output, t_problems, _ = finish_op(wl, item, t_code, t_payload)
        problems += [f"traced: {p}" for p in t_problems]
        if t_output != output:
            problems.append("traced output differs from the plain output")
        if code is not None:
            truth = oracle.genus_and_frobenius(item)
            problems += [f"compute_gaps gave (genus, frobenius) {g}, table gives {truth}" for g in gaps if g != truth]
        digest.add(output)
        if problems:
            failed += 1
            report_problems(i, item, problems)
        times.update(spans.probe_exact(item, oracle.gap_list(item), wl.p_max, len(item) + wl.p_max + 2))
        per_op_times.append(times)
        per_op_counts.append(counts)
        record_totals["verify.checks"] += len(records)
        record_totals["verify.checks_failed"] += sum(1 for r in records if r[2] == "fail")
        record_totals["verify.checks_skipped"] += sum(1 for r in records if r[2] == "skip")
        record_totals["verify.record_bytes"] += sum(len(str(r[3]).encode()) + len(str(r[4]).encode()) for r in records)
        if wl.cli_output:
            record_totals["cli.output_bytes"] += len(output)

    n = len(items)
    values = {}
    for key in {k for t in per_op_times for k in t}:
        values[key] = sum(t.get(key, 0.0) for t in per_op_times) / n
    values["cli.import_s"] = median_import()
    op_total = sum(t["op_s"] for t in per_op_times)
    uncovered = sum(t["uncovered_s"] for t in per_op_times)
    values["trace.uncovered_share"] = uncovered / op_total if op_total else 0.0
    values["trace.overhead_s"] = (traced_total - plain_total) / n
    values["trace.overhead_share"] = (traced_total - plain_total) / plain_total
    values.update(spans.total_counts(per_op_counts))
    values.update(record_totals)
    metrics = {name: (values.get(name, 0), unit) for name, (unit, _) in spans.PER_LAYER.items()}
    write_spans(wl, seed, tracer.spans)
    notes = [
        f"ops {n} (each run plain and traced)",
        f"digest sha256={digest.hexdigest()} over the first {wl.prefix} ops",
    ]
    return {"attempted": n, "failed": failed, "metrics": metrics, "notes": notes}


def write_spans(wl: Workload, seed: int, recorded) -> None:
    """Write the run's spans as JSON lines: op, name, start, end, parent."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for span in recorded:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "felcheck" / "__init__.py").is_file():
        print(f"no felcheck sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    table = workloads()
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    wl = table[args.workload]
    if args.trace:
        result = traced_run(wl, args.seed)
    else:
        result = timed_run(wl, args.seed, args.seconds)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    for note in result["notes"]:
        print(note)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
