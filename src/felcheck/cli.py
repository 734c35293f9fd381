"""Command-line front end with deterministic table, JSON, and TSV output.

Exit codes: 0 success, 1 verification failure, 2 input/validation error or
an output file that cannot be written.
Rational values are always rendered exactly ("num/den", integers without the
"/1"); identical arguments produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .hilbert import hilbert_numerator, k_denominator, syzygy_values
from .semigroup import (
    DEFAULT_BOUND,
    compute_gaps,
    gap_power_sums,
    generator_stats,
    make_semigroup,
)
from .universal import SYMBOLIC_N_MAX, SymbolicOrderTooLarge, t_symbolic, t_value
from .verify import (
    VerificationReport,
    random_semigroup,
    verify_companions,
    verify_semigroup,
)

SCHEMA_VERSION = 1


class ZeroDenominator(ValueError):
    """A rational given on the command line has denominator 0."""


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ZeroDenominator(f"{text!r} has denominator 0") from None

PARAM_LABEL = {
    "FEL_MAIN": "p",
    "EQ_FINAL": "p",
    "THM_KP": "r",
    "LOW_ORDER_K": "p",
    "M2_CLOSED_FORM": "p",
    "LEMMA_SERIES_C": "order",
    "LEMMA_SERIES_PHI": "order",
    "LEMMA_SERIES_P": "order",
    "LEMMA_SERIES_PDIV": "order",
    "LEMMA_ONE_MINUS_Q": "order",
    "FEL1_SIGNFLIP": "n",
    "FEL2_ZIGZAG": "n",
}


# The three embedded reference examples: generators, gap set, sparse numerator,
# and the (base, multiplicity) powers whose signed power sums give the
# alternating syzygy sums. These literals are goldens, independent of the
# polynomial pipeline they are checked against.
GOLDEN_EXAMPLES = (
    ((3, 5), (1, 2, 4, 7), "0:1 15:-1", ((15, 1),)),
    ((4, 5, 6), (1, 2, 3, 7), "0:1 10:-1 12:-1 22:1", ((10, 1), (12, 1), (22, -1))),
    (
        (5, 6, 8, 9),
        (1, 2, 3, 4, 7),
        "0:1 14:-1 15:-1 16:-1 17:-1 18:-2 22:1 23:2 24:1 25:1 26:2 27:1 31:-1 32:-1 35:-1",
        (
            (14, 1),
            (15, 1),
            (16, 1),
            (17, 1),
            (18, 2),
            (22, -1),
            (23, -2),
            (24, -1),
            (25, -1),
            (26, -2),
            (27, -1),
            (31, 1),
            (32, 1),
            (35, 1),
        ),
    ),
)

EXAMPLE_C_MAX = 10
EXAMPLE_P_MAX = 6


def _golden_c(powers, r: int) -> int:
    return sum(mult * base**r for base, mult in powers)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="felcheck",
        description="Exact numerical-semigroup invariants and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--format", choices=("table", "json", "tsv"), default="table")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    inv = sub.add_parser("invariants", help="gap set, Frobenius number, and power sums")
    inv.add_argument("generators", nargs="+", type=int)
    inv.add_argument("--p-max", type=int, default=8)
    inv.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    add_output(inv)

    hil = sub.add_parser("hilbert", help="Hilbert numerator, alternating sums, invariants")
    hil.add_argument("generators", nargs="+", type=int)
    hil.add_argument("--p-max", type=int, default=8)
    hil.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    add_output(hil)

    tn = sub.add_parser("tn", help="universal symmetric polynomials, symbolic or evaluated")
    tn.add_argument("n_max", type=int)
    tn.add_argument("--at", metavar="X1,X2,...", help="evaluate at comma-separated rationals")
    add_output(tn)

    ver = sub.add_parser("verify", help="verify the identities exactly")
    ver.add_argument("generators", nargs="*", type=int)
    ver.add_argument("--p-max", type=int, default=8)
    ver.add_argument("--order", type=int, default=None)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=20)
    ver.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    ver.add_argument("--random", action="store_true", help="sweep random semigroups")
    ver.add_argument("--m-max", type=int, default=4)
    ver.add_argument("--d-max", type=int, default=30)
    ver.add_argument("--count", type=int, default=20)
    add_output(ver)

    ex = sub.add_parser("examples", help="recompute the three reference examples against goldens")
    add_output(ex)
    return parser


def cmd_invariants(args) -> tuple[dict, int]:
    if args.p_max < 0:
        raise ValueError("p_max must be nonnegative")
    S = make_semigroup(args.generators)
    gaps = compute_gaps(S, args.bound)
    stats = generator_stats(S, args.p_max + 1)
    G = gap_power_sums(gaps, args.p_max)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "invariants",
        "generators": list(S.generators),
        "m": S.m,
        "pi": str(S.pi),
        "frobenius": gaps.frobenius,
        "genus": gaps.genus,
        "gaps": list(gaps.gaps),
        "G": [str(v) for v in G],
        "sigma": [str(v) for v in stats.sigma],
        "delta": [str(v) for v in stats.delta],
    }
    return doc, 0


def cmd_hilbert(args) -> tuple[dict, int]:
    S = make_semigroup(args.generators)
    gaps = compute_gaps(S, args.bound)
    h = hilbert_numerator(S, gaps)
    vals = syzygy_values(S, h, args.p_max)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "hilbert",
        "generators": list(S.generators),
        "Q": h.numerator.sparse_str(),
        "C": [str(vals.c[r]) for r in range(S.m + args.p_max + 1)],
        "K": [str(vals.k[p]) for p in range(args.p_max + 1)],
    }
    return doc, 0


def cmd_tn(args) -> tuple[dict, int]:
    if args.n_max < 0:
        raise ValueError("n_max must be nonnegative")
    at = None
    if args.at is not None:
        at = tuple(_parse_rational(tok.strip()) for tok in args.at.split(","))
    elif args.n_max > SYMBOLIC_N_MAX:
        raise SymbolicOrderTooLarge(args.n_max)
    terms = []
    for n in range(args.n_max + 1):
        if at is None:
            terms.append({"n": n, "T": t_symbolic(n).pretty()})
        else:
            terms.append({"n": n, "T": str(t_value(at, n))})
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "tn",
        "n_max": args.n_max,
        "at": [str(c) for c in at] if at is not None else None,
        "terms": terms,
    }
    return doc, 0


def _report_doc(report: VerificationReport) -> dict:
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


def cmd_verify(args) -> tuple[dict, int]:
    reports = []
    if args.random:
        rng = random.Random(args.seed)
        semigroups = [
            random_semigroup(rng, args.m_max, args.d_max) for _ in range(args.count)
        ]
        semigroups.sort(key=lambda S: S.generators)
        for S in semigroups:
            reports.append(verify_semigroup(S, args.p_max, args.order, args.bound))
    elif args.generators:
        S = make_semigroup(args.generators)
        reports.append(verify_semigroup(S, args.p_max, args.order, args.bound))
    else:
        raise ValueError("give generators or use --random")
    reports.append(verify_companions(3, args.samples, args.seed).sort())
    passed = all(r.passed for r in reports)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "p_max": args.p_max,
        "seed": args.seed,
        "samples": args.samples,
        "random": (
            {"m_max": args.m_max, "d_max": args.d_max, "count": args.count}
            if args.random
            else None
        ),
        "reports": [_report_doc(r) for r in reports],
        "passed": passed,
    }
    return doc, 0 if passed else 1


def cmd_examples(args) -> tuple[dict, int]:
    entries = []
    mismatch = None
    for gens, gold_gaps, gold_q, powers in GOLDEN_EXAMPLES:
        S = make_semigroup(gens)
        gaps = compute_gaps(S)
        h = hilbert_numerator(S, gaps)
        vals = syzygy_values(S, h, max(EXAMPLE_P_MAX, EXAMPLE_C_MAX))
        fields = []
        fields.append(("gaps", list(gaps.gaps), list(gold_gaps)))
        fields.append(("numerator", h.numerator.sparse_str(), gold_q))
        for r in range(EXAMPLE_C_MAX + 1):
            fields.append((f"C[{r}]", str(vals.c[r]), str(_golden_c(powers, r))))
        for p in range(EXAMPLE_P_MAX + 1):
            gold_k = Fraction(_golden_c(powers, S.m + p), k_denominator(S, p))
            fields.append((f"K[{p}]", str(vals.k[p]), str(gold_k)))
        ok = True
        for name, actual, expected in fields:
            if actual != expected and ok:
                ok = False
                if mismatch is None:
                    mismatch = f"{' '.join(map(str, gens))}: {name}"
        entries.append(
            {
                "generators": list(gens),
                "gaps": list(gaps.gaps),
                "numerator": h.numerator.sparse_str(),
                "C": [str(vals.c[r]) for r in range(EXAMPLE_C_MAX + 1)],
                "K": [str(vals.k[p]) for p in range(EXAMPLE_P_MAX + 1)],
                "passed": ok,
            }
        )
    passed = all(e["passed"] for e in entries)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "examples",
        "examples": entries,
        "mismatch": mismatch,
        "passed": passed,
    }
    return doc, 0 if passed else 1


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def _check_line(check: dict) -> str:
    label = PARAM_LABEL.get(check["identity"], "k")
    param = check["parameter"]
    head = f"{check['identity']} {label}={param if param is not None else '-'}"
    if check["status"] == "pass":
        line = f"{head} pass {check['lhs']}"
    elif check["status"] == "skip":
        line = f"{head} skip"
    else:
        line = f"{head} FAIL lhs={check['lhs']} rhs={check['rhs']}"
    if check["note"]:
        line += f"  [{check['note']}]"
    return line


def render_table(doc: dict) -> str:
    cmd = doc["command"]
    lines = []
    if cmd == "invariants":
        lines.append("generators: " + " ".join(map(str, doc["generators"])))
        lines.append(f"m: {doc['m']}")
        lines.append(f"pi: {doc['pi']}")
        lines.append(f"frobenius: {doc['frobenius']}")
        lines.append(f"genus: {doc['genus']}")
        lines.append("gaps: " + " ".join(map(str, doc["gaps"])))
        lines.append("G: " + " ".join(doc["G"]))
        lines.append("sigma: " + " ".join(doc["sigma"]))
        lines.append("delta: " + " ".join(doc["delta"]))
    elif cmd == "hilbert":
        lines.append("generators: " + " ".join(map(str, doc["generators"])))
        lines.append("Q: " + doc["Q"])
        lines.append("C: " + " ".join(doc["C"]))
        lines.append("K: " + " ".join(doc["K"]))
    elif cmd == "tn":
        for term in doc["terms"]:
            lines.append(f"T_{term['n']} = {term['T']}")
    elif cmd == "verify":
        for report in doc["reports"]:
            if report["generators"] is None:
                lines.append(f"companions: seed={doc['seed']} samples={doc['samples']}")
            else:
                lines.append("semigroup: " + " ".join(map(str, report["generators"])))
                lines.append(f"order: {report['order']}")
            for warning in report["warnings"]:
                lines.append(f"warning: {warning}")
            for check in report["checks"]:
                lines.append(_check_line(check))
            lines.append("result: " + ("pass" if report["passed"] else "FAIL"))
        lines.append("overall: " + ("pass" if doc["passed"] else "FAIL"))
    elif cmd == "examples":
        for entry in doc["examples"]:
            lines.append("example: " + " ".join(map(str, entry["generators"])))
            lines.append("gaps: " + " ".join(map(str, entry["gaps"])))
            lines.append("numerator: " + entry["numerator"])
            lines.append("C: " + " ".join(entry["C"]))
            lines.append("K: " + " ".join(entry["K"]))
            lines.append("result: " + ("pass" if entry["passed"] else "FAIL"))
        if doc["mismatch"]:
            lines.append("mismatch: " + doc["mismatch"])
        lines.append("overall: " + ("pass" if doc["passed"] else "FAIL"))
    return "\n".join(lines)


def render_tsv(doc: dict) -> str:
    cmd = doc["command"]
    rows = []
    if cmd == "invariants":
        rows.append("key\tvalue")
        rows.append("generators\t" + " ".join(map(str, doc["generators"])))
        for key in ("m", "pi", "frobenius", "genus"):
            rows.append(f"{key}\t{doc[key]}")
        rows.append("gaps\t" + " ".join(map(str, doc["gaps"])))
        rows.append("G\t" + " ".join(doc["G"]))
        rows.append("sigma\t" + " ".join(doc["sigma"]))
        rows.append("delta\t" + " ".join(doc["delta"]))
    elif cmd == "hilbert":
        rows.append("key\tvalue")
        rows.append("generators\t" + " ".join(map(str, doc["generators"])))
        rows.append("Q\t" + doc["Q"])
        rows.append("C\t" + " ".join(doc["C"]))
        rows.append("K\t" + " ".join(doc["K"]))
    elif cmd == "tn":
        rows.append("n\tT")
        for term in doc["terms"]:
            rows.append(f"{term['n']}\t{term['T']}")
    elif cmd == "verify":
        rows.append("semigroup\tidentity\tparameter\tstatus\tlhs\trhs\tnote")
        for report in doc["reports"]:
            where = (
                " ".join(map(str, report["generators"]))
                if report["generators"]
                else "companions"
            )
            for c in report["checks"]:
                param = c["parameter"] if c["parameter"] is not None else "-"
                rows.append(
                    f"{where}\t{c['identity']}\t{param}\t{c['status']}\t{c['lhs']}\t{c['rhs']}\t{c['note']}"
                )
    elif cmd == "examples":
        rows.append("generators\tfield\tvalue\tstatus")
        for entry in doc["examples"]:
            where = " ".join(map(str, entry["generators"]))
            status = "pass" if entry["passed"] else "FAIL"
            rows.append(f"{where}\tgaps\t{' '.join(map(str, entry['gaps']))}\t{status}")
            rows.append(f"{where}\tnumerator\t{entry['numerator']}\t{status}")
            rows.append(f"{where}\tC\t{' '.join(entry['C'])}\t{status}")
            rows.append(f"{where}\tK\t{' '.join(entry['K'])}\t{status}")
    return "\n".join(rows)


RENDERERS = {"table": render_table, "json": render_json, "tsv": render_tsv}

COMMANDS = {
    "invariants": cmd_invariants,
    "hilbert": cmd_hilbert,
    "tn": cmd_tn,
    "verify": cmd_verify,
    "examples": cmd_examples,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = COMMANDS[args.command](args)
    except ValueError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    text = RENDERERS[args.format](doc)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as err:
            print(f"OSError: {err}", file=sys.stderr)
            return 2
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
