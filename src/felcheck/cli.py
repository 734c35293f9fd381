"""Command-line front end with deterministic table, JSON, and TSV output.

Each subcommand's handler, COMMANDS[name], returns a dict of only its own
fields; main makes the document by putting "schema" and "command" before
them. Exit codes: 1 when the document says "passed": false (a
verification failure), 2 for an input/validation error or output that
cannot be written (an output file, or a closed stdout pipe), 0 otherwise.
Rational values are always rendered exactly ("num/den", integers without the
"/1"); identical arguments produce byte-identical output.

The argument parser is built once per process, on the first call of
build_parser(), and every later call, main's included, returns that same
parser: callers must not add arguments to it or change its defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from .exact import power_sums
from .hilbert import alternating_syzygy_sums, hilbert_numerator, k_denominator
from .semigroup import (
    APERY_MAX,
    DEFAULT_BOUND,
    apery_set,
    compute_gaps,
    gap_power_sums,
    least_generator,
    make_semigroup,
)
from .universal import t_symbolic, t_values
from .verify import (
    IDENTITIES,
    _fraction_str,
    check_samples,
    effective_order,
    random_semigroup,
    verify_companions,
    verify_semigroup,
)

SCHEMA_VERSION = 1

# Most semigroups `verify --random` draws: 5,000 at the default ranges take 5 s
# and 185 MB as JSON, 90 MB as a table (2-core VM). This bounds the count, not
# the cost: a larger --d-max costs more per semigroup.
COUNT_MAX = 5_000

# The flags that shape a --random sweep, with their defaults there; without
# --random, giving any of them is an error.
RANDOM_DEFAULTS = {"m_max": 4, "d_max": 30, "count": 20}


# Longest --at entry, in characters, an exponent e<k> counting as k of them.
# The cost grows about linearly with the entry's length: on a 2-core VM,
# `tn 500 --at x` takes 2.3 s for a 10-digit x, 20 s for 50 digits and 38 s
# (116 MB) for 100. Checked on the text, before Fraction expands an exponent:
# Fraction('1e10000000') alone takes 11 s.
AT_ENTRY_MAX = 100


class ZeroDenominator(ValueError):
    """A rational given on the command line has denominator 0."""


class EntryTooLarge(ValueError):
    """An --at entry is longer than AT_ENTRY_MAX, checked on its text."""


def _parse_rational(text: str) -> Fraction:
    # Fraction reads "1_000" from CPython 3.11 on and "1 / 2" from 3.12 on,
    # where 3.10 refuses both: refusing them here gives the same arguments
    # the same result on every supported CPython
    if "_" in text or len(text.split()) > 1:
        raise ValueError(f"invalid --at entry {text!r}: '_' and inner spaces are not accepted")
    mantissa, _, exponent = text.lower().partition("e")
    size = len(text)
    if size <= AT_ENTRY_MAX and exponent:
        try:
            size = len(mantissa) + abs(int(exponent))
        except ValueError:
            pass  # not a number: Fraction refuses the entry below
    if size > AT_ENTRY_MAX:
        raise EntryTooLarge(
            f"an --at entry is limited to {AT_ENTRY_MAX} characters, an exponent e<k> "
            f"counting as k, got {size}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ZeroDenominator(f"{text!r} has denominator 0") from None


# The three embedded reference examples: generators, gap set and sparse
# numerator Q as text. The golden C_r are summed by hand over the e:c terms of
# that text, independent of the polynomial pipeline they are checked against.
GOLDEN_EXAMPLES = (
    ((3, 5), (1, 2, 4, 7), "0:1 15:-1"),
    ((4, 5, 6), (1, 2, 3, 7), "0:1 10:-1 12:-1 22:1"),
    (
        (5, 6, 8, 9),
        (1, 2, 3, 4, 7),
        "0:1 14:-1 15:-1 16:-1 17:-1 18:-2 22:1 23:2 24:1 25:1 26:2 27:1 31:-1 32:-1 35:-1",
    ),
)

# C_0 .. C_EXAMPLE_C_MAX are compared. K_p for p <= EXAMPLE_P_MAX reads only
# C_m .. C_{m+p}, all among them while m + EXAMPLE_P_MAX <= EXAMPLE_C_MAX, so K
# is printed, not compared.
EXAMPLE_C_MAX = 10
EXAMPLE_P_MAX = 6


def _golden_c(numerator: str, r: int) -> int:
    """C_r = [r = 0] - sum of c * e^r over the e:c terms of a numerator's text."""
    terms = (map(int, term.split(":")) for term in numerator.split())
    return (r == 0) - sum(c * e**r for e, c in terms)


# Built once: the 34 add_argument calls, each making an argparse HelpFormatter,
# took about a fifth of a verify-large op (2-core VM, Python 3.11).
@cache
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
    inv.add_argument("--bound", type=int, default=DEFAULT_BOUND, help="largest min * max generator")
    add_output(inv)

    hil = sub.add_parser("hilbert", help="Hilbert numerator, alternating sums, invariants")
    hil.add_argument("generators", nargs="+", type=int)
    hil.add_argument("--p-max", type=int, default=8)
    hil.add_argument("--bound", type=int, default=APERY_MAX, help="largest least generator")
    add_output(hil)

    tn = sub.add_parser("tn", help="universal symmetric polynomials, symbolic or evaluated")
    tn.add_argument("n_max", type=int)
    tn.add_argument(
        "--at",
        metavar="X1,X2,...",
        help="evaluate at comma-separated rationals; write --at=-1,1 when the first is negative",
    )
    add_output(tn)

    ver = sub.add_parser("verify", help="verify the identities exactly")
    ver.add_argument("generators", nargs="*", type=int)
    ver.add_argument("--p-max", type=int, default=8)
    ver.add_argument("--order", type=int, default=None)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=20)
    ver.add_argument("--bound", type=int, default=APERY_MAX, help="largest least generator")
    ver.add_argument("--random", action="store_true", help="sweep random semigroups")
    # unset, these read None: they apply only with --random (RANDOM_DEFAULTS)
    ver.add_argument("--m-max", type=int)
    ver.add_argument("--d-max", type=int)
    ver.add_argument("--count", type=int)
    add_output(ver)

    ex = sub.add_parser("examples", help="recompute the three reference examples against goldens")
    add_output(ex)
    return parser


def cmd_invariants(args) -> dict:
    # G_0 .. G_p_max is a series to order p_max: the same limit as verify
    effective_order(0, args.p_max, args.p_max)
    S = make_semigroup(args.generators)
    gaps = compute_gaps(S, args.bound)
    sigma = power_sums(S.generators, args.p_max + 1)[1:]
    G = gap_power_sums(power_sums(gaps.apery, args.p_max + 1), args.p_max)
    return {
        "generators": list(S.generators),
        "m": S.m,
        "pi": str(S.pi),
        "frobenius": gaps.frobenius,
        "genus": gaps.genus,
        "gaps": list(gaps.gaps),
        "G": [str(v) for v in G],
        "sigma": [str(v) for v in sigma],
        "delta": [_fraction_str(s - 1, 2**k) for k, s in enumerate(sigma, 1)],
    }


def cmd_hilbert(args) -> dict:
    S = make_semigroup(args.generators)
    # C_0 .. C_{m+p_max} is a series to order m + p_max: the same limit as verify
    effective_order(S.m, args.p_max, S.m + args.p_max)
    h = hilbert_numerator(S, apery_set(S, args.bound))
    c = alternating_syzygy_sums(h, S.m + args.p_max)
    return {
        "generators": list(S.generators),
        "Q": str(h.numerator),
        "C": [str(v) for v in c],
        "K": [_fraction_str(c[S.m + p], k_denominator(S, p)) for p in range(args.p_max + 1)],
    }


def cmd_tn(args) -> dict:
    if args.n_max < 0:
        raise ValueError("n_max must be nonnegative")
    at = None
    if args.at is None:
        t_symbolic(args.n_max)  # refuses too large an n_max before building any row
        values = [t_symbolic(n).pretty() for n in range(args.n_max + 1)]
    else:
        at = tuple(_parse_rational(tok.strip()) for tok in args.at.split(","))
        values = [str(v) for v in t_values(at, args.n_max)]
    return {
        "n_max": args.n_max,
        "at": [str(c) for c in at] if at is not None else None,
        "terms": [{"n": n, "T": value} for n, value in enumerate(values)],
    }


def cmd_verify(args) -> dict:
    # read before --random fills in the defaults
    given = [name for name in RANDOM_DEFAULTS if getattr(args, name) is not None]
    if args.random:
        for name, default in RANDOM_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        if args.generators:
            raise ValueError("give generators or --random, not both")
        if args.count < 1:
            raise ValueError(f"--count must be at least 1, got {args.count}")
        if args.count > COUNT_MAX:
            raise ValueError(f"--count is limited to {COUNT_MAX}, got {args.count}")
        m = args.m_max
    elif given:
        raise ValueError(f"--{given[0].replace('_', '-')} applies only with --random")
    elif args.generators:
        semigroups = [make_semigroup(args.generators)]
        m = semigroups[0].m
    else:
        raise ValueError("give generators or use --random")
    # every refusal comes before any check runs: the deepest order a semigroup
    # can need (and a negative p_max), --samples, an empty draw range, then a
    # least generator above --bound
    effective_order(m, args.p_max, args.order)
    check_samples(args.samples)
    if args.random:
        rng = random.Random(args.seed)
        semigroups = [random_semigroup(rng, args.m_max, args.d_max) for _ in range(args.count)]
        semigroups.sort(key=lambda S: S.generators)
    for S in semigroups:
        least_generator(S, args.bound)
    companions = verify_companions(args.samples, args.seed)
    reports = [verify_semigroup(S, args.p_max, args.order, args.bound) for S in semigroups]
    reports.append(companions)
    return {
        "p_max": args.p_max,
        "seed": args.seed,
        "samples": args.samples,
        "random": (
            {"m_max": args.m_max, "d_max": args.d_max, "count": args.count}
            if args.random
            else None
        ),
        "reports": reports,
        "passed": all(r.passed for r in reports),
    }


def cmd_examples(args) -> dict:
    entries = []
    mismatch = None
    for gens, gold_gaps, gold_q in GOLDEN_EXAMPLES:
        S = make_semigroup(gens)
        gaps = compute_gaps(S)
        h = hilbert_numerator(S, gaps.apery)
        q = str(h.numerator)
        c = alternating_syzygy_sums(h, EXAMPLE_C_MAX)
        fields = [("gaps", list(gaps.gaps), list(gold_gaps)), ("numerator", q, gold_q)]
        fields += [(f"C[{r}]", c[r], _golden_c(gold_q, r)) for r in range(EXAMPLE_C_MAX + 1)]
        wrong = next((name for name, actual, expected in fields if actual != expected), None)
        if wrong is not None and mismatch is None:
            mismatch = f"{' '.join(map(str, gens))}: {wrong}"
        entries.append(
            {
                "generators": list(gens),
                "gaps": list(gaps.gaps),
                "numerator": q,
                "C": [str(v) for v in c],
                "K": [_fraction_str(c[S.m + p], k_denominator(S, p)) for p in range(EXAMPLE_P_MAX + 1)],
                "passed": wrong is None,
            }
        )
    return {"examples": entries, "mismatch": mismatch, "passed": mismatch is None}


def render_json(doc: dict) -> str:
    if doc["command"] == "verify":
        return _verify_json(doc)
    return json.dumps(doc, indent=2)


# A verify document as JSON is what json.dumps(indent=2) writes for it with
# each report as an object of generators, order, warnings, checks and passed,
# and each record as one of the fields in _CHECK_JSON. Below: a report's check
# list without its records, and one record at their depth.
_NO_CHECKS = '\n      "checks": [],'
_CHECK_JSON = (
    "        {{\n"
    '          "identity": {},\n'
    '          "parameter": {},\n'
    '          "status": {},\n'
    '          "lhs": {},\n'
    '          "rhs": {},\n'
    '          "note": {}\n'
    "        }}"
)


def _verify_json(doc: dict) -> str:
    """The verify document as JSON, laid out as above.

    The document, each report a shell with an empty check list, goes through
    json.dumps; the records are written from _CHECK_JSON, each string by
    encode_basestring_ascii, the encoder json.dumps uses, and put in place of
    the empty lists. A string holds no raw newline, so _NO_CHECKS is found
    once per report and nowhere else.
    """
    reports = doc["reports"]
    shells = [
        {
            "generators": list(r.generators) if r.generators else None,
            "order": r.order,
            "warnings": r.warnings,
            "checks": [],
            "passed": r.passed,
        }
        for r in reports
    ]
    rests = json.dumps(dict(doc, reports=shells), indent=2).split(_NO_CHECKS)
    out = [rests[0]]
    for report, rest in zip(reports, rests[1:]):
        records = ",\n".join(
            _CHECK_JSON.format(
                encode_basestring_ascii(c.identity),
                "null" if c.parameter is None else c.parameter,
                encode_basestring_ascii(c.status),
                encode_basestring_ascii(c.lhs),
                encode_basestring_ascii(c.rhs),
                encode_basestring_ascii(c.note),
            )
            for c in report.checks
        )
        out.append(f'\n      "checks": [\n{records}\n      ],' if records else _NO_CHECKS)
        out.append(rest)
    return "".join(out)


# The fields that the table prints as "key: value" and the TSV as
# "key<TAB>value", one per line and in this order, for each command whose
# document is a flat record, and for each entry of an examples document.
FIELDS = {
    "invariants": ("generators", "m", "pi", "frobenius", "genus", "gaps", "G", "sigma", "delta"),
    "hilbert": ("generators", "Q", "C", "K"),
}
EXAMPLE_FIELDS = ("gaps", "numerator", "C", "K")


def _field_values(doc: dict, keys) -> list[tuple[str, str]]:
    """(key, text) pairs; a list value prints as its items joined by spaces."""
    return [
        (key, " ".join(map(str, doc[key])) if isinstance(doc[key], list) else str(doc[key]))
        for key in keys
    ]


def _check_line(c) -> str:
    param = c.parameter if c.parameter is not None else "-"
    head = f"{c.identity} {IDENTITIES[c.identity]}={param}"
    if c.status == "pass":
        line = f"{head} pass {c.lhs}"
    elif c.status == "skip":
        line = f"{head} skip"
    else:
        line = f"{head} FAIL lhs={c.lhs} rhs={c.rhs}"
    if c.note:
        line += f"  [{c.note}]"
    return line


def render_table(doc: dict) -> str:
    cmd = doc["command"]
    lines = []
    if cmd in FIELDS:
        lines.extend(f"{key}: {text}" for key, text in _field_values(doc, FIELDS[cmd]))
    elif cmd == "tn":
        for term in doc["terms"]:
            lines.append(f"T_{term['n']} = {term['T']}")
    elif cmd == "verify":
        for report in doc["reports"]:
            if report.generators:
                lines.append("semigroup: " + " ".join(map(str, report.generators)))
                lines.append(f"order: {report.order}")
            else:
                lines.append(f"companions: seed={doc['seed']} samples={doc['samples']}")
            lines.extend(f"warning: {warning}" for warning in report.warnings)
            lines.extend(map(_check_line, report.checks))
            lines.append("result: " + ("pass" if report.passed else "FAIL"))
        lines.append("overall: " + ("pass" if doc["passed"] else "FAIL"))
    elif cmd == "examples":
        for entry in doc["examples"]:
            lines.append("example: " + " ".join(map(str, entry["generators"])))
            lines.extend(f"{key}: {text}" for key, text in _field_values(entry, EXAMPLE_FIELDS))
            lines.append("result: " + ("pass" if entry["passed"] else "FAIL"))
        if doc["mismatch"]:
            lines.append("mismatch: " + doc["mismatch"])
        lines.append("overall: " + ("pass" if doc["passed"] else "FAIL"))
    return "\n".join(lines)


def render_tsv(doc: dict) -> str:
    cmd = doc["command"]
    rows = []
    if cmd in FIELDS:
        rows.append("key\tvalue")
        rows.extend(f"{key}\t{text}" for key, text in _field_values(doc, FIELDS[cmd]))
    elif cmd == "tn":
        rows.append("n\tT")
        for term in doc["terms"]:
            rows.append(f"{term['n']}\t{term['T']}")
    elif cmd == "verify":
        rows.append("semigroup\tidentity\tparameter\tstatus\tlhs\trhs\tnote")
        for report in doc["reports"]:
            where = " ".join(map(str, report.generators)) if report.generators else "companions"
            for c in report.checks:
                param = c.parameter if c.parameter is not None else "-"
                rows.append(f"{where}\t{c.identity}\t{param}\t{c.status}\t{c.lhs}\t{c.rhs}\t{c.note}")
    elif cmd == "examples":
        rows.append("generators\tfield\tvalue\tstatus")
        for entry in doc["examples"]:
            where = " ".join(map(str, entry["generators"]))
            status = "pass" if entry["passed"] else "FAIL"
            rows.extend(
                f"{where}\t{key}\t{text}\t{status}"
                for key, text in _field_values(entry, EXAMPLE_FIELDS)
            )
    return "\n".join(rows)


RENDERERS = {"table": render_table, "json": render_json, "tsv": render_tsv}

COMMANDS = {
    "invariants": cmd_invariants,
    "hilbert": cmd_hilbert,
    "tn": cmd_tn,
    "verify": cmd_verify,
    "examples": cmd_examples,
}


@contextmanager
def _any_digits():
    """Lift CPython's limit on int/str conversions (4,300 digits by default,
    from 3.10.7 on) so that exact values of any length print, and restore
    the caller's setting on return."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _send_nowhere(stream) -> None:
    """Point stream's descriptor at os.devnull: what the stream still buffers
    would fail again when the interpreter flushes it at exit."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _fail(message: str) -> int:
    """Print message on stderr and return exit code 2. A stderr that cannot
    be written, such as a pipe its reader closed, loses the message, not the code."""
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        _send_nowhere(sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _any_digits():
        try:
            doc = {"schema": SCHEMA_VERSION, "command": args.command, **COMMANDS[args.command](args)}
        except ValueError as err:
            return _fail(f"{type(err).__name__}: {err}")
        text = RENDERERS[args.format](doc)
        try:
            if args.out is not None:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            else:
                print(text, flush=True)
        except OSError as err:
            if args.out is None:
                _send_nowhere(sys.stdout)
            return _fail(f"OSError: {err}")
        return 1 if doc.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
