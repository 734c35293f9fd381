"""Spans around the calls into felcheck's modules, recorded from outside.

install() swaps each traced public function, wherever a felcheck module holds
a reference to it, for a wrapper that records a span (name, start, end,
parent, op id). Nothing under src/ changes, and the program's own call order
decides the spans, so the trace follows whatever pipeline the code runs.
uninstall() puts the originals back. Spans stay in memory until the run ends.

The exact layer is not wrapped: its kernels run thousands of times per op.
probe_exact() instead re-issues them standalone on operands of the op's size.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from fractions import Fraction
from math import factorial

# Public functions traced in each layer, in pipeline order. A name a later
# version of felcheck no longer has is skipped and its metric reads 0.
TRACED = {
    "semigroup": (
        "make_semigroup",
        "apery_set",
        "compute_gaps",
        "gap_power_sums",
        "generator_stats",
    ),
    "hilbert": (
        "product_polynomial",
        "gap_polynomial",
        "hilbert_numerator",
        "alternating_syzygy_sums",
        "k_invariant",
    ),
    "universal": ("sigma_egf", "delta_egf", "t_symbolic", "umbral_power"),
    "verify": (
        "verify_semigroup",
        "verify_fel_main",
        "verify_thm_kp",
        "verify_low_order",
        "verify_m2_closed_form",
        "verify_series_lemmas",
        "verify_companions",
    ),
    "cli": ("main",),
}
# Subcommand handlers and renderers are traced under these prefixes.
CLI_PREFIXES = ("cmd_", "render_")

# Spans whose own time is glue around the stages rather than a stage.
ENTRY_SPANS = ("op", "cli.main", "verify.verify_semigroup")

# Per-layer time metrics: metric name -> traced span names summed into it.
TIME_METRICS = {
    "semigroup.apery_set_s": ("semigroup.apery_set",),
    "semigroup.compute_gaps_s": ("semigroup.compute_gaps",),
    "semigroup.gap_power_sums_s": ("semigroup.gap_power_sums",),
    "semigroup.generator_stats_s": ("semigroup.generator_stats",),
    "hilbert.product_polynomial_s": ("hilbert.product_polynomial",),
    "hilbert.gap_polynomial_s": ("hilbert.gap_polynomial",),
    "hilbert.hilbert_numerator_s": ("hilbert.hilbert_numerator",),
    "hilbert.alternating_syzygy_sums_s": ("hilbert.alternating_syzygy_sums",),
    "hilbert.k_invariant_s": ("hilbert.k_invariant",),
    "universal.sigma_egf_s": ("universal.sigma_egf",),
    "universal.delta_egf_s": ("universal.delta_egf",),
    "universal.t_symbolic_s": ("universal.t_symbolic",),
    "universal.umbral_power_s": ("universal.umbral_power",),
    "verify.fel_main_s": ("verify.verify_fel_main",),
    "verify.thm_kp_s": ("verify.verify_thm_kp",),
    "verify.low_order_s": ("verify.verify_low_order",),
    "verify.m2_closed_form_s": ("verify.verify_m2_closed_form",),
    "verify.series_lemmas_s": ("verify.verify_series_lemmas",),
    "verify.companions_s": ("verify.verify_companions",),
    "cli.cmd_s": ("cli.cmd_invariants", "cli.cmd_hilbert", "cli.cmd_tn", "cli.cmd_verify", "cli.cmd_examples"),
    "cli.render_s": ("cli.render_json", "cli.render_table", "cli.render_tsv"),
}
SELF_LAYERS = ("semigroup", "hilbert", "universal", "verify", "cli")
PROBES = ("poly_mul", "poly_exact_div", "poly_at_exp", "series_mul", "series_div")

# Every per-layer metric a traced run reports: name -> (unit, better).
PER_LAYER = {
    **{name: ("s", "lower") for name in TIME_METRICS},
    **{f"{layer}.self_s": ("s", "lower") for layer in SELF_LAYERS},
    **{f"exact.{probe}_s": ("s", "lower") for probe in PROBES},
    "cli.import_s": ("s", "lower"),
    "semigroup.apery_size": ("count", "lower"),
    "semigroup.genus": ("count", "lower"),
    "semigroup.frobenius": ("count", "lower"),
    "hilbert.q_degree": ("count", "lower"),
    "hilbert.q_nonzeros": ("count", "lower"),
    "hilbert.phi_p_pairs_visited": ("count", "lower"),
    "hilbert.c_max_bits": ("bits", "lower"),
    "hilbert.p_density": ("ratio", "higher"),
    "hilbert.q_density": ("ratio", "higher"),
    "universal.t_terms": ("count", "lower"),
    "universal.t_max_bits": ("bits", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "verify.checks_skipped": ("count", "lower"),
    "verify.record_bytes": ("bytes", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.uncovered_share": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


class Tracer:
    """In-memory span recorder for one run.

    A span is [op, name, start, end, parent]; parent is the index of the
    enclosing span or -1. observed holds (name, return value) for the
    current op so that work counts can be read off after it ends.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.observed = []
        self.products = []
        self._undo = []

    def open(self, name: str, start: float | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if start is None:
            start = time.perf_counter()
        self.spans.append([self.op, name, start, None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op: int, start: float | None = None) -> int:
        self.op = op
        self.observed = []
        self.products = []
        return self.open("op", start)

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][1] if self.stack else None

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.observed.append((name, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded felcheck module."""
        targets = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"felcheck.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    targets[id(fn)] = (fn, f"{layer}.{name}")
            if layer == "cli":
                for name, fn in vars(module).items():
                    if name.startswith(CLI_PREFIXES) and callable(fn):
                        targets[id(fn)] = (fn, f"cli.{name}")
        wrappers = {key: self.wrap(name, fn) for key, (fn, name) in targets.items()}
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "felcheck"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._swap(module, attr, value, wrappers[id(value)])
                elif isinstance(value, dict):  # COMMANDS, RENDERERS
                    for key, fn in list(value.items()):
                        if id(fn) in wrappers:
                            self._swap(value, key, fn, wrappers[id(fn)], item=True)
        exact = importlib.import_module("felcheck.exact")
        poly_cls = getattr(exact, "IntPolynomial", None)
        if poly_cls is not None:
            self._swap(poly_cls, "__mul__", poly_cls.__mul__, self._noting_mul(poly_cls.__mul__))

    def _noting_mul(self, mul):
        """IntPolynomial.__mul__ that keeps the operands of the products made
        directly inside hilbert_numerator (Phi * P), for work_counts()."""
        tracer = self

        def noted(left, right):
            if tracer.current() == "hilbert.hilbert_numerator":
                tracer.products.append((left, right))
            return mul(left, right)

        return noted

    def _swap(self, owner, key, old, new, item: bool = False) -> None:
        if item:
            owner[key] = new
        else:
            setattr(owner, key, new)
        self._undo.append((owner, key, old, item))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old, item = self._undo.pop()
            if item:
                owner[key] = old
            else:
                setattr(owner, key, old)


def op_breakdown(spans, first: int) -> dict:
    """Times of the op whose span is spans[first]; its spans run to the end.

    Per metric the inclusive time of the named spans, per layer the self
    time (a span's duration less its children's), and op_s / uncovered_s:
    the op's duration and the part of it no stage span covers, i.e. the self
    time of the op span and of the entry spans around the stages.
    """
    own = spans[first:]
    durations = [s[3] - s[2] for s in own]
    child_time = [0.0] * len(own)
    for i, s in enumerate(own[1:], start=1):
        child_time[s[4] - first] += durations[i]
    span_metric = {span: name for name, group in TIME_METRICS.items() for span in group}
    out = dict.fromkeys(TIME_METRICS, 0.0)
    out.update({f"{layer}.self_s": 0.0 for layer in SELF_LAYERS})
    uncovered = 0.0
    for i, s in enumerate(own):
        name = s[1]
        self_time = durations[i] - child_time[i]
        if name in span_metric:
            out[span_metric[name]] += durations[i]
        if name in ENTRY_SPANS or name.startswith("cli.cmd_"):
            uncovered += self_time
        layer = name.split(".")[0]
        if layer in SELF_LAYERS:
            out[f"{layer}.self_s"] += self_time
    out["op_s"] = durations[0]
    out["uncovered_s"] = uncovered
    return out


def _nonzeros(poly) -> tuple[int, int]:
    coeffs = getattr(poly, "coeffs", ())
    return sum(1 for c in coeffs if c), len(coeffs)


def _bits(value: Fraction) -> int:
    value = Fraction(value)
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def work_counts(observed, products) -> dict:
    """Exact work counts of one op, read off the values its traced calls returned.

    Keys ending in _slots / _nonzeros feed the density ratios; see
    total_counts().
    """
    out = dict.fromkeys(SUM_COUNTS + MAX_COUNTS, 0)
    for name, result in observed:
        if name == "semigroup.apery_set":
            out["semigroup.apery_size"] += len(result)
        elif name == "semigroup.compute_gaps":
            out["semigroup.genus"] += result.genus
            out["semigroup.frobenius"] += result.frobenius
        elif name == "hilbert.product_polynomial":
            nonzero, slots = _nonzeros(result)
            out["hilbert.p_nonzeros"] += nonzero
            out["hilbert.p_slots"] += slots
        elif name == "hilbert.hilbert_numerator":
            nonzero, slots = _nonzeros(getattr(result, "numerator", None))
            out["hilbert.q_nonzeros"] += nonzero
            out["hilbert.q_slots"] += slots
            out["hilbert.q_degree"] += max(slots - 1, 0)
        elif name == "hilbert.alternating_syzygy_sums":
            bits = max((_bits(c) for c in result), default=0)
            out["hilbert.c_max_bits"] = max(out["hilbert.c_max_bits"], bits)
        elif name == "universal.t_symbolic":
            terms = getattr(result, "terms", {})
            out["universal.t_terms"] = max(out["universal.t_terms"], len(terms))
            bits = max((_bits(c) for c in terms.values()), default=0)
            out["universal.t_max_bits"] = max(out["universal.t_max_bits"], bits)
    for left, right in products:
        out["hilbert.phi_p_pairs_visited"] += _nonzeros(left)[0] * len(right.coeffs)
    return out


# Work counts summed over the ops of a run, and those kept as the run's maximum.
# universal.t_terms is the largest T computed in an op, summed over ops.
SUM_COUNTS = (
    "semigroup.apery_size",
    "semigroup.genus",
    "semigroup.frobenius",
    "hilbert.q_degree",
    "hilbert.q_nonzeros",
    "hilbert.q_slots",
    "hilbert.p_nonzeros",
    "hilbert.p_slots",
    "hilbert.phi_p_pairs_visited",
    "universal.t_terms",
)
MAX_COUNTS = ("hilbert.c_max_bits", "universal.t_max_bits")


def total_counts(per_op) -> dict:
    """Combine per-op work counts: sums, maxima, and the two density ratios."""
    out = {}
    for key in SUM_COUNTS:
        out[key] = sum(c[key] for c in per_op)
    for key in MAX_COUNTS:
        out[key] = max((c[key] for c in per_op), default=0)
    out["hilbert.p_density"] = out.pop("hilbert.p_nonzeros") / max(out.pop("hilbert.p_slots"), 1)
    out["hilbert.q_density"] = out["hilbert.q_nonzeros"] / max(out.pop("hilbert.q_slots"), 1)
    return out


def probe_exact(gens, gaps, p_max: int, order: int) -> dict:
    """Time the exact kernels once each on operands of this op's size.

    Phi (unit coefficients at the gaps, from the oracle's gap list) times P
    = prod (1 - z^d), P / (1 - z), Phi at e^t to the op's series order, the
    order-(order - m) series product from the series lemmas, and the
    order-(p_max + 1) series quotient behind delta_egf.
    """
    from felcheck.exact import IntPolynomial, RationalSeries

    m = len(gens)
    coeffs = [0] * (max(gaps) + 1 if gaps else 0)
    for g in gaps:
        coeffs[g] = 1
    phi = IntPolynomial(coeffs)
    prod = IntPolynomial([1])
    for d in gens:
        prod = prod * IntPolynomial.one_minus_pow(d)
    low = order - m
    sigma = RationalSeries([1] + [0] * low)
    for d in gens:
        sigma = sigma * RationalSeries(Fraction(d**k, factorial(k + 1)) for k in range(low + 1))
    phi_low = phi.at_exp(low)
    top = min(p_max + 1, low)
    numer = sigma.truncate(top)
    denom = RationalSeries(Fraction(1, factorial(k + 1)) for k in range(top + 1))
    steps = (
        ("poly_mul", lambda: phi * prod),
        ("poly_exact_div", lambda: prod.exact_div(IntPolynomial.one_minus_pow(1))),
        ("poly_at_exp", lambda: phi.at_exp(order)),
        ("series_mul", lambda: sigma * phi_low),
        ("series_div", lambda: numer / denom),
    )
    out = {}
    for name, step in steps:
        t0 = time.perf_counter()
        step()
        out[f"exact.{name}_s"] = time.perf_counter() - t0
    return out
