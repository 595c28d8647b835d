"""Spans around sigcurve's public functions, installed from outside the package.

``install`` replaces each target function or operator method with a wrapper
that records its call count, its total time and its self time (total minus
the time of wrapped calls made inside it).  The wrapper is bound wherever the
original was: every attribute of every ``sigcurve`` module or class that
holds the original object, because ``from .poly import gcd`` copies the name.
Wrapping outside an ``lru_cache`` keeps the cache itself intact; such a
wrapper counts hits and misses alike as calls.

Spans are aggregated by name when they end, so memory stays constant however
many calls a run makes.
"""

from __future__ import annotations

import sys
from functools import wraps
from time import perf_counter

# (span name, module, attribute path) -- two targets may share a span name.
# groebner_basis is not a span (its time stays in groebner.eliminate); its
# wrapper only adds up the sizes of the bases it returns.
TARGETS = (
    ("poly.mul", "sigcurve.poly", "SparsePoly.__mul__"),
    ("poly.exact_div", "sigcurve.poly", "exact_div"),
    ("poly.gcd", "sigcurve.poly", "gcd"),
    ("poly.resultant", "sigcurve.poly", "resultant"),
    ("poly.ratfunc_build", "sigcurve.poly", "RatFunc.build"),
    ("series.mul", "sigcurve.series", "TruncatedSeries.__mul__"),
    ("series.newton_branch", "sigcurve.series", "newton_branch"),
    ("series.fiber_valuation", "sigcurve.series", "fiber_valuation_sum"),
    ("series.fiber_valuation", "sigcurve.series", "fiber_min_valuation_sum"),
    ("groebner.eliminate", "sigcurve.groebner", "groebner_eliminate"),
    ("groebner.basis_size", "sigcurve.groebner", "groebner_basis"),
    ("jets.theta", "sigcurve.jets", "theta"),
    ("jets.implicit_jet", "sigcurve.jets", "implicit_jet"),
    ("jets.classifying_pair", "sigcurve.jets", "classifying_pair"),
    ("jets.projective_extension", "sigcurve.jets", "projective_extension"),
    ("degree.mult_min_canonical", "sigcurve.degree", "mult_min_canonical"),
    ("degree.infinity_pieces", "sigcurve.degree", "infinity_pieces"),
    ("degree.components_on_piece", "sigcurve.degree", "canonical_components_on_piece"),
    ("degree.affine_part", "sigcurve.degree", "canonical_affine_part"),
    ("signature.polynomial", "sigcurve.signature", "signature_polynomial"),
    ("signature.samples", "sigcurve.signature", "signature_samples"),
    ("signature.exact_fit", "sigcurve.signature", "exact_signature_fit"),
    ("signature.constant_check", "sigcurve.signature", "is_constant_signature"),
    ("equivalence.symmetry_order", "sigcurve.equivalence", "symmetry_order"),
    ("equivalence.equivalent", "sigcurve.equivalence", "equivalent"),
    ("parser.parse", "sigcurve.parser", "parse"),
    ("cli.main", "sigcurve.cli", "main"),
)

# The per-layer metrics a traced run reports: (name, unit, better).
_CALLS_AND_SELF = (
    "poly.mul", "poly.exact_div", "poly.gcd", "poly.resultant", "poly.ratfunc_build",
    "series.mul", "series.newton_branch", "series.fiber_valuation",
    "groebner.eliminate",
    "degree.infinity_pieces", "degree.components_on_piece", "degree.affine_part",
)
_SELF_ONLY = (
    "jets.theta", "jets.implicit_jet", "jets.classifying_pair", "jets.projective_extension",
    "signature.polynomial", "signature.samples", "signature.exact_fit",
    "signature.constant_check",
    "equivalence.symmetry_order", "equivalence.equivalent", "parser.parse", "cli.main",
)
PER_LAYER = (
    [
        (f"{n}.{k}", u, "lower")
        for n in _CALLS_AND_SELF
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [(f"{n}.self_s", "s", "lower") for n in _SELF_ONLY]
    + [
        ("groebner.basis_size", "count", "lower"),
        ("jets.theta.calls", "count", "lower"),
        ("jets.theta.hit_ratio", "ratio", "higher"),
        ("degree.trunc_retries", "count", "lower"),
        ("cli.startup_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Recorder:
    """Per-name [calls, total_s, self_s], plus the summed size of every
    Groebner basis computed."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.basis_size = 0
        self._open: list[float] = []  # child time accumulated per open span

    def wrap(self, name: str, fn):
        if name == "groebner.basis_size":
            return self._count_basis(fn)
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._open

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def _count_basis(self, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            basis = fn(*args, **kwargs)
            self.basis_size += len(basis)
            return basis

        return wrapper

    def install(self) -> None:
        """Wrap every target whose module is imported; import first."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "sigcurve" or n.startswith("sigcurve.")
        ]
        owners = modules + [
            c for m in modules for c in vars(m).values()
            if isinstance(c, type) and c.__module__.startswith("sigcurve")
        ]
        for name, module, path in TARGETS:
            owner = sys.modules.get(module)
            if owner is None:
                continue
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[path.split(".")[-1]]
            if isinstance(original, classmethod):
                original = original.__func__
            wrapper = self.wrap(name, original)
            for o in owners:
                for attr, value in list(vars(o).items()):
                    if value is original:
                        setattr(o, attr, wrapper)
                    elif isinstance(value, classmethod) and value.__func__ is original:
                        setattr(o, attr, classmethod(wrapper))

    def snapshot(self) -> dict:
        return {"spans": self.spans, "basis_size": self.basis_size}


def merge(into: dict, raw: dict) -> None:
    """Add one recorder snapshot into an accumulated one."""
    spans = into.setdefault("spans", {})
    for name, (calls, total, self_s) in raw["spans"].items():
        acc = spans.setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s
    into["basis_size"] = into.get("basis_size", 0) + raw["basis_size"]


def per_layer(raw: dict, rounds: int, theta_hits: int, theta_misses: int,
              time_scale: float, startup_s: float, overhead_s: float) -> dict:
    """The PER_LAYER metrics, counts and times per round, from merged spans;
    span times are multiplied by ``time_scale``."""
    spans = raw.get("spans", {})

    def get(name, k):
        value = spans.get(name, [0, 0.0, 0.0])[k] / rounds
        return value * time_scale if k else value

    values = {}
    for name in _CALLS_AND_SELF:
        values[f"{name}.calls"] = get(name, 0)
        values[f"{name}.self_s"] = get(name, 2)
    for name in _SELF_ONLY:
        values[f"{name}.self_s"] = get(name, 2)
    lookups = theta_hits + theta_misses
    values.update({
        "groebner.basis_size": raw.get("basis_size", 0) / rounds,
        "jets.theta.calls": get("jets.theta", 0),
        "jets.theta.hit_ratio": theta_hits / lookups if lookups else 0.0,
        "degree.trunc_retries": (
            get("degree.infinity_pieces", 0) - get("degree.mult_min_canonical", 0)
        ),
        "cli.startup_s": startup_s,
        "trace.overhead_s": overhead_s,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
