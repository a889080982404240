"""Per-layer spans, recorded from outside cartaneq by wrapping functions.

Each public function of a layer is replaced, wherever it is looked up,
by a wrapper that counts calls and measures self time: the span's wall
time minus the time of the wrapped calls inside it.  A few counters of
work ride along.  ``install`` is meant for a forked child that runs one
op and exits, so nothing is ever unwrapped.
"""

from __future__ import annotations

import time
from collections import defaultdict

from cartaneq import cli, expr, linsolve, ode2, ode3, parser, pfaffian, poly, systems
from cartaneq.expr import Expression
from cartaneq.forms import Coframe, DifferentialForm
from cartaneq.poly import Polynomial

# metric prefix -> every (owner, attribute) where callers look it up
LAYERS = {
    "poly.mul": [(Polynomial, "__mul__")],
    "poly.add": [(Polynomial, "__add__")],
    "poly.derivative": [(Polynomial, "derivative")],
    "poly.exact_div": [(poly, "exact_div"), (expr, "exact_div")],
    "poly.gcd": [(poly, "gcd"), (expr, "gcd")],
    "expr.make": [(Expression, "make")],
    "expr.add": [(Expression, "__add__"), (Expression, "__radd__")],
    "expr.mul": [(Expression, "__mul__"), (Expression, "__rmul__")],
    "expr.partial": [(Expression, "partial")],
    "expr.substitute": [(Expression, "substitute")],
    "expr.subs_coords": [(Expression, "subs_coords")],
    "parser.parse": [(parser, "parse_expression"), (cli, "parse_expression")],
    "parser.render": [(parser, "render_text"), (cli, "render_text")],
    "linsolve.rref": [(linsolve, "rref")],
    "forms.d": [(DifferentialForm, "d")],
    "forms.wedge": [(DifferentialForm, "wedge")],
    "forms.express": [(Coframe, "express")],
    "forms.dual_frame": [(Coframe, "dual_frame")],
    "forms.form_new": [(DifferentialForm, "__init__")],
    "pfaffian.structure_equations": [(pfaffian, "structure_equations")],
    "pfaffian.absorb_torsion": [(pfaffian, "absorb_torsion"),
                                (ode2, "absorb_torsion")],
    "pfaffian.cartan_characters": [(pfaffian, "cartan_characters"),
                                   (ode2, "cartan_characters")],
    "pfaffian.prolong": [(pfaffian, "prolong")],
    "ode2.check_flat": [(ode2, "check_flat_ode2"), (cli, "check_flat_ode2")],
    "ode2.run_equivalence": [(ode2, "run_equivalence_ode2"),
                             (cli, "run_equivalence_ode2")],
    "ode2.painleve_map": [(ode2, "painleve_map"), (cli, "painleve_map")],
    "ode2.pullback": [(ode2, "pullback_ode2"), (cli, "pullback_ode2")],
    "systems.check_flat": [(systems, "check_flat_ode_system"),
                           (cli, "check_flat_ode_system"),
                           (systems, "check_flat_pde_system"),
                           (cli, "check_flat_pde_system")],
    "ode3.prolongation": [(ode3, "contact_prolongation_ode3"),
                          (cli, "contact_prolongation_ode3")],
    "cli.main": [(cli, "main")],
}

COUNTERS = ("poly.mul.terms_out", "poly.gcd.cache_hits",
            "poly.gcd.cache_misses", "linsolve.rref.cells", "expr.size_peak")


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in LAYERS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    out += [(c, "count") for c in COUNTERS]
    return out


def _gcd_cache():
    cached = getattr(poly, "_gcd_cached", None)
    if cached is None:
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = [0]  # per open span: time spent in wrapped children
        self._cache0 = _gcd_cache()

    def _wrap(self, name, fn):
        calls, self_ns, counts, stack = (
            self.calls, self.self_ns, self.counts, self._stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                inner = stack.pop()
                stack[-1] += span
                calls[name] += 1
                self_ns[name] += span - inner
            if isinstance(result, Expression):
                if result.size > counts["expr.size_peak"]:
                    counts["expr.size_peak"] = result.size
            elif name == "poly.mul":
                counts["poly.mul.terms_out"] += len(result)
            elif name == "linsolve.rref" and args[0]:
                counts["linsolve.rref.cells"] += len(args[0]) * len(args[0][0])
            return result

        return wrapper

    def install(self):
        for name, sites in LAYERS.items():
            for owner, attr in sites:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))
        return self

    def report(self):
        """Plain totals: calls, self time in ns and the work counters."""
        hits, misses = _gcd_cache()
        counts = dict(self.counts)
        counts["poly.gcd.cache_hits"] = hits - self._cache0[0]
        counts["poly.gcd.cache_misses"] = misses - self._cache0[1]
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "counts": counts}
