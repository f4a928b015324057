"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each package layer from the
outside: every module namespace that binds a traced function gets the
wrapper (``from ... import`` copies a binding, so the defining module
alone is not enough), and the ``TruncatedSeries`` arithmetic methods are
wrapped on the class.  Nothing inside ``src/`` is edited.

Per span name it aggregates calls and self time (the
span's duration minus the time its child spans cover).  Spans are
aggregated in memory rather than kept one by one; the metrics need no
more than that.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

from faberzeros.errors import NumericalError

# (span name, module, attribute) of each traced module-level function.
FUNCTION_SPANS = (
    ("qseries.eta_unit", "qseries", "eta_unit"),
    ("qseries.j_series", "qseries", "j_series"),
    ("qseries.eisenstein_series", "qseries", "eisenstein_series"),
    ("faber.principal_part", "faber", "principal_part"),
    ("faber.j_power_table", "faber", "j_power_table"),
    ("faber.faber_polynomial", "faber", "faber_polynomial"),
    ("faber.renormalized_coeffs", "faber", "renormalized_coeffs"),
    ("modforms.miller_basis_series", "modforms", "miller_basis_series"),
    ("roots.find_roots", "roots", "find_roots"),
    ("roots.scaled_faber_roots", "roots", "scaled_faber_roots"),
    ("roots.truncated_exp_inverse_zeros", "roots", "truncated_exp_inverse_zeros"),
    ("roots.match_roots", "roots", "match_roots"),
    # the 50-digit fallback polish; reads 0 once the function is gone
    ("roots.polish_fallback", "roots", "_polish_extended"),
    ("halfplane.zero_report", "halfplane", "zero_report"),
    ("halfplane.invert_j", "halfplane", "invert_j"),
    ("halfplane.evaluate_j", "halfplane", "evaluate_j"),
    ("halfplane.predicted_zero", "halfplane", "predicted_zero"),
    ("cli.main", "cli", "main"),
)

# (span name, TruncatedSeries attribute)
METHOD_SPANS = (
    ("qseries.mul", "__mul__"),
    ("qseries.mul", "__rmul__"),
    ("qseries.pow", "__pow__"),
    ("qseries.inverse", "inverse"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [name for name, _ in METHOD_SPANS] + [name for name, _, _ in FUNCTION_SPANS]
))

# k bands of the k-independence ratio faber.k_growth (ROADMAP north star)
K_GROWTH_LOW = (24_000, 240_000)
K_GROWTH_HIGH = 2_400_000


def _term_products(a, b) -> int:
    """Coefficient pairs that TruncatedSeries.__mul__ multiplies for a * b."""
    if not hasattr(b, "coeffs") or not a.coeffs or not b.coeffs:
        return 0
    order = min(a.valuation + b.order, b.valuation + a.order)
    n_out = order - (a.valuation + b.valuation)
    if n_out <= 0:
        return 0
    nonzero_prefix = [0]
    for c in b.coeffs:
        nonzero_prefix.append(nonzero_prefix[-1] + (c != 0))
    len_b = len(b.coeffs)
    total = 0
    for i, c in enumerate(a.coeffs):
        if i >= n_out:
            break
        if c != 0:
            total += nonzero_prefix[min(len_b, n_out - i)]
    return total


class Tracer:
    """Aggregating span recorder; install() swaps wrappers in, uninstall() restores."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.term_products = 0
        self.numerical_errors_from = defaultdict(int)  # span where a NumericalError began
        self.faber_times: list[tuple[int, int, float]] = []  # (D, k, inclusive seconds)
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self._excluded = 0.0  # time spent on bookkeeping, removed from every span
        self._wrappers: list[tuple[object, str, object, object]] = []
        self._build()

    # -- clock -----------------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._excluded

    # -- wrapper construction --------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        is_mul = name == "qseries.mul"
        is_faber = name == "faber.faber_polynomial"

        def wrapper(*args, **kwargs):
            if is_mul:
                t = time.perf_counter()
                tracer.term_products += _term_products(args[0], args[1])
                tracer._excluded += time.perf_counter() - t
            frame = [tracer._now(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except NumericalError as exc:
                if not hasattr(exc, "_bench_span"):
                    exc._bench_span = name
                    tracer.numerical_errors_from[name] += 1
                raise
            finally:
                tracer._stack.pop()
                duration = tracer._now() - frame[0]
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                if is_faber:
                    spec = args[0] if args else kwargs["spec"]
                    tracer.faber_times.append((spec.degree, spec.k, duration))

        return wrapper

    def _build(self):
        package = sys.modules["faberzeros"]
        from faberzeros.qseries import TruncatedSeries

        for name, attr in METHOD_SPANS:
            original = TruncatedSeries.__dict__[attr]
            self._wrappers.append((TruncatedSeries, attr, original, self._wrap(name, original)))
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "faberzeros" or key.startswith("faberzeros."))
        ]
        for name, module_name, attr in FUNCTION_SPANS:
            home = getattr(package, module_name)
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._wrappers.append((module, binding, original, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._wrappers:
            setattr(owner, attr, original)

    # -- metrics ---------------------------------------------------------------

    def k_growth(self) -> float | None:
        """Median faber_polynomial time at k >= 2.4e6 over the median at
        2.4e4 <= k < 2.4e5, per degree D, then the median over the D that
        have calls in both bands.  None when no D has both."""
        low = defaultdict(list)
        high = defaultdict(list)
        lo_min, lo_max = K_GROWTH_LOW
        for d, k, seconds in self.faber_times:
            if lo_min <= k < lo_max:
                low[d].append(seconds)
            elif k >= K_GROWTH_HIGH:
                high[d].append(seconds)
        ratios = [
            statistics.median(high[d]) / statistics.median(low[d])
            for d in sorted(set(low) & set(high))
        ]
        return statistics.median(ratios) if ratios else None

    def layer_metrics(self) -> dict[str, float]:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out["qseries.mul.term_products"] = self.term_products
        finds = self.calls["roots.find_roots"]
        out["roots.fallback_ratio"] = self.calls["roots.polish_fallback"] / finds if finds else 0.0
        out["roots.numerical_errors"] = sum(
            n for span, n in self.numerical_errors_from.items() if span.startswith("roots.")
        )
        out["halfplane.check_failures"] = self.numerical_errors_from["halfplane.zero_report"]
        return out
