"""Which defectlab functions the traced run wraps, the work each call counts,
and the per-layer metrics derived from the spans.

Every public function defined in a module is wrapped, and rebound under each
name that refers to it in any defectlab module (``tensor.embed_pair`` and
``checks.embed_pair`` alike).  A few elementwise helpers called in inner
loops are left alone (``SKIP``): they stay in the same layer as their callers,
so their time lands in the right self time without a span per element.  The
CLI layer is the root span of every op; JSON and CSV encoding methods on the
result objects are not wrapped and so count as CLI self time.

Per-layer values are per op (summed over the traced ops, divided by their
number), except maxima and ratios.  No layer has a queue: the program runs
in one thread, so time waited is not applicable and is not reported.
"""

from __future__ import annotations

import importlib
import inspect
import math
from contextlib import contextmanager

import numpy as np

import tracer as tr

MODULES = ("tensor", "lax", "checks", "kernels", "thermo", "special", "bethe")
SKIP = {
    "tensor": {"as_matrix"},
    "bethe": {"e_ratio", "e_ratio_log_derivative", "defect_factor", "defect_log_derivative",
              "phase", "defect_phase"},
}
PRIVATE = {"thermo": {"_half_line_grid"}, "bethe": {"_jacobian"}}
METHODS = {"tensor": {"FockSpace": None}, "thermo": {"KernelTable": ("evaluate",)}}
LAX_BUILDERS = {
    "r_matrix", "s_matrix", "l_matrix", "l_hat_matrix", "crossed_l_matrix", "defect_lax",
    "transmission_matrix", "conjugate_transmission_matrix", "crossed_transmission_matrix",
}
ROOT = "cli.main"  # the span of one CLI call, opened by the benchmark

PER_LAYER = (
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("tensor.self_s", "s"), ("tensor.embed_pair.calls", "count"), ("tensor.embed_pair.s", "s"),
    ("tensor.embed_pair.bytes", "bytes"), ("tensor.kron.calls", "count"), ("tensor.kron.s", "s"),
    ("tensor.fock.s", "s"), ("tensor.peak_matrix_bytes", "bytes"),
    ("lax.self_s", "s"), ("lax.monodromy.calls", "count"), ("lax.monodromy.s", "s"),
    ("lax.monodromy.max_dim", "count"), ("lax.monodromy.flops", "flop"),
    ("lax.transfer_matrix.s", "s"), ("lax.builders.calls", "count"), ("lax.builders.s", "s"),
    ("checks.self_s", "s"), ("checks.reports", "count"), ("checks.failed", "count"),
    ("checks.rll_residual.calls", "count"), ("checks.useful_entry_ratio", "ratio"),
    ("kernels.self_s", "s"), ("kernels.grid_eval.s", "s"), ("kernels.grid_eval.points", "count"),
    ("kernels.integrand.s", "s"), ("kernels.integrand.points", "count"),
    ("kernels.fourier_sum.s", "s"), ("kernels.fourier_sum.terms", "count"),
    ("thermo.self_s", "s"), ("thermo.amplitude.calls", "count"), ("thermo.density.calls", "count"),
    ("thermo.grid.s", "s"),
    ("special.calls", "count"), ("special.s", "s"),
    ("bethe.self_s", "s"), ("bethe.solve.calls", "count"), ("bethe.solve.s", "s"),
    ("bethe.residual.calls", "count"), ("bethe.residual.s", "s"), ("bethe.newton_self_s", "s"),
    ("bethe.iterations", "count"), ("bethe.step_accept_ratio", "ratio"), ("bethe.failed", "count"),
    ("bethe.stall_probe_failed", "count"),
    ("trace.untraced_ops_s", "1/s"), ("trace.traced_ops_s", "1/s"), ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"), ("trace.spans", "count"),
)


def span_name(module: str, name: str, owner: str | None = None) -> str:
    if owner == "FockSpace":
        return "tensor.fock"
    if owner == "KernelTable":
        return "thermo.kernel_table"
    if module == "lax" and name in LAX_BUILDERS:
        return "lax.builders"
    if module == "kernels":
        if name.endswith("_hat"):
            return "kernels.grid_eval"
        if name.endswith("_integrand"):
            return "kernels.integrand"
        if name.startswith("fourier_"):
            return "kernels.fourier_sum"
    if module == "thermo":
        if name.startswith("amplitude_"):
            return "thermo.amplitude"
        if name in ("density", "bulk_density", "transmission_density"):
            return "thermo.density"
        if name == "_half_line_grid":
            return "thermo.grid"
    if module == "special":
        return "special"
    if module == "bethe":
        name = {"solve_bae": "solve", "bae_residual": "residual", "_jacobian": "jacobian"}.get(name, name)
    return f"{module}.{name}"


# ---------------------------------------------------------------------------
# work counters, from a call's arguments and result


def _states(cutoff: int, species: int) -> int:
    """Fock states with total occupation <= cutoff."""
    return math.comb(cutoff + species, species) if cutoff >= 0 else 0


def _entries(t, computed: float, useful: float) -> None:
    t.count("checks.entries.computed", computed)
    t.count("checks.entries.useful", useful)


def _pair_block(t, rank, fock):
    # residual on aux (x) aux (x) Fock, read on the occupation <= cutoff-1 block
    sub = _states(fock.cutoff - 1, fock.species)
    _entries(t, (rank * rank * fock.dim) ** 2, (rank * rank * sub) ** 2)


def _chain_dims(chain):
    species = chain.rank - 1
    bulk = chain.rank ** chain.sites
    return _states(chain.fock_cutoff, species) * bulk, bulk, species


def _transfer_commute(t, a, result):
    chain = a["chain"]
    q, bulk, species = _chain_dims(chain)
    _entries(t, q * q, q * bulk * _states(chain.fock_cutoff - 2, species))


def _highest_weight(t, a, result):
    q, _, _ = _chain_dims(a["chain"])
    dim, points = a["chain"].rank * q, len(list(a["lams"]))
    # each auxiliary block is contracted with the vacuum: one column per block column
    _entries(t, dim * dim * points, a["chain"].rank * dim * points)


def _full(t, dim, points=1):
    _entries(t, dim * dim * points, dim * dim * points)


def _monodromy(t, a, result):
    dim = result.shape[0]
    t.peak("lax.monodromy.max_dim", dim)
    t.count("lax.monodromy.flops", 8.0 * dim ** 3 * (a["chain"].sites + 1))


COUNTERS = {
    ("tensor", "embed_pair"): lambda t, a, r: t.count("tensor.embed_pair.bytes", r.shape[0] ** 2 * 16),
    ("lax", "monodromy"): _monodromy,
    ("checks", "ybe_residual"): lambda t, a, r: _full(t, a["rank"] ** 3),
    ("checks", "rll_residual"): lambda t, a, r: _pair_block(t, a["spec"].rank, a["fock"]),
    ("checks", "transmission_algebra_residual"): lambda t, a, r: _pair_block(t, a["rank"], a["fock"]),
    ("checks", "check_transfer_commute"): _transfer_commute,
    ("checks", "check_highest_weight"): _highest_weight,
    ("checks", "check_lax_crossing"): lambda t, a, r: _full(t, a["spec"].rank * a["fock"].dim, len(list(a["lams"]))),
    ("checks", "check_transmission_crossing"): lambda t, a, r: _full(
        t, a["rank"] * a["fock"].dim, 20 if a["grid"] is None else len(list(a["grid"]))),
}


def _kernel_counter(name: str, fn):
    group = span_name("kernels", name)
    if group == "kernels.fourier_sum":
        return lambda t, a, r: t.count("kernels.fourier_sum.terms", len(a["nodes"]) * len(a["lams"]))
    if group in ("kernels.grid_eval", "kernels.integrand"):
        first = next(iter(inspect.signature(fn).parameters))
        return lambda t, a, r: t.count(group + ".points", len(a[first]))
    return None


def _count_reports(t, result) -> None:
    for item in result if isinstance(result, tuple) else (result,):
        if hasattr(item, "passed") and hasattr(item, "residual"):
            t.count("checks.reports")
            if not item.passed:
                t.count("checks.failed")


def _on_return(module: str, name: str, fn):
    counter = COUNTERS.get((module, name))
    if module == "kernels" and counter is None:
        counter = _kernel_counter(name, fn)
    signature = inspect.signature(fn) if counter else None
    reports = module in ("checks", "thermo") and (name.startswith("check_") or name == "calibrate_ordering")

    def on_return(t, args, kwargs, result):
        if type(result) is np.ndarray and result.ndim == 2:
            t.peak("tensor.peak_matrix_bytes", result.nbytes)
        if reports:
            _count_reports(t, result)
        if counter is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(t, bound.arguments, result)
            except (AttributeError, KeyError, TypeError, ValueError, IndexError):
                t.count("trace.counter_errors")

    return on_return


# ---------------------------------------------------------------------------
# installing the wrappers


def _targets():
    """(module name, owner class name or None, owner object, attribute, function)"""
    for module in MODULES:
        mod = importlib.import_module(f"defectlab.{module}")
        for attr, obj in list(vars(mod).items()):
            if attr in SKIP.get(module, ()):
                continue
            if attr in PRIVATE.get(module, ()):
                yield module, None, mod, attr, obj
            elif inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                yield module, None, mod, attr, obj
        for cls_name, methods in METHODS.get(module, {}).items():
            cls = getattr(mod, cls_name)
            for attr, obj in list(vars(cls).items()):
                wanted = (attr == "__init__" or not attr.startswith("_")) if methods is None else attr in methods
                if wanted and inspect.isfunction(obj):
                    yield module, cls_name, cls, attr, obj


@contextmanager
def instrumented(tracer: tr.Tracer):
    """Wrap the traced functions for the duration of the block."""
    namespaces = [importlib.import_module("defectlab")] + [
        importlib.import_module(f"defectlab.{m}") for m in MODULES + ("cli",)
    ]
    patches = []
    try:
        for module, owner, holder, attr, fn in list(_targets()):
            wrapped = tracer.wrap(span_name(module, attr, owner), fn, _on_return(module, attr, fn))
            if owner is not None:
                patches.append((holder, attr, fn))
                setattr(holder, attr, wrapped)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        patches.append((ns, name, fn))
                        setattr(ns, name, wrapped)
        yield
    finally:
        for holder, attr, fn in reversed(patches):
            setattr(holder, attr, fn)


# ---------------------------------------------------------------------------
# metrics


def _inclusive(spans, name: str) -> tuple:
    top = tr.outermost(spans, name)
    return len(top), sum(s[tr.END] - s[tr.START] for s in top)


def span_totals(spans) -> dict:
    """Sums over a list of spans covering whole ops: self time per layer, and
    calls and inclusive time per group.  Totals of several lists add up."""
    self_s = tr.layer_self_times(spans)
    out = {f"{m}.self_s": self_s.get(m, 0.0) for m in ("cli",) + MODULES}
    for group in ("tensor.embed_pair", "tensor.kron", "lax.monodromy", "lax.builders",
                  "bethe.solve", "bethe.residual", "special"):
        out[group + ".calls"], out[group + ".s"] = _inclusive(spans, group)
    for group in ("tensor.fock", "lax.transfer_matrix", "kernels.grid_eval", "kernels.integrand",
                  "kernels.fourier_sum", "thermo.grid"):
        out[group + ".s"] = _inclusive(spans, group)[1]
    for group in ("thermo.amplitude", "thermo.density", "checks.rll_residual"):
        out[group + ".calls"] = _inclusive(spans, group)[0]
    solve_residuals = tr.inside(spans, "bethe.residual", "bethe.solve")
    out["bethe.solve_residuals"] = len(solve_residuals)
    out["bethe.newton_self_s"] = out["bethe.solve.s"] - sum(s[tr.END] - s[tr.START] for s in solve_residuals)
    out["bethe.iterations"] = len(tr.inside(spans, "bethe.jacobian", "bethe.solve"))
    out["bethe.failed"] = sum(1 for s in tr.outermost(spans, "bethe.solve") if s[tr.FAILED])
    return out


def layer_metrics(totals: dict, tracer: tr.Tracer, ops: int) -> dict:
    """Per-layer values per op, from summed span totals and the tracer's
    work counts over ``ops`` traced ops."""
    counts, maxima = tracer.counts, tracer.maxima
    per_op = {k: v / ops for k, v in totals.items()}
    for key in ("tensor.embed_pair.bytes", "lax.monodromy.flops", "kernels.grid_eval.points",
                "kernels.integrand.points", "kernels.fourier_sum.terms", "checks.reports", "checks.failed"):
        per_op[key] = counts.get(key, 0.0) / ops
    computed = counts.get("checks.entries.computed", 0.0)
    per_op["checks.useful_entry_ratio"] = counts.get("checks.entries.useful", 0.0) / computed if computed else 0.0
    residuals = totals.get("bethe.solve_residuals", 0)
    per_op["bethe.step_accept_ratio"] = totals["bethe.iterations"] / residuals if residuals else 0.0
    per_op["tensor.peak_matrix_bytes"] = maxima.get("tensor.peak_matrix_bytes", 0.0)
    per_op["lax.monodromy.max_dim"] = maxima.get("lax.monodromy.max_dim", 0.0)
    return per_op
