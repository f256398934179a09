"""Spans and counters around the public functions of each steadywaves layer.

The tracer works from outside the package.  `install` replaces every module
or class attribute that refers to a traced function with a wrapper that
records a span (name, start, end, parent, pass id); `uninstall` puts every
original back.  Spans stay in memory until the pass ends.  A span's self
time is its duration minus the durations of its direct children.

Only the functions in `TIMED` and `COUNTED` are wrapped.  `COUNTED`
functions are called tens of thousands of times per pass (`gamma_cap`
inside `scipy.integrate.quad`), so they get a bare call counter, not a span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import types
from collections import defaultdict

MARK = "__bench_wrapped__"

# Modules other than steadywaves that hold their own reference to a traced
# function: ARPACK's shift-invert mode factorizes with its own `splu` name,
# which is the factorization inside `solver.wave_seed`.
_EXTRA_MODULES = {
    "splu": ("scipy.sparse.linalg._eigen.arpack.arpack",),
}


def _quadrature(fn, args, kwargs):
    """(bound arguments, nq, npp) of one pairing call."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    nq, npp = a.get("nq"), a.get("npp")
    grid = getattr(a.get("fields", a.get("field_like")), "grid", None)
    if nq is None:
        nq = grid.Nq if grid is not None else 128
    if npp is None:
        npp = grid.Np if grid is not None else 256
    return a, nq, npp


def _quad_points(tracer, args, kwargs, result, fn):
    """Add nq * npp of one pairing's own quadrature rule."""
    _, nq, npp = _quadrature(fn, args, kwargs)
    tracer.counts["weakform.quad_points"] += nq * npp


def _euler_key(tracer, args, kwargs, result, fn):
    """Count the quadrature and record which (bump, level) was computed."""
    a, nq, npp = _quadrature(fn, args, kwargs)
    tracer.counts["weakform.quad_points"] += nq * npp
    tf = getattr(a["phi"], "tf", a["phi"])
    tracer.euler_keys.add((tf.center, tf.radii, nq, npp))


def _eval_points(tracer, args, kwargs, result, fn):
    tracer.counts["field.eval_points"] += int(result.size)


def _newton(tracer, args, kwargs, result, fn):
    tracer.counts["solver.newton_iters"] += result.iterations
    tracer.counts["solver.stagnation_hits"] += result.stagnation_hits


def _jacobian_nnz(tracer, args, kwargs, result, fn):
    tracer.maxima["solver.jacobian_nnz"] = max(
        tracer.maxima["solver.jacobian_nnz"], int(result.nnz))


def _lu_nnz(tracer, args, kwargs, result, fn):
    tracer.maxima["solver.lu_fill_nnz"] = max(
        tracer.maxima["solver.lu_fill_nnz"], int(result.nnz))


def _csv_bytes(tracer, args, kwargs, result, fn):
    path = args[0] if args else kwargs["path"]
    tracer.counts["cli.csv_bytes_written"] += os.path.getsize(path)


_SAMPLED = "steadywaves.field:SampledEvaluator"
_ANALYTIC = "steadywaves.field:AnalyticHeightField"

# (span name, owner, attribute, hook run on the result).  An owner is a
# module, or "module:Class" for a method.
TIMED = [
    ("config.load", "steadywaves.config", "load_config", None),
    ("cli.csv_write", "steadywaves.cli", "write_csv", _csv_bytes),
    ("cli.csv_read", "steadywaves.cli", "read_csv", None),
    ("grid.build", "steadywaves.grid:Grid", "__post_init__", None),
    ("laminar.solve", "steadywaves.laminar", "solve", None),
    ("solver.residual", "steadywaves.solver:HeightSystem", "residual_parts",
     None),
    ("solver.jacobian", "steadywaves.solver:HeightSystem", "jacobian_matrix",
     _jacobian_nnz),
    ("solver.newton", "steadywaves.solver", "newton_solve", _newton),
    ("solver.wave_seed", "steadywaves.solver", "wave_seed", None),
    ("solver.continuation", "steadywaves.solver", "continuation", None),
    ("solver.factor", "scipy.sparse.linalg", "splu", _lu_nnz),
    ("field.evaluator_build", _SAMPLED, "__init__", None),
    ("field.eval", _SAMPLED, "h_at", _eval_points),
    ("field.eval", _SAMPLED, "hq_at", _eval_points),
    ("field.eval", _SAMPLED, "hp_at", _eval_points),
    ("field.eval", _ANALYTIC, "h_at", _eval_points),
    ("field.eval", _ANALYTIC, "hq_at", _eval_points),
    ("field.eval", _ANALYTIC, "hp_at", _eval_points),
    ("transform.reconstruct", "steadywaves.transform", "reconstruct_fields",
     None),
    ("weakform.pair_height", "steadywaves.weakform", "pair_height",
     _quad_points),
    ("weakform.pair_stream", "steadywaves.weakform", "pair_stream",
     _quad_points),
    ("weakform.pair_euler", "steadywaves.weakform", "pair_euler", _euler_key),
    ("weakform.pushforward", "steadywaves.weakform", "pushforward_testfn",
     None),
    ("weakform.cross_identity", "steadywaves.weakform", "cross_identity",
     _quad_points),
    ("weakform.interp_rows", "steadywaves.weakform", "interp_rows", None),
    ("weakform.surface_identity", "steadywaves.weakform", "surface_identity",
     None),
    ("weakform.mollification", "steadywaves.weakform", "mollification_rate",
     None),
    ("weakform.norm_grad_rect", "steadywaves.weakform", "norm_grad_rect",
     None),
]

COUNTED = [
    ("vorticity.gamma_cap", "steadywaves.vorticity", "gamma_cap"),
]


def _resolve(owner):
    modname, _, clsname = owner.partition(":")
    mod = importlib.import_module(modname)
    return getattr(mod, clsname) if clsname else mod


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "steadywaves" or n.startswith("steadywaves.")]


def _references(owner, attr):
    """Every (holder, name) through which callers reach owner.attr."""
    holder = _resolve(owner)
    original = vars(holder)[attr]
    if inspect.isclass(holder):
        return original, [(holder, attr)]
    modules = _package_modules() + [holder]
    modules += [sys.modules[n] for n in _EXTRA_MODULES.get(attr, ())
                if n in sys.modules]
    refs = []
    for mod in dict.fromkeys(modules):
        refs += [(mod, name) for name, val in vars(mod).items()
                 if val is original]
    return original, refs


class Tracer:
    """In-memory spans and counters of one pass."""

    def __init__(self, pass_id=0):
        self.pass_id = pass_id
        self.spans = []                 # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.euler_keys = set()
        self._stack = []
        self._patches = []              # (holder, name, original)

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _timed(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result, fn)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self):
        """Wrap every traced function; undone by `uninstall`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for name, owner, attr, hook in TIMED:
                original, refs = _references(owner, attr)
                self._patch(refs, self._timed(name, original, hook), original)
            for name, owner, attr in COUNTED:
                original, refs = _references(owner, attr)
                self._patch(refs, self._counted(name, original), original)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, refs, wrapper, original):
        for holder, name in refs:
            self._patches.append((holder, name, original))
            setattr(holder, name, wrapper)

    def uninstall(self):
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)

    # -- derived metrics ------------------------------------------------------

    def totals(self):
        """{span name: (calls, inclusive seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def metrics(self):
        """Per-layer metrics of the pass (see bench/README.md)."""
        tot = self.totals()

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def secs(name):
            return tot.get(name, (0, 0.0, 0.0))[1]

        c = self.counts
        newton_calls = calls("solver.newton")
        residual_calls = calls("solver.residual")
        euler_calls = calls("weakform.pair_euler")
        m = {
            "solver.factor_s": secs("solver.factor"),
            "solver.factorizations": calls("solver.factor"),
            "solver.lu_fill_nnz": self.maxima["solver.lu_fill_nnz"],
            "solver.jacobian_s": secs("solver.jacobian"),
            "solver.jacobian_calls": calls("solver.jacobian"),
            "solver.jacobian_nnz": self.maxima["solver.jacobian_nnz"],
            "solver.residual_s": secs("solver.residual"),
            "solver.residual_calls": residual_calls,
            "solver.newton_iters": c["solver.newton_iters"],
            "solver.newton_iters_per_step": (
                c["solver.newton_iters"] / newton_calls
                if newton_calls else 0.0),
            "solver.step_accept_ratio": (
                c["solver.newton_iters"] / residual_calls
                if residual_calls else 0.0),
            "solver.stagnation_hits": c["solver.stagnation_hits"],
            "solver.wave_seed_s": secs("solver.wave_seed"),
            "solver.continuation_s": secs("solver.continuation"),
            "laminar.solve_s": secs("laminar.solve"),
            "vorticity.gamma_cap_calls": c["vorticity.gamma_cap_calls"],
            "grid.build_s": secs("grid.build"),
            "grid.builds": calls("grid.build"),
            "config.load_s": secs("config.load"),
            "field.evaluator_builds": calls("field.evaluator_build"),
            "field.evaluator_build_s": secs("field.evaluator_build"),
            "field.eval_calls": calls("field.eval"),
            "field.eval_points": c["field.eval_points"],
            "field.eval_s": secs("field.eval"),
            "transform.reconstruct_calls": calls("transform.reconstruct"),
            "transform.reconstruct_s": secs("transform.reconstruct"),
        }
        for fn in ("pair_height", "pair_stream", "pair_euler", "pushforward",
                   "cross_identity", "interp_rows"):
            m[f"weakform.{fn}_calls"] = calls(f"weakform.{fn}")
            m[f"weakform.{fn}_s"] = secs(f"weakform.{fn}")
        m.update({
            "weakform.surface_identity_s": secs("weakform.surface_identity"),
            "weakform.mollification_s": secs("weakform.mollification"),
            "weakform.norm_grad_rect_s": secs("weakform.norm_grad_rect"),
            "weakform.pair_euler_useful_ratio": (
                len(self.euler_keys) / euler_calls if euler_calls else 0.0),
            "weakform.quad_points": c["weakform.quad_points"],
            "cli.csv_write_s": secs("cli.csv_write"),
            "cli.csv_bytes_written": c["cli.csv_bytes_written"],
            "cli.csv_read_s": secs("cli.csv_read"),
            "cli.solve_s": secs("cli.solve"),
            "cli.transform_s": secs("cli.transform"),
            "cli.verify_s": secs("cli.verify"),
        })
        return m

    def span_records(self):
        """Spans as JSON-ready dicts, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p,
                 "pass": self.pass_id} for n, s, e, p in self.spans]


def leaked_wrappers():
    """(holder, name) of every attribute that still holds a wrapper."""
    holders = _package_modules()
    holders += [_resolve(owner) for _, owner, *_ in TIMED + COUNTED]
    holders += [sys.modules[n] for names in _EXTRA_MODULES.values()
                for n in names if n in sys.modules]
    return sorted({(getattr(h, "__name__", repr(h)), name)
                   for h in holders for name, val in vars(h).items()
                   if isinstance(val, types.FunctionType)
                   and getattr(val, MARK, False)})
