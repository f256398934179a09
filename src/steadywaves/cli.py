"""Batch front-end: laminar / solve / transform / verify / report.

All numeric output uses 17 significant digits so files round-trip doubles
exactly; JSON keys are sorted and iteration order is fixed, making runs
byte-identical for identical configs (the manifest's timestamp field is the
single exception).  A CSV file holds one "%.17g" row per element of its
columns broadcast to a common shape, in C order, so `field.csv` is written
from [q[:, None], p, h]; the bytes are those of a per-row formatter, but
each distinct row of each column is formatted only once.

Exit codes: 0 success, 2 validation error, 3 non-convergence (also no
laminar flow for the vorticity), 4 verification-threshold failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config, ConfigError
from .grid import Grid, AlignmentError
from .field import AdmissibilityError, HeightField
from . import laminar as laminar_mod
from . import solver as solver_mod
from . import transform as transform_mod
from . import weakform as wf


def _fmt(x):
    return f"{float(x):.17g}"


def _format_rows(a):
    """Each value of `a` as a "%.17g" string, in an object array of its shape.

    Rows (along the last axis) with equal bit patterns are formatted once,
    so 0.0 and -0.0, or values one ulp apart, never share a string.
    """
    rows = np.ascontiguousarray(a).reshape(-1, a.shape[-1])
    keys = rows.view(np.dtype((np.void, rows[0].nbytes))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    values = distinct.view(np.float64).tolist()
    text = ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]
    strings = np.array(text, dtype=object).reshape(len(distinct), -1)
    return strings[inverse.ravel()].reshape(a.shape)


def write_csv(path, header, columns):
    """One row per element of the columns broadcast to a common shape.

    The columns are arrays of one or more dimensions; the rows run in C
    order over their common shape.  Each column is formatted at its own
    shape, so a (Nq, 1) column is formatted Nq times, not once per row it
    fills.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    n_rows = int(np.prod(shape))
    cells = ()
    if n_rows:
        cells = tuple(np.stack([np.broadcast_to(_format_rows(a), shape)
                                for a in arrays], axis=-1).ravel().tolist())
    row = ",".join(["%s"] * len(arrays)) + "\n"
    Path(path).write_text(",".join(header) + "\n" + row * n_rows % cells,
                          encoding="utf-8")


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    # loadtxt reads a named file in chunks, but an open handle line by line,
    # which takes about 10% longer
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def write_manifest(outdir, cfg: RunConfig, command):
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(cfg.raw_text.encode()).hexdigest(),
        "grid": {"Nq": cfg.Nq, "Np": cfg.Np},
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    write_json(Path(outdir) / "manifest.json", manifest)


def make_grid(cfg: RunConfig) -> Grid:
    return Grid(cfg.Nq, cfg.Np, aligned_jumps=cfg.vorticity.breakpoints)


def write_field(outdir, hf: HeightField, summary):
    g = hf.grid
    write_csv(Path(outdir) / "field.csv", ["q", "p", "h"],
              [g.q[:, None], g.p, hf.h])
    write_json(Path(outdir) / "field.json", summary)


class SchemaError(ValueError):
    """Field file does not match the configured grid."""


def read_field(path, cfg: RunConfig) -> HeightField:
    header, data = read_csv(path)
    if header != ["q", "p", "h"]:
        raise SchemaError(f"{path}: expected columns q,p,h, got {header}")
    g = make_grid(cfg)
    n_expected = g.Nq * (g.Np + 1)
    if data.shape[0] != n_expected:
        raise SchemaError(f"{path}: {data.shape[0]} rows, grid needs "
                          f"{n_expected}; stale field file?")
    h = data[:, 2].reshape(g.Nq, g.Np + 1)
    qq = data[:, 0].reshape(g.Nq, g.Np + 1)[:, 0]
    if np.max(np.abs(qq - g.q)) > 1e-12:
        raise SchemaError(f"{path}: q-grid mismatch with config")
    side = Path(path).with_suffix(".json")
    if not side.exists():
        side = Path(path).parent / "field.json"
    if not side.exists():
        raise SchemaError(f"missing field summary JSON next to {path}")
    Q = json.loads(side.read_text())["Q"]
    hf = HeightField(g, h, Q=Q)
    try:
        hf.check_admissible(solver_mod.EPS_STAG_DEFAULT)
    except AdmissibilityError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return hf


def _say(args, msg):
    if not args.quiet:
        print(msg)


# -- subcommands -----------------------------------------------------------------


def run_laminar(cfg: RunConfig, outdir, args):
    g = make_grid(cfg)
    lf = laminar_mod.solve(cfg.vorticity, cfg.params, g.p)
    write_csv(Path(outdir) / "laminar.csv", ["p", "h", "h_p"],
              [lf.p, lf.h, lf.h_p])
    write_json(Path(outdir) / "laminar.json", {"Q": lf.Q, "lambda": lf.lam})
    write_manifest(outdir, cfg, "laminar")
    _say(args, f"laminar: lambda = {lf.lam:.12g}, Q = {lf.Q:.12g}")
    return 0


def run_solve(cfg: RunConfig, outdir, args):
    g = make_grid(cfg)
    if cfg.mode == "fixed_Q":
        hf0 = HeightField(g, np.zeros((g.Nq, g.Np + 1)), Q=cfg.Q)
        result = solver_mod.newton_solve(hf0, cfg.vorticity, cfg.params,
                                         mode="fixed_Q", Q=cfg.Q,
                                         tol=cfg.tol, max_iter=cfg.max_iter)
        hf, iters, res_inf = result.field, result.iterations, result.residual_inf
    else:
        lf = laminar_mod.solve(cfg.vorticity, cfg.params, g.p)
        hf0 = HeightField(g, np.tile(lf.h, (g.Nq, 1)), Q=lf.Q)
        cont = solver_mod.continuation(hf0, cfg.vorticity, cfg.params,
                                       cfg.amplitude_schedule, tol=cfg.tol,
                                       max_iter=cfg.max_iter)
        if not cont.converged:
            print(f"error: continuation failed at amplitude "
                  f"{cont.failed_amplitude}: {cont.message}", file=sys.stderr)
            if cont.fields:
                last = cont.fields[-1]
                write_field(outdir, last, _solve_summary(
                    last, cfg, iterations=-1, residual_inf=float("nan")))
            write_manifest(outdir, cfg, "solve")
            return 3
        hf = cont.fields[-1]
        interior, surface = solver_mod.residual(hf, cfg.vorticity, cfg.params)
        res_inf = max(np.max(np.abs(interior)), np.max(np.abs(surface)))
        iters = len(cont.fields)
    write_field(outdir, hf, _solve_summary(hf, cfg, iters, res_inf))
    write_manifest(outdir, cfg, "solve")
    _say(args, f"solve: Q = {hf.Q:.12g}, residual_inf = {res_inf:.3e}")
    return 0


def _solve_summary(hf: HeightField, cfg: RunConfig, iterations, residual_inf):
    return {
        "Q": hf.Q,
        "amplitude": hf.amplitude(cfg.params.d),
        "residual_inf": residual_inf,
        "iterations": iterations,
        "min_one_plus_hp": hf.min_one_plus_hp(),
    }


def run_transform(cfg: RunConfig, outdir, args, field_path):
    hf = read_field(field_path, cfg)
    fields = transform_mod.reconstruct_fields(hf, cfg.vorticity, cfg.params)
    write_csv(Path(outdir) / "fields.csv", ["x", "y", "psi", "u", "v", "P"],
              [fields.x[:, None], fields.y, fields.psi, fields.u, fields.v,
               fields.P])
    write_csv(Path(outdir) / "eta.csv", ["x", "eta"], [fields.x, fields.eta])
    summ = transform_mod.summary(fields, cfg.vorticity, cfg.params)
    write_json(Path(outdir) / "transform.json", summ)
    write_manifest(outdir, cfg, "transform")
    _say(args, f"transform: max(u-c) = {summ['max_u_minus_c']:.3e}, "
               f"collapse = {summ['bernoulli_collapse_err']:.3e}")
    return 0


def _lattice(cfg: RunConfig):
    return wf.default_lattice(cfg.n_q_centers, cfg.radii, cfg.p_centers)


def run_verify(cfg: RunConfig, outdir, args, field_path):
    hf = read_field(field_path, cfg)
    tfs = _lattice(cfg)
    if not tfs:
        raise ConfigError("empty test-function lattice")
    v, params = cfg.vorticity, cfg.params
    fields = transform_mod.reconstruct_fields(hf, v, params)
    g = hf.grid

    # quadrature: q is refined to resolve the bump sums (the field's trig
    # interpolant is exact, so extra q-nodes cost nothing in accuracy);
    # p stays on field-node multiples, where the sampled field is exact
    nq_base = g.Nq * max(1, -(-256 // g.Nq))
    npp_base = g.Np

    # one pass per level: every field is resampled once, then each bump is
    # paired against all five formulations; the cross identity is read at
    # the base level
    names = ("height", "stream") + wf.EULER_NAMES
    norms = [wf.norm_grad_rect(tf) for tf in tfs]
    ev = hf.evaluator()
    values = {}   # (formulation, level) -> [value per bump]
    cross = []
    for lvl in dict.fromkeys([*cfg.levels, 1]):
        level = wf.QuadratureLevel(params, nq_base * lvl, npp_base * lvl, v,
                                   field_like=ev, fields=fields)
        for tf in tfs:
            vals = level.pairings(tf, with_cross=lvl == 1)
            for name in names:
                values.setdefault((name, lvl), []).append(vals[name])
            if lvl == 1:
                lhs, rhs, gap = vals["cross"]
                cross.append({"center": list(tf.center), "lhs": lhs,
                              "rhs": rhs, "gap": gap})

    reports = []
    rows = []  # flat CSV rows: formulation, q0, pc, level, value, normalizer
    for name in names:
        rep = wf.PairingReport(formulation=name)
        for lvl in cfg.levels:
            vals = values[name, lvl]
            for tf, val, norm in zip(tfs, vals, norms):
                if lvl == cfg.levels[0]:
                    rep.per_testfn.append({
                        "center": list(tf.center), "radii": list(tf.radii),
                        "value": val, "normalizer": norm})
                rows.append([name, tf.center[0], tf.center[1], lvl, val, norm])
            rep.refinement.append({
                "level": lvl,
                "max_abs": max(abs(val) / max(norm, 1e-300)
                               for val, norm in zip(vals, norms))})
        if len(rep.refinement) >= 2 and rep.refinement[-1]["max_abs"] > 0:
            l0, l1 = rep.refinement[0], rep.refinement[-1]
            rep.fitted_rates["refinement_order"] = float(
                np.log(l0["max_abs"] / l1["max_abs"])
                / np.log(l1["level"] / l0["level"]))
        reports.append(rep)

    surf = wf.surface_identity(hf, params)
    out = {
        "pairings": [r.to_dict() for r in reports],
        "cross_identity": cross,
        "surface_identity": surf,
    }
    if cfg.eps_list:
        out["mollification"] = wf.mollification_rate(fields, params,
                                                     cfg.eps_list)
    write_json(Path(outdir) / "verify.json", out)
    lines = ["formulation,q_center,p_center,level,value,normalizer"]
    for name, q0, pc, lvl, val, norm in rows:
        lines.append(f"{name},{_fmt(q0)},{_fmt(pc)},{lvl},{_fmt(val)},"
                     f"{_fmt(norm)}")
    (Path(outdir) / "verify.csv").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")
    write_manifest(outdir, cfg, "verify")

    failed = False
    for rep in reports:
        mx = rep.max_normalized()
        verdict = "PASS" if mx <= cfg.pairing_tol else "FAIL"
        failed |= verdict == "FAIL"
        _say(args, f"verify {rep.formulation:9s}: max normalized pairing "
                   f"{mx:.3e} {verdict}")
    _say(args, f"verify surface  : identity gap {surf['identity_gap_rel']:.3e}, "
               f"|lhs-Q| {surf['surface_residual']:.3e}")
    return 4 if failed else 0


def run_report(outdir, args):
    rows = []
    for name in ("laminar", "field", "transform", "verify"):
        p = Path(outdir) / f"{name}.json"
        if p.exists():
            data = json.loads(p.read_text())
            flat = _flatten(data, name)
            rows.extend(flat)
    if not rows:
        _say(args, "report: no JSON summaries found")
        return 0
    lines = ["key,value"]
    for k, val in rows:
        lines.append(f"{k},{val}")
    (Path(outdir) / "report.csv").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")
    width = max(len(k) for k, _ in rows)
    for k, val in rows:
        _say(args, f"{k:<{width}}  {val}")
    return 0


def _flatten(obj, prefix):
    out = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.extend(_flatten(obj[k], f"{prefix}.{k}"))
    elif isinstance(obj, (int, float, str, bool)):
        val = _fmt(obj) if isinstance(obj, float) else str(obj)
        out.append((prefix, val))
    return out


# -- entry point -------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="steadywaves",
        description="Steady periodic rotational water waves of fixed mean "
                    "depth: solve, transform and verify.")
    parser.add_argument("command",
                        choices=["laminar", "solve", "transform", "verify",
                                 "report"])
    parser.add_argument("--config", help="run configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--field", help="height-field CSV (transform/verify)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            if not args.out:
                parser.error("report needs --out")
            return run_report(args.out, args)
        if not args.config:
            parser.error(f"{args.command} needs --config")
        cfg = load_config(args.config)
        outdir = Path(args.out or cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "laminar":
            return run_laminar(cfg, outdir, args)
        if args.command == "solve":
            return run_solve(cfg, outdir, args)
        if args.command in ("transform", "verify"):
            if not args.field:
                parser.error(f"{args.command} needs --field")
            if args.command == "transform":
                return run_transform(cfg, outdir, args, args.field)
            return run_verify(cfg, outdir, args, args.field)
    except (ConfigError, AlignmentError, SchemaError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (solver_mod.ConvergenceError, solver_mod.StagnationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        history = getattr(exc, "history", None)
        if history:
            tail = ", ".join(f"{r:.3e}" for r in history[-6:])
            print(f"residual history (last {min(6, len(history))}): {tail}",
                  file=sys.stderr)
        return 3
    except laminar_mod.LaminarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
