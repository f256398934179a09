"""Batch front-end: laminar / solve / transform / verify / report.

All numeric output uses 17 significant digits so files round-trip doubles
exactly; JSON keys are sorted and iteration order is fixed, making runs
byte-identical for identical configs (the manifests' timestamp field is the
single exception).  A CSV file holds one "%.17g" row per element of its
columns broadcast to a common shape, in C order, so `field.csv` is written
from [q[:, None], p, h]; the bytes are those of a per-row formatter, but
the file is streamed one leading row (a q-row) at a time, each made by one
or two `%` calls on a line template that holds the texts of the columns'
repeated rows, each formatted once (`write_csv`).

`solve` also writes `field.npz` beside `field.csv`: the exact h and the
SHA-256 of the CSV's bytes.  `transform` and `verify` take h from it only
when that digest is the one of the `--field` file they are given and h has
the configured grid's shape and dtype; any other CSV is parsed
(`read_field`), so `field.csv` stays the interface.

Exit codes: 0 success, 2 validation error, 3 non-convergence (also no
laminar flow for the vorticity, or an exactly singular laminar modal
block), 4 verification-threshold failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import zipfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config, ConfigError
from .grid import Grid, GridError
from .field import AdmissibilityError, HeightField
from .modal import SingularModeError
from . import laminar as laminar_mod
from . import solver as solver_mod
from . import transform as transform_mod
from . import weakform as wf


def _fmt(x):
    return f"{float(x):.17g}"


def _distinct_rows(a, lead):
    """(rows, index, count): `a`'s rows along its last axis, for each
    leading row of the common shape `lead` (C order) the position in rows
    of the first row equal to its own, and the number of distinct rows.

    Rows are compared bit for bit, so 0.0 and -0.0, or values one ulp
    apart, are never the same row.
    """
    rows = a.reshape(-1, a.shape[-1])
    seen, first = {}, []
    for r in rows:
        first.append(seen.setdefault(r.tobytes(), len(first)))
    index = np.broadcast_to(np.reshape(first, a.shape[:-1]), lead)
    return rows, index.ravel().tolist(), len(seen)


def _interleaved(rows):
    """The values of equal-length rows as one tuple, line by line."""
    return tuple(np.stack(rows, axis=-1).ravel().tolist()) if rows else ()


def _markers():
    """Characters that no "%.17g" text, separator or placeholder holds,
    one to mark each column with one value per leading row."""
    return (chr(c) for c in range(sys.maxunicode + 1)
            if chr(c) not in "%+-.0123456789einfa,\n")


def write_csv(path, header, columns):
    """One row per element of the columns broadcast to a common shape.

    The columns are arrays of one or more dimensions; the rows run in C
    order over their common shape.  Each leading row (a row of the common
    shape less its last axis, a q-row of `field.csv`) is written as one
    text, made by one or two `%` calls on a line template for all of its
    lines.  A column's values enter the template by its rows' kind:
    - one distinct row (`p`, `psi`): formatted once, as literal text;
    - one value per leading row (`q[:, None]`, `x[:, None]`): formatted
      once per leading row, and put in place of the column's marker;
    - rows that repeat (`h`, or `y`, `u`, `P`, which are even in q):
      formatted once per distinct combination of these columns' rows, a
      template kept until the last leading row that uses it;
    - rows that do not (`v`): formatted into the template per leading row.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        if not np.prod(shape):
            return
        n, lead = shape[-1], shape[:-1]
        n_lead = int(np.prod(lead))
        # each placeholder is escaped once for each `%` before its own:
        # the literal texts', the combination's and the leading row's
        markers, cells = _markers(), []
        const, per_lead, repeat, unique = [], [], [], []
        for a in arrays:
            rows, index, count = _distinct_rows(a, lead)
            if count == 1:
                cells.append("%.17g")
                const.append(np.broadcast_to(rows[0], n))
            elif a.shape[-1] < n:
                cells.append(next(markers))
                per_lead.append((cells[-1], rows[index, 0].tolist()))
            elif count < n_lead:
                cells.append("%%.17g")
                repeat.append((rows, index))
            else:
                cells.append("%%%%.17g")
                unique.append((rows, index))
        base = (",".join(cells) + "\n") * n % _interleaved(const)
        keys = (list(zip(*(index for _, index in repeat))) if repeat
                else [()] * n_lead)
        last = {key: i for i, key in enumerate(keys)}
        templates = {}
        for i, key in enumerate(keys):
            text = templates.pop(key, None)
            if text is None:
                text = base % _interleaved(
                    [rows[k] for (rows, _), k in zip(repeat, key)])
            if last[key] > i:
                templates[key] = text
            if unique:
                text %= _interleaved([rows[index[i]]
                                      for rows, index in unique])
            for marker, values in per_lead:
                text = text.replace(marker, _fmt(values[i]))
            fh.write(text)


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
    """Provenance of one subcommand, in its own `manifest.<command>.json`,
    so subcommands sharing an output directory keep each other's."""
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(cfg.raw_text.encode()).hexdigest(),
        "grid": {"Nq": cfg.Nq, "Np": cfg.Np},
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    write_json(Path(outdir) / f"manifest.{command}.json", manifest)


def make_grid(cfg: RunConfig) -> Grid:
    return Grid(cfg.Nq, cfg.Np, aligned_jumps=cfg.vorticity.breakpoints)


def _sha256(path):
    """The SHA-256 hex digest of a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_field(outdir, hf: HeightField, summary):
    """`field.csv`, its sidecar `field.npz` (h and the CSV's digest) and
    `field.json`."""
    g = hf.grid
    path = Path(outdir) / "field.csv"
    write_csv(path, ["q", "p", "h"], [g.q[:, None], g.p, hf.h])
    np.savez(path.with_suffix(".npz"), h=hf.h, csv_sha256=_sha256(path))
    write_json(Path(outdir) / "field.json", summary)


class SchemaError(ValueError):
    """Field file does not match the configured grid."""


def _sidecar_h(path, shape):
    """h from the `.npz` beside the field CSV `path`, or None unless the
    sidecar exists, its `csv_sha256` is the digest of the CSV's bytes and
    its h is a float64 array of `shape`.

    The digest ties h to the very bytes it was written as, and "%.17g"
    round-trips every double, so h is the array the CSV parses to.  Its q
    and p columns were written from a grid of this shape, whose nodes
    depend on the shape alone, so they need no check either.
    """
    try:
        with np.load(Path(path).with_suffix(".npz"),
                     allow_pickle=False) as z:
            digest, h = z["csv_sha256"], z["h"]
    except (OSError, EOFError, ValueError, KeyError, TypeError,
            zipfile.BadZipFile):
        # no sidecar, or none that loads; a plain .npy loads as an array,
        # which `with` refuses by TypeError
        return None
    if (str(digest) != _sha256(path) or h.dtype != np.float64
            or h.shape != shape):
        return None
    return np.ascontiguousarray(h)


def _parse_field(path, g: Grid):
    """h from the field CSV `path`, its columns and nodes checked against
    the grid `g`."""
    header, data = read_csv(path)
    if header != ["q", "p", "h"]:
        raise SchemaError(f"{path}: expected columns q,p,h, got {header}")
    n_expected = g.Nq * (g.Np + 1)
    if data.shape[0] != n_expected:
        raise SchemaError(f"{path}: {data.shape[0]} rows, grid needs "
                          f"{n_expected}; stale field file?")
    h = data[:, 2].reshape(g.Nq, g.Np + 1).copy()   # a view keeps q, p alive
    nodes = np.broadcast_arrays(g.q[:, None], g.p)
    for name, col, want in zip("qp", data[:, :2].T, nodes):
        if np.max(np.abs(col.reshape(want.shape) - want)) > 1e-12:
            raise SchemaError(f"{path}: {name}-grid mismatch with config")
    return h


def read_field(path, cfg: RunConfig) -> HeightField:
    """The field at the CSV `path` on the configured grid, with the Q of
    its own summary `<stem>.json` and no other, a finite number: h from
    the digest-checked sidecar (`_sidecar_h`) or else parsed from the CSV,
    and checked admissible either way."""
    g = make_grid(cfg)
    h = _sidecar_h(path, (g.Nq, g.Np + 1))
    if h is None:
        h = _parse_field(path, g)
    side = Path(path).with_suffix(".json")
    if not side.is_file():
        raise SchemaError(f"missing field summary {side}")
    try:
        Q = json.loads(side.read_text())["Q"]
        finite = type(Q) in (int, float) and np.isfinite(Q)   # no bool
    except (ValueError, KeyError, TypeError):
        finite = False
    if not finite:
        raise SchemaError(f"{side}: Q is not a finite number")
    hf = HeightField(g, h, Q=float(Q))
    try:
        hf.check_admissible()
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
        chain, error = [[g.Nq, g.Np]], None
    else:
        lf = laminar_mod.solve(cfg.vorticity, cfg.params, g.p)
        hf0 = HeightField(g, np.tile(lf.h, (g.Nq, 1)), Q=lf.Q)
        cont = solver_mod.continuation(hf0, cfg.vorticity, cfg.params,
                                       cfg.amplitude_schedule, tol=cfg.tol,
                                       max_iter=cfg.max_iter)
        chain = cont.grid_chain
        error = None if cont.converged else (
            f"continuation failed at amplitude {cont.failed_amplitude}: "
            f"{cont.message}")
        # a failed continuation still writes its last converged field
        hf = cont.fields[-1] if cont.fields else None
        iters = -1 if error else len(cont.fields)
        res_inf = None if hf is None else _residual_inf(hf, cfg)
    if hf is not None:
        write_field(outdir, hf, _solve_summary(hf, cfg, iters, res_inf, chain))
    write_manifest(outdir, cfg, "solve")
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    _say(args, f"solve: Q = {hf.Q:.12g}, residual_inf = {res_inf:.3e}")
    return 0


def _residual_inf(hf: HeightField, cfg: RunConfig):
    interior, surface = solver_mod.residual(hf, cfg.vorticity, cfg.params)
    return max(np.max(np.abs(interior)), np.max(np.abs(surface)))


def _solve_summary(hf: HeightField, cfg: RunConfig, iterations, residual_inf,
                   grid_chain):
    return {
        "Q": hf.Q,
        "amplitude": hf.amplitude(cfg.params.d),
        "residual_inf": residual_inf,
        "iterations": iterations,
        "min_one_plus_hp": hf.min_one_plus_hp(),
        "grid_chain": grid_chain,
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


def run_verify(cfg: RunConfig, outdir, args, field_path):
    hf = read_field(field_path, cfg)
    tfs = wf.default_lattice()
    v, params = cfg.vorticity, cfg.params
    fields = transform_mod.reconstruct_fields(hf, v, params)
    g = hf.grid

    # quadrature: q is refined to resolve the bump sums (the field's trig
    # interpolant is exact, so extra q-nodes cost nothing in accuracy); in
    # p the sampled field is exact only at level 1's trapezoid nodes and is
    # interpolated linearly elsewhere, which refinement_order measures too
    nq_base = g.Nq * max(1, -(-256 // g.Nq))
    npp_base = g.Np

    # one pass per level: every field is resampled once, then each bump is
    # paired against what the level reports: a configured level the five
    # formulations, level 1 the cross identity too, and a level 1 outside
    # verify.levels the cross identity alone
    names = ("height", "stream") + wf.EULER_NAMES
    norms = [wf.norm_grad_rect(tf) for tf in tfs]
    ev = hf.evaluator()
    values = {}   # (formulation, level) -> [value per bump]
    cross = []
    for lvl in dict.fromkeys([*cfg.levels, 1]):
        asked = ["cross"] if lvl == 1 else []
        if lvl in cfg.levels:
            asked += ["height", "stream", "euler"]
        level = wf.QuadratureLevel(params, nq_base * lvl, npp_base * lvl, v,
                                   field_like=ev, fields=fields)
        for tf in tfs:
            vals = level.sums(tf, *asked)
            if "cross" in vals:
                lhs, rhs, gap = vals.pop("cross")
                cross.append({"center": list(tf.center), "lhs": lhs,
                              "rhs": rhs, "gap": gap})
            for name, val in vals.items():
                values.setdefault((name, lvl), []).append(val)
        del level   # its resampled series, before the next level's
    surf = wf.surface_identity(ev, params, Q=hf.Q)
    del ev          # and the evaluator's, before the mollifier's

    # each formulation's verify.json entry and verify.csv rows; its maximum
    # is the first level's
    pairings = []
    lines = ["formulation,q_center,p_center,level,value,normalizer"]
    for name in names:
        refinement, rates = [], {}
        for lvl in cfg.levels:
            vals = values[name, lvl]
            lines += [f"{name},{_fmt(tf.center[0])},{_fmt(tf.center[1])},"
                      f"{lvl},{_fmt(val)},{_fmt(norm)}"
                      for tf, val, norm in zip(tfs, vals, norms)]
            refinement.append({"level": lvl,
                               "max_abs": wf.max_normalized(vals, norms)})
        l0, l1 = refinement[0], refinement[-1]
        if len(refinement) >= 2 and l1["max_abs"] > 0:
            rates["refinement_order"] = float(
                np.log(l0["max_abs"] / l1["max_abs"])
                / np.log(l1["level"] / l0["level"]))
        pairings.append({
            "formulation": name,
            "per_testfn": [{"center": list(tf.center),
                            "radii": list(tf.radii), "value": val,
                            "normalizer": norm}
                           for tf, val, norm in zip(
                               tfs, values[name, cfg.levels[0]], norms)],
            "refinement": refinement,
            "fitted_rates": rates,
            "max_normalized": l0["max_abs"],
        })

    out = {
        "pairings": pairings,
        "cross_identity": cross,
        "surface_identity": surf,
    }
    if cfg.eps_list:
        out["mollification"] = wf.mollification_rate(fields, params,
                                                     cfg.eps_list)
    write_json(Path(outdir) / "verify.json", out)
    (Path(outdir) / "verify.csv").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")
    write_manifest(outdir, cfg, "verify")

    failed = False
    for rep in pairings:
        mx = rep["max_normalized"]
        verdict = "PASS" if mx <= cfg.pairing_tol else "FAIL"
        failed |= verdict == "FAIL"
        _say(args, f"verify {rep['formulation']:9s}: max normalized pairing "
                   f"{mx:.3e} {verdict}")
    # the bumps are supported inside R, so only this line tests the dynamic
    # surface condition
    surface_ok = surf["surface_residual"] <= cfg.pairing_tol * abs(hf.Q)
    _say(args, f"verify surface  : identity gap {surf['identity_gap_rel']:.3e}, "
               f"|lhs-Q| {surf['surface_residual']:.3e} "
               f"{'PASS' if surface_ok else 'FAIL'}")
    return 4 if failed or not surface_ok else 0


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
    except (ConfigError, GridError, SchemaError, wf.MollifierError,
            FileNotFoundError) as exc:
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
    except (laminar_mod.LaminarError, SingularModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
