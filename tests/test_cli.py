import ast
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import steadywaves
from steadywaves import cli
from steadywaves.cli import main, read_csv, read_field, write_csv, write_field
from steadywaves.config import load_config
from steadywaves import laminar
from steadywaves import modal
from steadywaves import transform as tr
from steadywaves import weakform as wf
from steadywaves.field import HeightField, SampledEvaluator
from steadywaves.grid import Grid
from steadywaves.solver import residual
from steadywaves.vorticity import FlowParameters, two_layer


FLAT_CFG = """\
physics.d = 1.0
physics.g = 9.8
physics.c = 1.0
physics.p0 = -1.0
vorticity.piece = -1.0, 0.0, 0.0
grid.Nq = 16
grid.Np = 32
solver.mode = fixed_Q
solver.Q = 20.6
verify.pairing_tol = 1e-3
"""

TWO_LAYER_CFG = """\
physics.d = 1.0
physics.g = 9.8
physics.c = 1.0
physics.p0 = -1.0
vorticity.piece = -1.0, -0.5, 3.0
vorticity.piece = -0.5, 0.0, 0.0
grid.Nq = 16
grid.Np = 64
solver.mode = fixed_amplitude
solver.amplitude_schedule = 0.0
solver.tol = 1e-11
# pairing noise floor scales with the coarse Np of this smoke grid
verify.pairing_tol = 5e-3
verify.eps_list = 0.8, 1.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_laminar_flat(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FLAT_CFG)
    assert main(["laminar", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "laminar.json").read_text())
    assert summary["lambda"] == pytest.approx(1.0, abs=1e-12)
    assert summary["Q"] == pytest.approx(20.6, abs=1e-12)


def test_laminar_two_layer_matches_module(tmp_path):
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG)
    assert main(["laminar", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    summary = json.loads((tmp_path / "o" / "laminar.json").read_text())
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    v = two_layer(3.0)
    lam = laminar.solve_lambda(v, params)
    # bit-for-bit agreement with the library values
    assert summary["lambda"] == lam
    assert summary["Q"] == laminar.laminar_Q(lam, params)
    header, data = read_csv(tmp_path / "o" / "laminar.csv")
    assert header == ["p", "h", "h_p"]
    lf = laminar.solve(v, params, data[:, 0])
    assert np.max(np.abs(data[:, 1] - lf.h)) == 0.0


def test_laminar_near_floor(tmp_path):
    # gamma = -2.249 below p = -1/2: lam sits 2.5e-7 above its floor |A|
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG.replace(
        "-1.0, -0.5, 3.0", "-1.0, -0.5, -2.249"))
    assert main(["laminar", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    summary = json.loads((tmp_path / "o" / "laminar.json").read_text())
    assert summary["lambda"] == pytest.approx(2.249000249986106, rel=1e-14)


def test_laminar_one_ulp_from_the_floor_exits_0(tmp_path):
    # gamma = -2.2499: one ulp of lam moves the normalization integral by
    # about 2e-12, so only the backward-error test accepts the right lam
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG.replace(
        "-1.0, -0.5, 3.0", "-1.0, -0.5, -2.2499"))
    assert main(["laminar", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    summary = json.loads((tmp_path / "o" / "laminar.json").read_text())
    assert summary["lambda"] == pytest.approx(2.249900002499986, rel=1e-15)


def test_laminar_failures_exit_3(tmp_path, monkeypatch, capsys):
    # no admissible lam (BracketError), and a stalled lam solve
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG.replace(
        "-1.0, -0.5, 3.0", "-1.0, -0.5, -2.3"))
    assert main(["laminar", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG, "ok.cfg")
    monkeypatch.setattr(laminar, "_newton_bisect", lambda fun, lo, hi: lo)
    assert main(["laminar", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    assert "stalled" in capsys.readouterr().err


def test_singular_modal_block_exits_3(tmp_path, monkeypatch, capsys):
    # a zero pivot in p-row 3 of the k = 1 block of the 16x64 grid
    factor = modal.dgbtrf

    def singular(*args, **kwargs):
        lu, piv, _ = factor(*args, **kwargs)
        return lu, piv, 64 + 3

    monkeypatch.setattr(modal, "dgbtrf", singular)
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: laminar modal block k = 1 (the cos(1 q) mode) is "
                   "singular: zero pivot in p-row j = 3 of 64"]


def test_cli_import_leaves_out_scipy_integrate_and_optimize():
    # they cost about 40 ms of interpreter start-up on every subcommand
    src = str(Path(steadywaves.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, steadywaves.cli; print(sorted(m for m in "
            "('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# loads, in a fresh interpreter, numpy, scipy.sparse and LAPACK (the
# baseline), then steadywaves.cli, then runs solve -> transform -> verify;
# prints the scipy modules outside the baseline after the import and after
# the run
_COLD_START = """\
import json, sys
def scipy_modules():
    return {m for m in sys.modules if m.split(".")[0] == "scipy"}
import numpy, scipy.sparse, scipy.linalg.lapack
base = scipy_modules()
from steadywaves.cli import main
after_import = sorted(scipy_modules() - base)
cfg, out = sys.argv[1:]
assert main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
for cmd in ("transform", "verify"):
    assert main([cmd, "--config", cfg, "--out", out, "--quiet",
                 "--field", out + "/field.csv"]) == 0
print(json.dumps([after_import, sorted(scipy_modules() - base)]))
"""


def test_cli_loads_no_scipy_beyond_sparse_and_lapack(tmp_path):
    # scipy.fft, scipy.ndimage (with scipy.special) and scipy.sparse.linalg
    # would each add tens of ms to every subcommand's start-up; relative to
    # what numpy, scipy.sparse and scipy.linalg.lapack load on the installed
    # scipy, neither the import nor a whole two-layer job with the mollifier
    # may load more
    src = str(Path(steadywaves.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG)
    out = subprocess.run(
        [sys.executable, "-c", _COLD_START, cfg, str(tmp_path / "o")],
        env=env, check=True, capture_output=True, text=True).stdout
    after_import, after_run = json.loads(out.splitlines()[-1])
    named = ("scipy.fft, scipy.ndimage, scipy.special and scipy.sparse.linalg "
             "must stay off steadywaves' path")
    assert after_import == [], f"import steadywaves.cli loads {after_import}; {named}"
    assert after_run == [], f"solve, transform and verify load {after_run}; {named}"


def _imports(module):
    """Every module name `steadywaves.<module>` imports, at any depth of its
    code, read from its source: `from .a import b` names steadywaves.a and
    steadywaves.a.b, so a submodule imported from its package counts too."""
    path = Path(steadywaves.__file__).with_name(f"{module}.py")
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["steadywaves" if node.level else "",
                                          node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_pairings_import_no_solver_and_modal_no_sparse_matrix():
    # the speed term lives in vorticity, so the transform and the pairings
    # need nothing of the solver; the modal blocks arrive as tables, so
    # modal needs numpy and LAPACK only
    for module in ("weakform", "transform"):
        solver = {n for n in _imports(module)
                  if n.split(".")[:2] == ["steadywaves", "solver"]}
        assert not solver, f"{module} imports {sorted(solver)}"
    sparse = {n for n in _imports("modal")
              if n.split(".")[:2] == ["scipy", "sparse"]}
    assert not sparse, f"modal imports {sorted(sparse)}"


def test_solve_flat_fixed_Q(tmp_path):
    cfg = write_cfg(tmp_path, FLAT_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "field.json").read_text())
    assert summary["residual_inf"] <= 1e-10
    assert summary["Q"] == 20.6
    assert summary["min_one_plus_hp"] == pytest.approx(1.0, abs=1e-12)
    header, data = read_csv(out / "field.csv")
    assert header == ["q", "p", "h"]
    assert np.max(np.abs(data[:, 2])) <= 1e-12


def test_solve_amplitude_zero_matches_laminar(tmp_path):
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, data = read_csv(out / "field.csv")
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    lf = laminar.solve(two_layer(3.0), params, np.linspace(-1, 0, 65))
    h = data[:, 2].reshape(16, 65)
    assert np.max(np.abs(h - lf.h[None, :])) < 1e-6


def test_transform_and_verify_pipeline(tmp_path):
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["transform", "--config", cfg, "--out", str(out / "t"),
                 "--field", str(out / "field.csv"), "--quiet"]) == 0
    tsum = json.loads((out / "t" / "transform.json").read_text())
    assert tsum["max_u_minus_c"] < 0.0
    assert tsum["bernoulli_collapse_err"] < 1e-12
    header, data = read_csv(out / "t" / "fields.csv")
    assert header == ["x", "y", "psi", "u", "v", "P"]
    assert main(["verify", "--config", cfg, "--out", str(out / "v"),
                 "--field", str(out / "field.csv"), "--quiet"]) == 0
    rep = json.loads((out / "v" / "verify.json").read_text())
    names = {r["formulation"] for r in rep["pairings"]}
    assert names == {"height", "stream", "euler_R1", "euler_R2", "euler_R3"}
    assert rep["surface_identity"]["identity_gap_rel"] < 1e-13
    assert "mollification" in rep and len(rep["mollification"]["eps"]) == 2
    assert main(["report", "--out", str(out / "v"), "--quiet"]) == 0
    assert (out / "v" / "report.csv").exists()


def test_verify_threshold_failure_exit_code(tmp_path):
    cfg_text = TWO_LAYER_CFG.replace("verify.pairing_tol = 5e-3",
                                     "verify.pairing_tol = 1e-16")
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out / "v"),
                 "--field", str(out / "field.csv"), "--quiet"]) == 4


def test_missing_field_in_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FLAT_CFG.replace("physics.d = 1.0\n", ""))
    assert main(["laminar", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "physics.d" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    # verify pairs the fixed bump lattice of weakform.default_lattice(), so
    # no key chooses its q-centers, radii or p-centers
    for line in ("solver.colour = blue", "verify.p_centers = -0.5"):
        cfg = write_cfg(tmp_path, FLAT_CFG + line + "\n")
        assert main(["laminar", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        key = line.split(" = ")[0]
        assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["verify.levels = 3",
                                  "verify.eps_list = 0.8",
                                  "verify.pairing_tol = 1e-3"])
def test_repeated_key_rejected(tmp_path, capsys, line):
    # a second line of any key but vorticity.piece is an error, for a list
    # key as for a scalar one, never a silent replacement of the first
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG + "verify.levels = 1, 2\n"
                    + line + "\n")
    assert main(["laminar", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    key = line.split(" = ")[0]
    assert f"duplicate key {key}" in capsys.readouterr().err


def test_misaligned_jump_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG.replace("grid.Np = 64",
                                                    "grid.Np = 63"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "breakpoint" in capsys.readouterr().err


def test_nonconvergence_exit_code(tmp_path):
    # an absurd fixed-Q target the Newton loop cannot reach in 2 iterations
    cfg = write_cfg(tmp_path, FLAT_CFG.replace("solver.Q = 20.6",
                                               "solver.Q = -4000.0")
                    + "solver.max_iter = 2\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3


def test_nonconvergence_message_names_the_worst_residual(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FLAT_CFG.replace("solver.Q = 20.6",
                                               "solver.Q = -4000.0")
                    + "solver.max_iter = 0\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    # h = 0 leaves the interior exact, so the surface rows carry the residual
    assert "worst in the surface at (q, p) = (0, 0)" in capsys.readouterr().err


def test_stale_field_file_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FLAT_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    cfg2 = write_cfg(tmp_path, FLAT_CFG.replace("grid.Np = 32",
                                                "grid.Np = 16"), "run2.cfg")
    assert main(["verify", "--config", cfg2, "--out", str(out / "v"),
                 "--field", str(out / "field.csv")]) == 2
    assert "stale" in capsys.readouterr().err


def _strict_json(path):
    def reject(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=reject)


@pytest.mark.parametrize("corrupt,message", [
    (lambda g, h: h + np.where(np.arange(g.Np + 1) == 0, 1e-3, 0.0),
     "bed row"),
    (lambda g, h: h + 1e-6 * np.sin(g.q)[:, None] * (1 + g.p), "not even"),
    (lambda g, h: h - (1 + g.p)[None, :], "stagnates"),
])
def test_corrupted_field_rejected(tmp_path, capsys, corrupt, message):
    cfg = write_cfg(tmp_path, FLAT_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, data = read_csv(out / "field.csv")
    g = Grid(16, 32)
    h = corrupt(g, data[:, 2].reshape(g.Nq, g.Np + 1))
    # the solve's summary is strict JSON: no NaN or Infinity
    _strict_json(out / "field.json")
    write_field(out, HeightField(g, h, Q=20.6), {"Q": 20.6})
    capsys.readouterr()
    assert main(["transform", "--config", cfg, "--out", str(out / "t"),
                 "--field", str(out / "field.csv"), "--quiet"]) == 2
    assert message in capsys.readouterr().err


def test_reversed_p_column_rejected(tmp_path, capsys):
    # the p column is checked node by node, not only q at each row's first p
    cfg = write_cfg(tmp_path, FLAT_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header, data = read_csv(out / "field.csv")
    q, p, h = (col.reshape(16, 33) for col in data.T)
    write_csv(out / "field.csv", header, [q, p[:, ::-1], h])
    capsys.readouterr()
    assert main(["transform", "--config", cfg, "--out", str(out / "t"),
                 "--field", str(out / "field.csv"), "--quiet"]) == 2
    assert "p-grid mismatch" in capsys.readouterr().err


def test_empty_lattice_rejected(tmp_path, capsys):
    # no key sizes the lattice: verify.n_q_centers is an unknown key
    cfg = write_cfg(tmp_path, FLAT_CFG + "verify.n_q_centers = 0\n")
    assert main(["laminar", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'verify.n_q_centers'" in capsys.readouterr().err


SMALL_TWO_LAYER_CFG = TWO_LAYER_CFG.replace("grid.Np = 64", "grid.Np = 32")


@pytest.fixture(scope="module")
def small_two_layer_field(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    cfg = write_cfg(out, SMALL_TWO_LAYER_CFG)
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    return out / "field.csv"


@pytest.mark.parametrize("key,value", [
    ("grid.Nq", "7"), ("grid.Np", "4"), ("verify.eps_list", "0.01"),
    ("verify.eps_list", "0.8"), ("verify.eps_list", "0.8, 0.8"),
    ("verify.radii", "0.5, 0.6"), ("solver.max_iter", "-1"),
    ("verify.levels", "0"), ("verify.levels", "2, 2"),
    # every number must be finite, and a tol must be > 0: a tol that is not
    # ends every Newton solve at iteration 0 or never, an amplitude that is
    # not finite fails its step, a non-finite physics value makes a NaN
    # laminar flow, and a pairing_tol that is NaN or negative fails every
    # formulation: each is refused with the config
    ("solver.tol", "inf"), ("solver.tol", "0"), ("solver.tol", "-1e-10"),
    ("solver.tol", "nan"), ("solver.amplitude_schedule", "0.0, nan"),
    ("solver.amplitude_schedule", "0.0, inf"),
    ("physics.P_atm", "nan"), ("physics.g", "inf"),
    ("verify.pairing_tol", "nan"), ("verify.pairing_tol", "-1"),
    ("verify.eps_list", "nan, 0.8"), ("verify.eps_list", "0.8, inf")])
def test_invalid_config_exits_2_with_one_error_line(
        tmp_path, capsys, small_two_layer_field, key, value):
    # the grid and the config (which also checks the mollifier scale and
    # refuses an unknown key such as verify.radii) each reject their own
    # value by a named error class, which main reports
    # before any output file is written, from laminar as from verify
    lines = [ln for ln in SMALL_TWO_LAYER_CFG.splitlines()
             if not ln.startswith(key + " ")]
    cfg = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
    for command in ("laminar", "verify"):
        code = main([command, "--config", cfg, "--out", str(tmp_path / "v"),
                     "--field", str(small_two_layer_field), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        if not key.startswith("grid."):
            assert key in err
    assert not list((tmp_path / "v").glob("*"))


def test_non_finite_fixed_Q_exits_2(tmp_path, capsys):
    # refused with the config, not handed to the Newton solve
    cfg = write_cfg(tmp_path, FLAT_CFG.replace("solver.Q = 20.6",
                                               "solver.Q = nan"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "solver.Q" in err
    assert not (tmp_path / "o").exists()


def test_solve_nonconvergent_amplitude_exit_code(tmp_path, monkeypatch):
    # far-from-critical data cannot support a finite-amplitude wave
    cfg_text = TWO_LAYER_CFG.replace(
        "solver.amplitude_schedule = 0.0",
        "solver.amplitude_schedule = 0.0, 0.3") + "solver.max_iter = 8\n"
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert (out / "field.csv").exists()  # last good field is still written
    # its summary is strict JSON and reports the written field's residual
    summary = _strict_json(out / "field.json")
    assert summary["iterations"] == -1
    # its sidecar holds the digest of the CSV beside it, so h is read from
    # the sidecar and the CSV is never parsed
    with np.load(out / "field.npz") as z:
        assert str(z["csv_sha256"]) == hashlib.sha256(
            (out / "field.csv").read_bytes()).hexdigest()

    def refuse(path):
        raise AssertionError("the CSV was parsed")

    monkeypatch.setattr(cli, "read_csv", refuse)
    hf = read_field(out / "field.csv", load_config(cfg))
    monkeypatch.undo()
    interior, surface = residual(hf, two_layer(3.0), FlowParameters(
        d=1.0, g=9.8, c=1.0, p0=-1.0))
    assert summary["residual_inf"] == max(np.max(np.abs(interior)),
                                          np.max(np.abs(surface)))
    assert summary["residual_inf"] <= 1e-11
    assert summary["grid_chain"] == [[16, 64]]


def test_each_subcommand_keeps_its_manifest(tmp_path):
    # subcommands sharing one output directory each write their own
    # manifest, so transform does not overwrite solve's provenance
    cfg = write_cfg(tmp_path, FLAT_CFG)
    out = tmp_path / "run"
    for argv in (["laminar"], ["solve"],
                 ["transform", "--field", str(out / "field.csv")]):
        assert main(argv + ["--config", cfg, "--out", str(out),
                            "--quiet"]) == 0
    manifests = sorted(p.name for p in out.glob("manifest*"))
    assert manifests == ["manifest.laminar.json", "manifest.solve.json",
                         "manifest.transform.json"]
    for name in manifests:
        assert json.loads((out / name).read_text())["command"] == \
            name.split(".")[1]


def test_failed_continuation_reports_on_stderr(tmp_path, capsys):
    # the quadrature laminar profile is not the discrete solution, so 0
    # Newton iterations cannot converge; --quiet silences standard output,
    # not the reason for exit 3
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG + "solver.max_iter = 0\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "continuation failed at amplitude 0.0: no convergence" in err
    assert "worst in the interior at (q, p) = " in err


def test_determinism(tmp_path):
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out / "v"),
                     "--field", str(out / "field.csv"), "--quiet"]) == 0
        outs.append(out)

    def gather(base):
        files = {}
        for p in sorted(base.rglob("*")):
            if p.is_file():
                rel = p.relative_to(base)
                body = p.read_bytes()
                if p.name.startswith("manifest."):
                    data = json.loads(body)
                    data.pop("timestamp")  # the single volatile field
                    body = json.dumps(data, sort_keys=True).encode()
                files[str(rel)] = body
        return files

    fa, fb = gather(outs[0]), gather(outs[1])
    assert fa.keys() == fb.keys()
    assert "field.npz" in fa
    for k in fa:
        assert fa[k] == fb[k], f"outputs differ in {k}"


def test_wave_pipeline_via_cli(tmp_path):
    # amplitude continuation through the CLI at near-critical gravity,
    # then transform + verify on the produced wave field
    Nq = 64
    dq = 2 * np.pi / Nq
    k_disc = np.sqrt(2.0 - 2.0 * np.cos(dq)) / dq
    g_crit = k_disc / np.tanh(k_disc)
    cfg_text = f"""\
physics.d = 1.0
physics.g = {g_crit:.17g}
physics.c = 1.0
physics.p0 = -1.0
vorticity.piece = -1.0, 0.0, 0.0
grid.Nq = {Nq}
grid.Np = 64
solver.mode = fixed_amplitude
solver.amplitude_schedule = 0.0, 5e-4, 1e-3
solver.tol = 1e-11
verify.pairing_tol = 5e-3
"""
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "wave"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "field.json").read_text())
    assert summary["amplitude"] == pytest.approx(1e-3, rel=1e-8)
    assert summary["min_one_plus_hp"] > 0
    assert main(["transform", "--config", cfg, "--out", str(out / "t"),
                 "--field", str(out / "field.csv"), "--quiet"]) == 0
    tsum = json.loads((out / "t" / "transform.json").read_text())
    assert tsum["max_u_minus_c"] < 0
    assert tsum["bernoulli_collapse_err"] < 1e-12
    assert main(["verify", "--config", cfg, "--out", str(out / "v"),
                 "--field", str(out / "field.csv"), "--quiet"]) == 0
    rep = json.loads((out / "v" / "verify.json").read_text())
    for r in rep["pairings"]:
        assert r["max_normalized"] <= 5e-3


@pytest.mark.parametrize("levels", ["1, 2", "3, 2"])
def test_verify_matches_per_call_pairings(tmp_path, levels):
    # the single pass over each level gives every value of the per-call
    # public pairings, on a q-dependent field that is not a solution
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG + f"verify.levels = {levels}\n")
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    v = two_layer(3.0)
    g = Grid(16, 64, aligned_jumps=(-0.5,))
    lf = laminar.solve(v, params, g.p)
    h = lf.h[None, :] + 0.01 * np.cos(g.q)[:, None] * ((1 + g.p) * g.p)
    hf = HeightField(g, h, Q=lf.Q)
    out = tmp_path / "run"
    out.mkdir()
    write_field(out, hf, {"Q": lf.Q})
    assert main(["verify", "--config", cfg, "--out", str(out / "v"),
                 "--field", str(out / "field.csv"), "--quiet"]) in (0, 4)

    fields = tr.reconstruct_fields(hf, v, params)
    tfs = {tf.center: tf for tf in wf.default_lattice()}
    nq_base, npp_base = 256, 64
    expected = {}
    for (q0, pc), tf in tfs.items():
        for lvl in (1, 2, 3):
            nq, npp = nq_base * lvl, npp_base * lvl
            phi = wf.pushforward_testfn(tf, hf, params)
            R = wf.pair_euler(fields, params, phi, nq=nq, npp=npp, v=v)
            expected[q0, pc, lvl] = {
                "height": wf.pair_height(hf, v, params, tf, nq=nq, npp=npp),
                "stream": wf.pair_stream(fields, v, params, phi,
                                         nq=nq, npp=npp),
                "euler_R1": R[0], "euler_R2": R[1], "euler_R3": R[2]}

    lines = (out / "v" / "verify.csv").read_text().splitlines()[1:]
    assert len(lines) == 5 * 2 * len(tfs)
    for line in lines:
        name, q0, pc, lvl, val, norm = line.split(",")
        q0, pc, val, norm = float(q0), float(pc), float(val), float(norm)
        assert norm == wf.norm_grad_rect(tfs[q0, pc])
        assert abs(val - expected[q0, pc, int(lvl)][name]) <= 1e-12 * norm

    rep = json.loads((out / "v" / "verify.json").read_text())
    assert len(rep["cross_identity"]) == len(tfs)
    for entry in rep["cross_identity"]:
        tf = tfs[tuple(entry["center"])]
        lhs, rhs, gap = wf.cross_identity(hf, v, params, tf,
                                          nq=nq_base, npp=npp_base)
        norm = wf.norm_grad_rect(tf)
        assert abs(entry["lhs"] - lhs) <= 1e-12 * norm
        assert abs(entry["rhs"] - rhs) <= 1e-12 * norm
        assert abs(entry["gap"] - gap) <= 1e-12 * norm


def _solved_smoke_case(tmp_path, levels):
    """(config, output directory) of the two-layer smoke case at
    verify.levels = `levels`, solved into that directory."""
    cfg = write_cfg(tmp_path, TWO_LAYER_CFG + f"verify.levels = {levels}\n")
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    return cfg, out


def _verify(cfg, out):
    return main(["verify", "--config", cfg, "--out", str(out / "v"),
                 "--field", str(out / "field.csv"), "--quiet"])


def test_verify_asks_each_level_for_what_it_reports(tmp_path, monkeypatch):
    # the configured levels pair the five formulations and not the cross
    # identity; level 1, outside verify.levels, pairs the cross identity
    # alone (npp is 64 times the level on this grid)
    cfg, out = _solved_smoke_case(tmp_path, "3, 2")
    asked, sums = {}, wf.QuadratureLevel.sums

    def recording(self, tf, *names):
        asked.setdefault(self.npp // 64, set()).update(names)
        return sums(self, tf, *names)

    monkeypatch.setattr(wf.QuadratureLevel, "sums", recording)
    assert _verify(cfg, out) == 0
    assert asked == {1: {"cross"}, 2: {"height", "stream", "euler"},
                     3: {"height", "stream", "euler"}}


def test_verify_builds_one_sampled_evaluator(tmp_path, monkeypatch):
    # the levels and the surface identity share one evaluator of the field
    cfg, out = _solved_smoke_case(tmp_path, "1, 2")
    built, init = [], SampledEvaluator.__init__

    def counting(self, hf):
        built.append(hf)
        init(self, hf)

    monkeypatch.setattr(SampledEvaluator, "__init__", counting)
    assert _verify(cfg, out) == 0
    assert len(built) == 1


# -- the field sidecar ---------------------------------------------------------


@pytest.fixture(scope="module")
def solved_smoke_field(tmp_path_factory):
    """(config, directory) of the two-layer smoke case solved once."""
    out = tmp_path_factory.mktemp("sidecar")
    cfg = write_cfg(out, TWO_LAYER_CFG)
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    return cfg, out


def _copy_field(src, dst):
    """field.csv, field.json and field.npz copied into a new `dst`."""
    dst.mkdir()
    for name in ("field.csv", "field.json", "field.npz"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst / "field.csv"


def _parsed_h(path):
    _, data = read_csv(path)
    return data[:, 2].reshape(16, 65)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _counting_read_csv(monkeypatch):
    calls = []

    def counting(path):
        calls.append(path)
        return read_csv(path)

    monkeypatch.setattr(cli, "read_csv", counting)
    return calls


def _resaved(new_h):
    """A spoiler that saves the sidecar again with new_h(h) for its h."""
    def resave(path, sidecar):
        with np.load(sidecar) as z:
            arrays = {name: z[name] for name in z.files}
        np.savez(sidecar, **dict(arrays, h=new_h(arrays["h"])))
    return resave


def test_sidecar_holds_h_and_the_csv_digest(solved_smoke_field):
    # the exact h of the solve, and the SHA-256 of the CSV bytes beside it
    _, out = solved_smoke_field
    with np.load(out / "field.npz") as z:
        assert sorted(z.files) == ["csv_sha256", "h"]
        digest, h = str(z["csv_sha256"]), z["h"]
    assert digest == hashlib.sha256((out / "field.csv").read_bytes()).hexdigest()
    assert h.dtype == np.float64 and h.shape == (16, 65)
    assert np.array_equal(_bits(h), _bits(_parsed_h(out / "field.csv")))


@pytest.mark.parametrize("order", ["C", "F"])
def test_sidecar_read_is_the_parsed_field_bit_for_bit(
        solved_smoke_field, tmp_path, monkeypatch, order):
    # the sidecar path reads no CSV text: read_csv and loadtxt both raise.
    # An h stored in Fortran order is read into C order, as the parse's is
    cfg, out = solved_smoke_field
    path = _copy_field(out, tmp_path / "f")
    parsed = _parsed_h(path)
    _resaved(lambda h: np.asarray(h, order=order))(
        path, path.with_suffix(".npz"))

    def refuse(*args, **kwargs):
        raise AssertionError("the CSV was parsed")

    monkeypatch.setattr(cli, "read_csv", refuse)
    monkeypatch.setattr(np, "loadtxt", refuse)
    hf = read_field(path, load_config(cfg))
    monkeypatch.undo()
    path.with_suffix(".npz").unlink()
    ref = read_field(path, load_config(cfg))
    assert hf.grid == ref.grid and hf.Q == ref.Q
    assert hf.h.flags.c_contiguous
    for h in (hf.h, ref.h):
        assert np.array_equal(_bits(h), _bits(parsed))


def _edit_one_h_byte(path, sidecar):
    # the last digit of one interior h value
    lines = path.read_text().splitlines(keepends=True)
    q, p, h = lines[40].rstrip("\n").split(",")
    digit = "1" if h[-1] != "1" else "2"
    lines[40] = f"{q},{p},{h[:-1]}{digit}\n"
    path.write_text("".join(lines))


def _other_run(path, sidecar):
    # a sidecar written with another field on the same grid
    g = Grid(16, 64, aligned_jumps=(-0.5,))
    other = path.parent.parent / "other"
    other.mkdir()
    write_field(other, HeightField(g, 0.5 * _parsed_h(path), Q=1.0),
                {"Q": 1.0})
    sidecar.write_bytes((other / "field.npz").read_bytes())


def _npy_as_npz(path, sidecar):
    # a plain .npy of the right h, saved under the sidecar's name
    with open(sidecar, "wb") as fh:
        np.save(fh, _parsed_h(path))


def _truncated_zip(path, sidecar):
    # the zip cut after its first local file header, whose fixed 30 bytes
    # end with the lengths of the name and the extra field that follow
    data = sidecar.read_bytes()
    name_len, extra_len = np.frombuffer(data[26:30], dtype="<u2")
    sidecar.write_bytes(data[:30 + int(name_len) + int(extra_len)])


@pytest.mark.parametrize("spoil", [
    _edit_one_h_byte,
    _other_run,
    _resaved(lambda h: h[:, :-1]),
    _resaved(lambda h: h.reshape(-1)),
    _resaved(lambda h: h.astype(np.float32)),
    _resaved(lambda h: h.astype(">f8")),
    lambda path, sidecar: sidecar.unlink(),
    lambda path, sidecar: sidecar.write_bytes(b"not a zip file"),
    lambda path, sidecar: sidecar.write_bytes(b""),
    _npy_as_npz,
    _truncated_zip,
], ids=["edited byte", "other run", "shape", "flat", "float32",
        "big-endian", "missing", "not a zip", "empty", "npy", "truncated"])
def test_spoilt_sidecar_falls_back_to_the_parse(
        solved_smoke_field, tmp_path, monkeypatch, spoil):
    cfg, out = solved_smoke_field
    path = _copy_field(out, tmp_path / "f")
    spoil(path, path.with_suffix(".npz"))
    calls = _counting_read_csv(monkeypatch)
    hf = read_field(path, load_config(cfg))
    assert calls == [path]
    assert np.array_equal(_bits(hf.h), _bits(_parsed_h(path)))


def test_edited_q_column_beside_its_sidecar_exits_2(
        solved_smoke_field, tmp_path, capsys):
    cfg, out = solved_smoke_field
    path = _copy_field(out, tmp_path / "f")
    lines = path.read_text().splitlines(keepends=True)
    q, rest = lines[1].split(",", 1)
    lines[1] = f"{float(q) + 1e-9!r},{rest}"
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["transform", "--config", cfg, "--out", str(tmp_path / "t"),
                 "--field", str(path), "--quiet"]) == 2
    assert "q-grid mismatch" in capsys.readouterr().err


def test_borrowed_summary_exits_2(solved_smoke_field, tmp_path, capsys):
    # a field's Q comes from its own <stem>.json: a CSV copied under
    # another name beside its run's field.json is refused, not paired with
    # the Q of whatever field.json sits in its directory
    cfg, out = solved_smoke_field
    path = _copy_field(out, tmp_path / "f").with_name("mine.csv")
    path.write_bytes((out / "field.csv").read_bytes())
    for command in ("transform", "verify"):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--field", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "mine.json" in err
    assert not (tmp_path / "o" / "transform.json").exists()


def test_summary_that_is_not_a_file_exits_2(
        solved_smoke_field, tmp_path, capsys):
    # a <stem>.json that exists but is a directory is no summary
    cfg, out = solved_smoke_field
    path = _copy_field(out, tmp_path / "f").with_name("dir.csv")
    path.write_bytes((out / "field.csv").read_bytes())
    path.with_suffix(".json").mkdir()
    for command in ("transform", "verify"):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--field", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "dir.json" in err
    assert not list((tmp_path / "o").glob("*"))


def test_field_copied_over_another_runs_fails_the_surface_condition(
        solved_smoke_field, tmp_path, capsys):
    # a g = 9.8 field.csv copied over a g = 5.0 run's is read with that
    # run's Q: the bumps never reach the surface, so only the dynamic
    # surface condition can tell, and verify fails it
    cfg, out = solved_smoke_field
    other = tmp_path / "g5"
    cfg5 = write_cfg(tmp_path, TWO_LAYER_CFG.replace("physics.g = 9.8",
                                                     "physics.g = 5.0"))
    assert main(["solve", "--config", cfg5, "--out", str(other),
                 "--quiet"]) == 0
    (other / "field.csv").write_bytes((out / "field.csv").read_bytes())
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"),
                 "--field", str(other / "field.csv")]) == 4
    surface = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("verify surface")]
    assert len(surface) == 1 and surface[0].endswith(" FAIL"), surface
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert rep["surface_identity"]["surface_residual"] > 1.0


@pytest.mark.parametrize("text", [
    '{"amplitude": 0.0}', "Q = 20.2", "[20.2]", '{"Q": "20.2"}',
    '{"Q": null}', '{"Q": NaN}', '{"Q": Infinity}', '{"Q": true}'],
    ids=["no-Q", "not-json", "list", "string", "null", "nan", "inf", "true"])
def test_unusable_summary_exits_2(solved_smoke_field, tmp_path, capsys, text):
    # a summary whose Q is not a finite number is refused by name, before
    # any output: not a traceback, nor a NaN, inf or True taken for Q
    cfg, out = solved_smoke_field
    path = _copy_field(out, tmp_path / "f")
    path.with_suffix(".json").write_text(text)
    for command in ("transform", "verify"):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--field", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "field.json" in err
    assert not (tmp_path / "o" / "transform.json").exists()
    assert not (tmp_path / "o" / "verify.json").exists()


def test_transform_and_verify_bytes_do_not_depend_on_the_sidecar(
        solved_smoke_field, tmp_path, monkeypatch):
    # with the sidecar the CSV is never parsed; without it, it is
    cfg, out = solved_smoke_field
    path = _copy_field(out, tmp_path / "f")
    runs = {}
    for name in ("sidecar", "parsed"):
        calls = _counting_read_csv(monkeypatch)
        runs[name] = tmp_path / name
        for command in ("transform", "verify"):
            assert main([command, "--config", cfg, "--out", str(runs[name]),
                         "--field", str(path), "--quiet"]) == 0
        assert len(calls) == (0 if name == "sidecar" else 2)
        path.with_suffix(".npz").unlink(missing_ok=True)
    for name in ("fields.csv", "eta.csv", "transform.json", "verify.json",
                 "verify.csv"):
        assert (runs["sidecar"] / name).read_bytes() == \
            (runs["parsed"] / name).read_bytes(), name


# -- CSV files -----------------------------------------------------------------


def _write_csv_per_row(path, header, columns):
    """The reference writer: one "%.17g" call per row of flat columns."""
    rows = np.column_stack([np.asarray(c, dtype=float).ravel()
                            for c in columns]).tolist()
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [fmt % tuple(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# values that format alike but differ in their bits, and special values
_CSV_VALUES = st.sampled_from([
    0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0,
    0.1, 1.0 / 3.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, 1.7976931348623157e308]) | st.floats(width=64)


@st.composite
def _csv_tables(draw):
    """(A (m, n), column (m,), row (n,)): A's rows repeat and mirror."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    base = draw(hnp.arrays(float, (draw(st.integers(1, 3)), n),
                           elements=_CSV_VALUES))
    pick = np.array(draw(st.lists(st.integers(0, len(base) - 1),
                                  min_size=m, max_size=m)))
    if draw(st.booleans()):                 # mirror-even, as h is in q
        pick = pick[(-np.arange(m)) % m]
    col = draw(hnp.arrays(float, m, elements=_CSV_VALUES))
    row = draw(hnp.arrays(float, n, elements=_CSV_VALUES))
    return base[pick], col, row


@settings(max_examples=150, deadline=None)
@given(table=_csv_tables())
@example(table=(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, np.nextafter(1, 2)],
                          [0.0, 1.0]]), np.array([0.0, -0.0, 0.0, 5e-324]),
                np.array([np.nan, -np.inf])))
def test_write_csv_matches_per_row_formatter(tmp_path_factory, table):
    A, col, row = table
    d = tmp_path_factory.mktemp("csv")
    cases = {
        "flat": (["a", "b", "c"], [A.ravel(), A[::-1].ravel(), -A.ravel()]),
        "broadcast": (["q", "p", "h", "k"],
                      [col[:, None], row, A, A.copy()[::-1]]),
        "3d": (["a", "b"], [A[:, None, :], -A[None, ::-1, :]]),
    }
    for name, (header, columns) in cases.items():
        _assert_writes_per_row_bytes(d / name, header, columns)


def _assert_writes_per_row_bytes(stem, header, columns):
    write_csv(f"{stem}.csv", header, columns)
    _write_csv_per_row(f"{stem}.ref.csv", header,
                       np.broadcast_arrays(*columns))
    assert (Path(f"{stem}.csv").read_bytes()
            == Path(f"{stem}.ref.csv").read_bytes())


_CSV_ROWS = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

# the kinds of column that write_csv formats each in its own way
_CSV_KINDS = ("one row", "one value per leading row", "repeating rows",
              "drawn rows")


@st.composite
def _csv_mixed_tables(draw):
    """12 to 48 columns on a drawn 2-D or 3-D shape, with each kind among
    them in a drawn order.  A column of repeating rows may repeat them
    along some leading axes only, and a column of drawn rows may repeat
    some by chance."""
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    n = draw(st.integers(1, 4))
    kinds = draw(st.permutations(_CSV_KINDS)) + draw(
        st.lists(st.sampled_from(_CSV_KINDS), min_size=8, max_size=44))
    pool = draw(hnp.arrays(float, 8, elements=_CSV_VALUES))

    def values(shape, size=len(pool)):
        return draw(hnp.arrays(np.intp, shape, elements=st.integers(
            0, size - 1)))

    columns = []
    for kind in kinds:
        if kind == "one row":
            columns.append(pool[values(n)])
        elif kind == "one value per leading row":
            columns.append(pool[values(lead + (1,))])
        elif kind == "repeating rows":
            own = tuple(draw(st.sampled_from([1, m])) for m in lead)
            rows = pool[values((draw(st.integers(1, 3)), n))]
            columns.append(rows[values(own, len(rows))])
        else:
            columns.append(pool[values(lead + (n,))])
    return columns


@settings(max_examples=60, deadline=None)
@given(columns=_csv_mixed_tables())
# 48 columns of one value per leading row, each marked by a character in
# the templates: the markers run past "\n" and ","
@example(columns=[np.array([[k / 7], [-k - 0.5]]) for k in range(48)]
         + [np.array([0.0, -0.0, 1.0])])
# two columns of repeating rows, whose combinations repeat less than either
@example(columns=[_CSV_ROWS[[0, 1, 2, 0, 1, 2]],
                  -_CSV_ROWS[[0, 1, 1, 0, 1, 1]], np.arange(6.0)[:, None],
                  np.array([0.5, -0.0]), np.arange(12.0).reshape(6, 2)])
def test_write_csv_matches_per_row_formatter_on_mixed_columns(
        tmp_path_factory, columns):
    header = [f"c{k}" for k in range(len(columns))]
    _assert_writes_per_row_bytes(tmp_path_factory.mktemp("csv") / "mixed",
                                 header, columns)


def test_write_csv_memory_is_a_fraction_of_its_bytes(tmp_path):
    # a field.csv table at 256 x 512 whose h is even in q, as a solved
    # field is: the line template of each of h's 129 distinct rows is
    # formatted once and kept until the last q-row that uses it, and each
    # q-row's text is its template with that row's q put in.  The peak is
    # about 0.34 of the bytes written; formatting every cell at once took
    # 3.1 times them
    g = Grid(256, 512)
    k = np.arange(g.Nq)
    h = np.random.default_rng(3).standard_normal((g.Nq // 2 + 1, g.Np + 1))
    columns = [g.q[:, None], g.p, h[np.minimum(k, g.Nq - k)]]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "field.csv", ["q", "p", "h"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * (tmp_path / "field.csv").stat().st_size, peak


def test_read_csv_round_trips_write_csv(tmp_path):
    rng = np.random.default_rng(7)
    h = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5))
    q, p = np.linspace(-np.pi, np.pi, 6), np.linspace(-1.0, 0.0, 5)
    write_csv(tmp_path / "f.csv", ["q", "p", "h"], [q[:, None], p, h])
    header, data = read_csv(tmp_path / "f.csv")
    assert header == ["q", "p", "h"]
    want = np.column_stack(
        [a.ravel() for a in np.broadcast_arrays(q[:, None], p, h)])
    assert np.array_equal(data.view(np.int64), want.view(np.int64))
