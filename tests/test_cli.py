import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steadywaves
from steadywaves.cli import main, read_csv, write_field
from steadywaves import laminar
from steadywaves import transform as tr
from steadywaves import weakform as wf
from steadywaves.field import HeightField
from steadywaves.grid import Grid
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


def test_cli_import_leaves_out_scipy_integrate_and_optimize():
    # they cost about 40 ms of interpreter start-up on every subcommand
    src = str(Path(steadywaves.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, steadywaves.cli; print(sorted(m for m in "
            "('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
    cfg = write_cfg(tmp_path, FLAT_CFG + "solver.colour = blue\n")
    assert main(["laminar", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "solver.colour" in capsys.readouterr().err


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


def test_stale_field_file_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FLAT_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    cfg2 = write_cfg(tmp_path, FLAT_CFG.replace("grid.Np = 32",
                                                "grid.Np = 16"), "run2.cfg")
    assert main(["verify", "--config", cfg2, "--out", str(out / "v"),
                 "--field", str(out / "field.csv")]) == 2
    assert "stale" in capsys.readouterr().err


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
    write_field(out, HeightField(g, h, Q=20.6), {"Q": 20.6})
    capsys.readouterr()
    assert main(["transform", "--config", cfg, "--out", str(out / "t"),
                 "--field", str(out / "field.csv"), "--quiet"]) == 2
    assert message in capsys.readouterr().err


def test_empty_lattice_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FLAT_CFG + "verify.n_q_centers = 0\n")
    assert main(["laminar", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_solve_nonconvergent_amplitude_exit_code(tmp_path):
    # far-from-critical data cannot support a finite-amplitude wave
    cfg_text = TWO_LAYER_CFG.replace(
        "solver.amplitude_schedule = 0.0",
        "solver.amplitude_schedule = 0.0, 0.3") + "solver.max_iter = 8\n"
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert (out / "field.csv").exists()  # last good field is still written


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
                if p.name == "manifest.json":
                    data = json.loads(body)
                    data.pop("timestamp")  # the single volatile field
                    body = json.dumps(data, sort_keys=True).encode()
                files[str(rel)] = body
        return files

    fa, fb = gather(outs[0]), gather(outs[1])
    assert fa.keys() == fb.keys()
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
