"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The wave criteria use near-critical gravity (see conftest): at fixed
depth and mass flux, small-amplitude periodic waves exist only where the
linearized wave mode is neutral.
"""

import json
import time

import numpy as np
import pytest

from steadywaves.vorticity import FlowParameters, zero_vorticity
from steadywaves import laminar
from steadywaves.grid import Grid
from steadywaves.field import HeightField, random_admissible_field
from steadywaves.solver import HeightSystem, newton_solve, continuation
from steadywaves import transform as tr
from steadywaves import weakform as wf
from steadywaves.cli import main as cli_main


def report(num, text, ok):
    print(f"ACCEPTANCE {num}: {text}: {'PASS' if ok else 'FAIL'}")
    assert ok


# -- 1 ---------------------------------------------------------------------------


def test_criterion_1_irrotational_flat_exactness():
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    v0 = zero_vorticity()
    Q = 2 * params.g * params.d + params.p0 ** 2 / params.d ** 2
    assert Q == 20.6
    g = Grid(64, 64)
    hf0 = HeightField(g, np.zeros((64, 65)), Q=Q)
    t0 = time.time()
    res = newton_solve(hf0, v0, params, mode="fixed_Q", Q=Q, tol=1e-12)
    elapsed = time.time() - t0
    ok = (res.iterations <= 2 and res.residual_inf <= 1e-12
          and np.max(np.abs(res.field.h)) <= 1e-12 and elapsed < 1.0)
    report(1, f"flat state exact (iters={res.iterations}, "
              f"res={res.residual_inf:.1e}, max|h|={np.max(np.abs(res.field.h)):.1e}, "
              f"{elapsed:.2f}s)", ok)


# -- 2 ---------------------------------------------------------------------------


def test_criterion_2_laminar_oracle_two_layer(v_two_layer, params):
    t0 = time.time()
    lam = laminar.solve_lambda(v_two_layer, params)
    Q = laminar.laminar_Q(lam, params)
    errs = {}
    for Np in (64, 128, 256):
        g = Grid(16, Np, aligned_jumps=(-0.5,))
        oracle = laminar.laminar_height(lam, v_two_layer, params, g.p)
        hf0 = HeightField(g, np.zeros((16, Np + 1)), Q=Q)
        res = newton_solve(hf0, v_two_layer, params, mode="fixed_amplitude",
                           amplitude=0.0, tol=1e-10)
        errs[Np] = np.max(np.abs(res.field.h - oracle[None, :]))
    elapsed = time.time() - t0
    order1 = np.log2(errs[64] / errs[128])
    order2 = np.log2(errs[128] / errs[256])
    ok = (errs[256] <= 1e-6 and min(order1, order2) >= 1.5 and elapsed < 30.0)
    report(2, f"laminar oracle match (err256={errs[256]:.2e}, "
              f"orders=({order1:.2f},{order2:.2f}), {elapsed:.1f}s)", ok)


# -- 3 ---------------------------------------------------------------------------


def test_criterion_3_cross_formulation_identity(v_two_layer, params):
    rng = np.random.default_rng(42)
    tfs = [wf.bump((q0, pc), (np.pi / 4, 0.2))
           for pc in (-0.7, -0.45, -0.22)
           for q0 in (-3 * np.pi / 4, -np.pi / 4, np.pi / 4, 3 * np.pi / 4)]
    quads = [(128, 192), (256, 384), (512, 768)]
    ok = True
    worst_rel = 0.0
    for _ in range(10):
        field = random_admissible_field(rng)
        max_gap_per_level = []
        ref_pairs = []
        for nq, npp in quads:
            gaps = []
            for tf in tfs:
                lhs, rhs, gap = wf.cross_identity(field, v_two_layer, params,
                                                  tf, nq=nq, npp=npp)
                gaps.append(gap)
                if (nq, npp) == quads[-1]:
                    ref_pairs.append((gap, max(1.0, abs(rhs))))
            max_gap_per_level.append(max(gaps))
        mono = (max_gap_per_level[0] > max_gap_per_level[1]
                > max_gap_per_level[2])
        rel = max(g / s for g, s in ref_pairs)
        worst_rel = max(worst_rel, rel)
        ok = ok and mono and rel <= 1e-6
    report(3, f"cross-formulation identity, 10 fields x 12 bumps "
              f"(worst rel gap {worst_rel:.2e}, monotone decay)", ok)


# -- 4 ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def critical_waves(v_two_layer, params_critical):
    """Amplitude-continued small waves at (128,256) and (256,512)."""
    out = {}
    for Nq, Np in ((128, 256), (256, 512)):
        g = Grid(Nq, Np, aligned_jumps=(-0.5,))
        lf = laminar.solve(v_two_layer, params_critical, g.p)
        hf0 = HeightField(g, np.tile(lf.h, (Nq, 1)), Q=lf.Q)
        cont = continuation(hf0, v_two_layer, params_critical,
                            [0.0, 2.5e-4, 5e-4, 1e-3], tol=1e-10)
        assert cont.converged
        out[(Nq, Np)] = cont.fields[-1]
    return out


def _five_pairings(hf, v, params):
    fields = tr.reconstruct_fields(hf, v, params)
    g = hf.grid
    tfs = [wf.bump((q0, pc), (np.pi / 4, 0.2))
           for pc in (-0.75, -0.5, -0.25)
           for q0 in (-3 * np.pi / 4, -np.pi / 4, np.pi / 4, 3 * np.pi / 4)]
    worst = {k: 0.0 for k in ("height", "stream", "R1", "R2", "R3")}
    nq, npp = 2 * g.Nq, 2 * g.Np
    for tf in tfs:
        norm = wf.norm_grad_rect(tf)
        phi = wf.pushforward_testfn(tf, hf, params)
        vals = {
            "height": wf.pair_height(hf, v, params, tf, nq=nq, npp=npp),
            "stream": wf.pair_stream(fields, v, params, phi, nq=nq, npp=npp),
        }
        R1, R2, R3 = wf.pair_euler(fields, params, phi, nq=nq, npp=npp, v=v)
        vals.update({"R1": R1, "R2": R2, "R3": R3})
        for k, val in vals.items():
            worst[k] = max(worst[k], abs(val) / norm)
    return worst


def test_criterion_4_weak_residual_smallness(critical_waves, v_two_layer,
                                             params_critical):
    coarse = _five_pairings(critical_waves[(128, 256)], v_two_layer,
                            params_critical)
    fine = _five_pairings(critical_waves[(256, 512)], v_two_layer,
                          params_critical)
    ok = all(coarse[k] <= 1e-4 for k in coarse)
    ratios = {k: coarse[k] / fine[k] for k in coarse}
    ok = ok and all(r >= 2.0 for r in ratios.values())
    detail = ", ".join(f"{k}={coarse[k]:.1e}(x{ratios[k]:.1f})"
                       for k in coarse)
    report(4, f"five weak pairings small and refining ({detail})", ok)


# -- 5 ---------------------------------------------------------------------------


def test_criterion_5_surface_identity(v_two_layer, params):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        g = Grid(32, 64, aligned_jumps=(-0.5,))
        hf = random_admissible_field(rng).sample(g, Q=rng.uniform(5, 25))
        rep = wf.surface_identity(hf, params)
        worst = max(worst, rep["identity_gap_rel"])
    report(5, f"surface identity round-off on 10 random fields "
              f"(max rel gap {worst:.2e})", worst <= 1e-13)


# -- 6 ---------------------------------------------------------------------------


def test_criterion_6_roundtrip_and_no_stagnation(critical_waves, v_two_layer,
                                                 params, params_critical):
    rng = np.random.default_rng(3)
    cases = []
    g = Grid(32, 64, aligned_jumps=(-0.5,))
    for _ in range(3):
        cases.append((params, random_admissible_field(rng).sample(g, Q=9.0)))
    cases.append((params_critical, critical_waves[(128, 256)]))
    flatp = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    cases.append((flatp, HeightField(Grid(16, 16), np.zeros((16, 17)), Q=20.6)))
    ok = True
    worst = 0.0
    for par, hf in cases:
        gg = hf.grid
        x, y, eta = tr.physical_map(hf, par)
        for i in range(0, gg.Nq, max(1, gg.Nq // 8)):
            cols = tr.invert_height(hf, par, np.full(gg.Np + 1, gg.q[i]),
                                    y[i])
            worst = max(worst, np.max(np.abs(cols - gg.p)))
        ok = ok and worst <= 1e-12
        fields = tr.reconstruct_fields(hf, v_two_layer, par)
        ok = ok and hf.min_one_plus_hp() > 0
        ok = ok and np.max(fields.psi_y) < 0
        ok = ok and np.max(fields.u - par.c) < 0
    report(6, f"transform round trip (max |p - p_inv| = {worst:.1e}) and "
              "1+h_p>0 <=> psi_y<0 <=> u<c", ok)


# -- 7 ---------------------------------------------------------------------------


def test_criterion_7_bernoulli_collapse_and_defect(critical_waves,
                                                   v_two_layer,
                                                   params_critical):
    hf = critical_waves[(128, 256)]
    fields = tr.reconstruct_fields(hf, v_two_layer, params_critical)
    _, rep = tr.bernoulli_function(fields, v_two_layer, params_critical)
    ok = rep["collapse_err"] <= 1e-12

    tf = wf.bump((0.0, -0.5), (np.pi / 3, 0.25))
    phi = wf.pushforward_testfn(tf, hf, params_critical)
    nq, npp = 2 * hf.grid.Nq, 2 * hf.grid.Np
    clean = wf.pair_euler(fields, params_critical, phi, nq=nq, npp=npp,
                          v=v_two_layer)
    tilted = fields.copy()
    tilted.P = tilted.P + 1e-3 * tilted.x[:, None]
    dirty = wf.pair_euler(tilted, params_critical, phi, nq=nq, npp=npp,
                          v=v_two_layer)
    margins = [abs(dirty[i]) / max(abs(clean[i]), 1e-30) for i in range(3)]
    ok = ok and max(margins) >= 10.0
    report(7, f"Bernoulli collapse ({rep['collapse_err']:.1e}) and tilt "
              f"detection (max margin {max(margins):.1e}x)", ok)


# -- 8 ---------------------------------------------------------------------------


def test_criterion_8_jacobian_correctness(v_two_layer, params):
    rng = np.random.default_rng(80)
    g = Grid(32, 32, aligned_jumps=(-0.5,))
    sys_ = HeightSystem(g, v_two_layer, params)
    worst = 0.0
    for _ in range(5):
        hf = random_admissible_field(rng).sample(g, Q=rng.uniform(5, 25))
        H = sys_.reduce(hf)
        J = sys_.jacobian_matrix(H, hf.Q, "meanzero")
        n = J.shape[1]
        x0 = np.concatenate((H[:, 1:].ravel(), [hf.Q]))

        def resv(x):
            Hx = H.copy()
            Hx[:, 1:] = x[:sys_.n_h].reshape(H.shape[0], g.Np)
            return sys_.residual_vector(Hx, x[sys_.n_h], "meanzero",
                                        0.0)[0]

        delta = rng.standard_normal(n)
        eps = 1e-7
        fd = (resv(x0 + eps * delta) - resv(x0 - eps * delta)) / (2 * eps)
        Jd = J @ delta
        worst = max(worst, np.linalg.norm(fd - Jd) / np.linalg.norm(Jd))
    report(8, f"analytic Jacobian vs central differences on 5 random fields "
              f"(worst rel {worst:.1e})", worst <= 1e-6)


# -- 9 ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    cfg_text = """\
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
verify.pairing_tol = 5e-3
"""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["solve", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        assert cli_main(["transform", "--config", str(cfg),
                         "--out", str(out / "t"),
                         "--field", str(out / "field.csv"), "--quiet"]) == 0
        assert cli_main(["verify", "--config", str(cfg),
                         "--out", str(out / "v"),
                         "--field", str(out / "field.csv"), "--quiet"]) == 0
        files = {}
        for p in sorted(out.rglob("*")):
            if p.is_file():
                body = p.read_bytes()
                if p.name.startswith("manifest."):
                    data = json.loads(body)
                    data.pop("timestamp")
                    body = json.dumps(data, sort_keys=True).encode()
                files[str(p.relative_to(out))] = body
        trees.append(files)
    same = trees[0].keys() == trees[1].keys() and all(
        trees[0][k] == trees[1][k] for k in trees[0])
    report(9, f"byte-identical pipeline outputs over {len(trees[0])} files "
              "(modulo manifest timestamp)", same)
