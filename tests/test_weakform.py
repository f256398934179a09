import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from steadywaves import field as fd
from steadywaves.vorticity import FlowParameters, gamma_cap, gamma_tilde
from steadywaves import laminar
from steadywaves.grid import Grid
from steadywaves.field import (HeightField, AnalyticHeightField,
                               random_admissible_field)
from steadywaves import transform as tr
from steadywaves import weakform as wf


@pytest.fixture(scope="module")
def flat():
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    g = Grid(32, 32)
    Q = 2 * params.g * params.d + params.p0 ** 2 / params.d ** 2
    return params, HeightField(g, np.zeros((32, 33)), Q=Q)


@pytest.fixture(scope="module")
def solved_laminar(v_two_layer):
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    from steadywaves.solver import newton_solve
    g = Grid(16, 128, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    hf0 = HeightField(g, np.tile(lf.h, (16, 1)), Q=lf.Q)
    res = newton_solve(hf0, v_two_layer, params, mode="fixed_amplitude",
                       amplitude=0.0, tol=1e-11)
    return params, res.field


# -- bump ------------------------------------------------------------------------


def test_bump_values():
    assert wf.bump1d(np.array([0.0]))[0] == pytest.approx(np.exp(-1.0),
                                                          abs=1e-16)
    assert wf.bump1d(np.array([1.0, -1.0, 2.0])).tolist() == [0.0, 0.0, 0.0]
    assert wf.bump1d_deriv(np.array([1.0, -1.0])).tolist() == [0.0, 0.0]
    # smooth approach to the support edge
    t = np.array([0.999999])
    assert wf.bump1d(t)[0] < 1e-200


def test_bump_integral_oracle():
    # adaptive-quadrature oracle for the normalization table value
    val, _ = quad(lambda t: np.exp(-1.0 / (1.0 - t * t)), -1.0, 1.0)
    assert val == pytest.approx(0.443994, abs=5e-7)
    qsum = wf.bump1d(np.linspace(-1, 1, 20001)).sum() * (2.0 / 20000)
    assert qsum == pytest.approx(val, abs=1e-9)


def test_support_validation():
    with pytest.raises(wf.SupportError):
        wf.bump((0.0, -0.1), (np.pi / 4, 0.2))   # leaves through the surface
    with pytest.raises(wf.SupportError):
        wf.bump((0.0, -0.9), (np.pi / 4, 0.2))   # touches the bed
    wf.bump((3.0, -0.5), (np.pi / 2, 0.3))       # q-wrap is fine


# -- height pairing ----------------------------------------------------------------


def test_pair_height_flat_is_quadrature_small(flat, v_zero):
    params, hf = flat
    tf = wf.bump((0.7, -0.45), (np.pi / 4, 0.2))
    val = wf.pair_height(hf, v_zero, params, tf, nq=128, npp=256)
    assert abs(val) < 1e-7


def test_pair_height_solved_vs_perturbed(solved_laminar, v_two_layer):
    params, hf = solved_laminar
    tf = wf.bump((0.0, -0.5), (np.pi / 3, 0.25))
    clean = abs(wf.pair_height(hf, v_two_layer, params, tf,
                               nq=64, npp=256))
    pert = hf.copy()
    pert.h = pert.h + 0.01 * np.cos(pert.grid.q)[:, None] \
        * (1.0 + pert.grid.p)[None, :] * pert.grid.p[None, :]
    dirty = abs(wf.pair_height(pert, v_two_layer, params, tf,
                               nq=64, npp=256))
    assert dirty > 10 * max(clean, 1e-12)


def test_pair_height_translation_invariance(solved_laminar, v_two_layer):
    params, hf = solved_laminar
    tf1 = wf.bump((0.5, -0.5), (np.pi / 3, 0.25))
    tf2 = wf.bump((0.5 + 2 * np.pi, -0.5), (np.pi / 3, 0.25))
    a = wf.pair_height(hf, v_two_layer, params, tf1, nq=64, npp=128)
    b = wf.pair_height(hf, v_two_layer, params, tf2, nq=64, npp=128)
    # identical up to the rounding of the wrapped center offset
    assert a == pytest.approx(b, rel=1e-10, abs=1e-18)


def test_pair_height_misaligned_quadrature_rejected(v_two_layer, flat):
    params, hf = flat
    tf = wf.bump((0.0, -0.5), (np.pi / 4, 0.2))
    with pytest.raises(ValueError):
        wf.pair_height(hf, v_two_layer, params, tf, nq=32, npp=31)


# -- stream and euler pairings -------------------------------------------------------


def test_pair_stream_flat(flat, v_zero):
    params, hf = flat
    fields = tr.reconstruct_fields(hf, v_zero, params)
    tf = wf.bump((0.7, -0.45), (np.pi / 4, 0.2))
    phi = wf.pushforward_testfn(tf, hf, params)
    val = wf.pair_stream(fields, v_zero, params, phi, nq=128, npp=256)
    assert abs(val) < 1e-7


def test_pair_euler_flat_hydrostatic(flat, v_zero):
    params, hf = flat
    fields = tr.reconstruct_fields(hf, v_zero, params)
    tf = wf.bump((0.7, -0.45), (np.pi / 4, 0.2))
    phi = wf.pushforward_testfn(tf, hf, params)
    R1, R2, R3 = wf.pair_euler(fields, params, phi, nq=512, npp=384, v=v_zero)
    norm = wf.norm_grad_rect(tf)
    assert abs(R3) / norm < 1e-12          # u constant, v = 0
    assert abs(R2) / norm < 1e-6           # P = P_atm - g y integrates away
    assert abs(R1) / norm < 1e-6


def test_pair_euler_detects_pressure_tilt(solved_laminar, v_two_layer):
    params, hf = solved_laminar
    fields = tr.reconstruct_fields(hf, v_two_layer, params)
    tf = wf.bump((0.0, -0.5), (np.pi / 3, 0.25))
    phi = wf.pushforward_testfn(tf, hf, params)
    R1c, _, _ = wf.pair_euler(fields, params, phi, nq=64, npp=256,
                              v=v_two_layer)
    tilted = fields.copy()
    tilted.P = tilted.P + 1e-3 * tilted.x[:, None]
    R1t, _, _ = wf.pair_euler(tilted, params, phi, nq=64, npp=256,
                              v=v_two_layer)
    assert abs(R1t) > 10 * max(abs(R1c), 1e-12)
    # the injected tilt contributes about -1e-3 * integral(phi)
    assert abs(R1t) > 1e-5


# -- pushforward ---------------------------------------------------------------------


def _pushforward_value(tf, hf, params, x, y):
    """phi(x, y) = phi~(x, p) at scattered points, p from `invert_height`."""
    tq, tp = tf._args(x, tr.invert_height(hf, params, x, y))
    return wf.bump1d(tq) * wf.bump1d(tp)


def _pushforward_grad(phi, hf, params, x, y):
    """(phi_x, phi_y) at scattered points: `grad_xy_at_qp` at each inverted
    (x, p)."""
    p = tr.invert_height(hf, params, x, y)
    g = [phi.grad_xy_at_qp(np.atleast_1d(xx), np.atleast_1d(pp))
         for xx, pp in zip(x, p)]
    return (np.array([gx[0, 0] for gx, _ in g]),
            np.array([gy[0, 0] for _, gy in g]))


def test_pushforward_flat_is_rescaling(flat, v_zero):
    params, hf = flat
    tf = wf.bump((0.3, -0.5), (np.pi / 4, 0.2))
    x = np.array([0.3, 0.5])
    y = np.array([-0.5, -0.3])
    expected = np.array([tf.value(np.array([xx]), np.array([yy / params.d]))[0, 0]
                         for xx, yy in zip(x, y)])
    assert np.max(np.abs(_pushforward_value(tf, hf, params, x, y)
                         - expected)) < 1e-14


def test_pushforward_support_preservation(solved_laminar, v_two_layer):
    params, hf = solved_laminar
    tf = wf.bump((0.0, -0.5), (np.pi / 4, 0.15))
    # points whose p-coordinate is outside the bump support map to zero
    x = np.full(5, 2.8)
    y = np.linspace(-0.95, -0.9, 5) * params.d
    assert np.max(np.abs(_pushforward_value(tf, hf, params, x, y))) == 0.0


def test_pushforward_chain_rule_vs_fd():
    # closed-form gradient vs central differences of the realized phi; the
    # agreement is limited by the field-grid interpolants at O(dp^2)
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    tf = wf.bump((0.0, -0.5), (np.pi / 3, 0.25))
    rng = np.random.default_rng(5)
    f = random_admissible_field(rng)
    pts_x = rng.uniform(-1.0, 1.0, 4)
    pts_y = rng.uniform(-0.6, -0.35, 4) * params.d
    errs = []
    for Np in (128, 256):
        g = Grid(64, Np)
        hf = f.sample(g, Q=12.0)
        phi = wf.pushforward_testfn(tf, hf, params)
        gx, gy = _pushforward_grad(phi, hf, params, pts_x, pts_y)

        def value(x, y):
            return _pushforward_value(tf, hf, params, x, y)

        eps = 1e-6
        fx = (value(pts_x + eps, pts_y) - value(pts_x - eps, pts_y)) / (2 * eps)
        fy = (value(pts_x, pts_y + eps) - value(pts_x, pts_y - eps)) / (2 * eps)
        err = max(np.max(np.abs(fx - gx)), np.max(np.abs(fy - gy)))
        errs.append(err)
        assert err < 10.0 / Np ** 2
    assert errs[1] < errs[0]


# -- cross identity -------------------------------------------------------------------


def test_cross_identity_flat(flat, v_zero):
    params, hf = flat
    tf = wf.bump((0.7, -0.45), (np.pi / 4, 0.2))
    lhs, rhs, gap = wf.cross_identity(hf, v_zero, params, tf, nq=128, npp=128)
    assert abs(lhs) < 2e-5 and abs(rhs) < 2e-5 and gap < 2e-5


def test_cross_identity_decay_analytic(v_two_layer, rng):
    params = FlowParameters(d=1.3, g=2.0, c=1.0, p0=-0.8)
    f = AnalyticHeightField([(1, (0.0, 0.01, 0.01), 1.0),
                             (2, (0.01, 0.01), 1.0)], Q=0.0)
    tf = wf.bump((0.7, -0.45), (np.pi / 4, 0.2))
    gaps = [wf.cross_identity(f, v_two_layer, params, tf, nq=n, npp=int(1.5 * n))[2]
            for n in (64, 128, 256)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] / gaps[2] > 3.0  # near second order


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       max_hp=st.sampled_from([0.2, 0.4, 0.6]))
def test_cross_identity_gap_decays_under_refinement(v_two_layer, params, seed,
                                                    max_hp):
    # on the benchmark's 12-bump lattice the worst gap of any admissible
    # field falls by at least 3x per doubling (the rule is second order)
    f = random_admissible_field(np.random.default_rng(seed), max_hp=max_hp)
    tfs = wf.default_lattice(4, (np.pi / 4, 0.2), (-0.7, -0.45, -0.22))
    worst = [max(wf.cross_identity(f, v_two_layer, params, tf, nq=nq,
                                   npp=npp)[2] for tf in tfs)
             for nq, npp in ((64, 96), (128, 192), (256, 384))]
    assert worst[0] >= 3.0 * worst[1] and worst[1] >= 3.0 * worst[2], worst


def test_cross_identity_solved_field_small(solved_laminar, v_two_layer):
    # both pairings and the gap are small for a solved field; the scale is
    # set by the interpolation of the sampled field near the interface
    params, hf = solved_laminar
    tf = wf.bump((0.0, -0.5), (np.pi / 3, 0.25))
    lhs, rhs, gap = wf.cross_identity(hf, v_two_layer, params, tf,
                                      nq=64, npp=256)
    assert abs(lhs) < 3e-5 and abs(rhs) < 3e-5 and gap < 2e-5


# -- support windows ------------------------------------------------------------------


def _full_domain_terms(ev, fields, v, params, tf, nq, npp):
    """{pairing: terms} summed over the whole rectangle, exact zeros outside
    the bump's support included: the pairing formulas written out as the
    oracle for the windowed sums.  Under name + "_roundoff", what round-off
    in the field's values can move each term by."""
    d, p0, c, g = params.d, params.p0, params.c, params.g
    q, p, wq, wp = wf._height_nodes(nq, npp)
    _, pm, _, wpm = wf._midpoint_nodes(nq, npp)
    F = {"hq": ev.hq_at(q, p), "hp": ev.hp_at(q, p),
         "hq_m": ev.hq_at(q, pm), "hp_m": ev.hp_at(q, pm)}
    if fields is not None:
        F.update((k, wf.interp_rows(getattr(fields, k), fields.grid, q, pm))
                 for k in ("psi_x", "psi_y", "u", "v", "P"))
    tq, tp = tf.grad(q, p)
    tq_m, tp_m = tf.grad(q, pm)
    val, w = tf.value(q, pm), wq * wpm
    gc = gamma_cap(v, params, p)[None, :] / (2 * d * d)
    gt = gamma_tilde(v, params, pm)[None, :]

    def stream(sx, sy, px, py):
        return w * (gt * py - sx * sy * px + 0.5 * (sx ** 2 - sy ** 2) * py) \
            * (p0 / sy)

    def terms_of(F):
        hq, hp = F["hq"], F["hp"]
        A = -(1.0 + d * d * hq ** 2) / (2 * d * d * (1.0 + hp) ** 2) + gc
        terms = {"height": wq * (A * tp + hq / (1.0 + hp) * tq) * wp,
                 "norm": wq * np.hypot(tq, tp) * wp}
        terms["lhs"] = p0 ** 2 * terms["height"]
        one = 1.0 + F["hp_m"]
        psi_x, psi_y = -p0 * F["hq_m"] / one, p0 / (d * one)
        px, py = tq_m + tp_m * (psi_x / p0), tp_m * (psi_y / p0)
        terms["rhs"] = stream(psi_x, psi_y, px, py)
        if fields is not None:
            sx, sy, u, vv, P = (F[k] for k in ("psi_x", "psi_y", "u", "v", "P"))
            jac = p0 / sy
            terms["stream"] = stream(sx, sy, px, py)
            terms["euler_R1"] = w * ((u * u - c * u + P) * px
                                     + u * vv * py) * jac
            terms["euler_R2"] = w * ((u * vv - c * vv) * px
                                     + (vv * vv + P) * py - g * val) * jac
            terms["euler_R3"] = w * (u * px + vv * py) * jac
        return terms

    # the one-shot paths evaluate the field otherwise (a dense trig sum on
    # the window's nodes, not an FFT on all of them), so each value may
    # differ by round-off: up to 16 eps of itself, or for h_q, psi_x and
    # v, which are odd in q and vanish on q = 0, +-pi, of their largest
    # magnitude.  Each term moves by its sensitivity to that.
    terms = terms_of(F)
    for k, x in F.items():
        size = np.max(np.abs(x)) if k in ("hq", "hq_m", "psi_x", "v") \
            else np.abs(x)
        moved = terms_of(dict(F, **{k: x + 16 * np.finfo(float).eps * size}))
        for name, t in moved.items():
            terms[name + "_roundoff"] = (terms.get(name + "_roundoff", 0.0)
                                         + np.abs(t - terms[name]))
    return terms


def _assert_sums(values, terms):
    # 1e-14 of the terms' sizes, or where that is below the round-off of
    # the field's values, that round-off; below the normal floats, there is
    # no relative precision
    for name, value in values.items():
        t = terms[name]
        bound = max(1e-14 * np.sum(np.abs(t)),
                    np.sum(terms.get(name + "_roundoff", 0.0)),
                    np.finfo(float).tiny)
        assert abs(value - np.sum(t)) <= bound, name


_BENCH_EDGE = dict(rq=np.pi / 4, pc=-0.45, rp=0.2, seed=1, nq=64, npp=32)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       q0=st.floats(-np.pi, np.pi), rq=st.floats(0.05, 3.1),
       pc=st.floats(-0.95, -0.05), rp=st.floats(0.01, 0.49),
       nq=st.sampled_from([32, 64]), npp=st.sampled_from([16, 24, 32]))
# supports ending exactly at q = -pi (the benchmark's lattice edge), wrapping
# across q = +-pi, and p-supports holding the jump node p = -1/2
@example(q0=-3 * np.pi / 4, **_BENCH_EDGE)
@example(q0=3 * np.pi / 4, **_BENCH_EDGE)
@example(q0=-np.pi, rq=1.0, pc=-0.5, rp=0.3, seed=2, nq=32, npp=16)
@example(q0=2.9, rq=1.5, pc=-0.7, rp=0.2, seed=3, nq=32, npp=24)
# sums of round-off: h_q = 0 on q = -pi, v = 0 on q = pi, psi_x small near
# q = 0, and stream terms that cancel within themselves
@example(q0=3.125, rq=0.125, pc=-0.5, rp=0.0625, seed=0, nq=32, npp=16)
@example(q0=np.pi, rq=0.125, pc=-0.5, rp=0.25, seed=0, nq=32, npp=16)
@example(q0=0.05, rq=0.05, pc=-0.359375, rp=0.01, seed=1, nq=64, npp=24)
@example(q0=0.0, rq=0.25, pc=-0.65625, rp=0.03125, seed=249, nq=32, npp=24)
def test_windowed_sums_match_full_domain(v_two_layer, seed, q0, rq, pc, rp,
                                         nq, npp):
    assume(pc - rp > -1.0 and pc + rp < 0.0)
    params = FlowParameters(d=1.2, g=3.3, c=1.0, p0=-0.9)
    v = v_two_layer
    tf = wf.bump((q0, pc), (rq, rp))
    f = random_admissible_field(np.random.default_rng(seed))
    hf = f.sample(Grid(16, 16, aligned_jumps=(-0.5,)), Q=7.5)
    fields = tr.reconstruct_fields(hf, v, params)
    ev = hf.evaluator()

    analytic = _full_domain_terms(f, None, v, params, tf, nq, npp)
    sampled = _full_domain_terms(ev, fields, v, params, tf, nq, npp)

    # one-shot pairings, on the analytic field and on the sampled one
    for fl, terms in ((f, analytic), (hf, sampled)):
        lhs, rhs, _ = wf.cross_identity(fl, v, params, tf, nq=nq, npp=npp)
        _assert_sums({"height": wf.pair_height(fl, v, params, tf, nq, npp),
                      "lhs": lhs, "rhs": rhs,
                      "norm": wf.norm_grad_rect(tf, nq, npp)}, terms)
    phi = wf.pushforward_testfn(tf, hf, params)
    _assert_sums(dict(zip(wf.EULER_NAMES,
                          wf.pair_euler(fields, params, phi, nq, npp, v=v)),
                      stream=wf.pair_stream(fields, v, params, phi, nq, npp)),
                 sampled)

    # verify's shared level, which slices each window out of its arrays
    level = wf.QuadratureLevel(params, nq, npp, v, field_like=ev,
                               fields=fields)
    vals = level.pairings(tf, with_cross=True)
    lhs, rhs, _ = vals.pop("cross")
    _assert_sums(dict(vals, lhs=lhs, rhs=rhs), sampled)


class _Counting:
    """An evaluator that records each call and the nodes it was asked at."""

    def __init__(self, ev):
        self.ev, self.calls = ev, []

    def _call(self, name, q, p):
        self.calls.append((name, np.array(q), np.array(p)))
        return getattr(self.ev, name)(q, p)

    def h_at(self, q, p):
        return self._call("h_at", q, p)

    def hq_at(self, q, p):
        return self._call("hq_at", q, p)

    def hp_at(self, q, p):
        return self._call("hp_at", q, p)


@pytest.mark.parametrize("sampled", [False, True])
def test_cross_identity_evaluates_only_the_window(v_two_layer, sampled):
    # h_q and h_p once per rule (trapezoid and midpoint), on the window's
    # p-columns and the window's q-nodes only
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    f = random_admissible_field(np.random.default_rng(3))
    if sampled:
        f = f.sample(Grid(64, 96, aligned_jumps=(-0.5,)), Q=12.0).evaluator()
    ev = _Counting(f)
    q0, pc, rq, rp = 3 * np.pi / 4, -0.45, np.pi / 4, 0.2
    nq, npp = 128, 192
    wf.cross_identity(ev, v_two_layer, params, wf.bump((q0, pc), (rq, rp)),
                      nq, npp)
    assert sorted(name for name, _, _ in ev.calls) == [
        "hp_at", "hp_at", "hq_at", "hq_at"]
    nodes = [wf._height_nodes(nq, npp)[1], wf._midpoint_nodes(nq, npp)[1]]
    asked = sorted({tuple(p) for _, _, p in ev.calls})
    assert asked == sorted(tuple(p[np.abs((p - pc) / rp) < 1.0])
                           for p in nodes)
    q = wf._q_nodes(nq)
    iq = np.abs(wf._wrap_q(q - q0) / rq) < 1.0
    assert 0 < iq.sum() < nq
    assert all(np.array_equal(qc, q[iq]) for _, qc, _ in ev.calls)


def test_cross_identity_memory_is_a_few_window_arrays(v_two_layer):
    # a one-shot call holds a few arrays of its window's nodes at a time,
    # never arrays of the rule's full q-rows
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    f = random_admissible_field(np.random.default_rng(3))
    q0, pc, rq, rp = 3 * np.pi / 4, -0.45, np.pi / 4, 0.2
    tf = wf.bump((q0, pc), (rq, rp))
    nq, npp = 512, 768
    q, p = wf._q_nodes(nq), np.linspace(-1.0, 0.0, npp + 1)
    window = (np.sum(np.abs(wf._wrap_q(q - q0) / rq) < 1.0)
              * np.sum(np.abs((p - pc) / rp) < 1.0) * 8)
    wf.cross_identity(f, v_two_layer, params, tf, nq, npp)
    tracemalloc.start()
    try:
        wf.cross_identity(f, v_two_layer, params, tf, nq, npp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * window


def test_windowed_pairings_keep_the_fft_resampling(v_two_layer, monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("dense trigonometric sum taken")

    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    hf = random_admissible_field(np.random.default_rng(4)).sample(
        Grid(32, 32, aligned_jumps=(-0.5,)), Q=12.0)
    fields = tr.reconstruct_fields(hf, v_two_layer, params)
    tf = wf.bump((-3 * np.pi / 4, -0.45), (np.pi / 4, 0.2))
    phi = wf.pushforward_testfn(tf, hf, params)
    monkeypatch.setattr(fd, "_trig_dense", no_dense)
    wf.cross_identity(hf, v_two_layer, params, tf, nq=64, npp=64)
    wf.pair_height(hf, v_two_layer, params, tf, nq=64, npp=64)
    wf.pair_stream(fields, v_two_layer, params, phi, nq=64, npp=64)
    wf.pair_euler(fields, params, phi, nq=64, npp=64, v=v_two_layer)
    wf.QuadratureLevel(params, 64, 64, v_two_layer, field_like=hf,
                       fields=fields).pairings(tf, with_cross=True)


# -- surface identity -----------------------------------------------------------------


def test_surface_identity_random_fields(v_two_layer, rng):
    params = FlowParameters(d=1.2, g=3.3, c=1.0, p0=-0.9)
    for _ in range(5):
        f = random_admissible_field(rng)
        g = Grid(32, 64, aligned_jumps=(-0.5,))
        hf = f.sample(g, Q=7.5)
        rep = wf.surface_identity(hf, params)
        assert rep["identity_gap_rel"] < 1e-13


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), Nq=st.sampled_from([8, 16, 64]),
       Np=st.sampled_from([16, 32, 128]),
       jumps=st.sampled_from([(), (-0.5,), (-0.75, -0.25)]),
       max_hp=st.floats(0.05, 0.6), d=st.floats(0.5, 2.0),
       g=st.floats(0.5, 20.0), p0=st.floats(-2.0, -0.5))
def test_surface_identity_property(seed, Nq, Np, jumps, max_hp, d, g, p0):
    # both sides are computed from the same surface derivatives, so their
    # gap is round-off for every admissible field and flow
    params = FlowParameters(d=d, g=g, c=1.0, p0=p0)
    f = random_admissible_field(np.random.default_rng(seed), max_hp=max_hp)
    hf = f.sample(Grid(Nq, Np, aligned_jumps=jumps), Q=7.5)
    assert wf.surface_identity(hf, params)["identity_gap_rel"] <= 1e-13


def test_surface_identity_flat_exact(flat, v_zero):
    params, hf = flat
    rep = wf.surface_identity(hf, params)
    assert rep["identity_gap_rel"] < 1e-15
    assert rep["surface_residual"] < 1e-13


def test_surface_identity_solved(solved_laminar, v_two_layer):
    params, hf = solved_laminar
    rep = wf.surface_identity(hf, params)
    assert rep["identity_gap_rel"] < 1e-13
    # dynamic condition residual is limited by the h_p stencil constant
    assert rep["surface_residual"] < 1e-8


# -- mollification diagnostic ----------------------------------------------------------


@pytest.fixture(scope="module")
def smooth_fields(rng_seed=11):
    from steadywaves.vorticity import VorticityFunction
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    v_smooth = VorticityFunction(pieces=((-1.0, 0.0, (1.0, 0.5)),))
    g = Grid(128, 128)
    hf = random_admissible_field(np.random.default_rng(rng_seed)).sample(
        g, Q=12.0)
    return params, tr.reconstruct_fields(hf, v_smooth, params)


def test_mollification_smooth_slope(smooth_fields):
    params, fields = smooth_fields
    rep = wf.mollification_rate(fields, params, [0.2, 0.25, 0.3],
                                tf=wf.bump((0.0, -0.5), (np.pi / 3, 0.2)))
    # smooth gamma: mollification differences decay at >= first order
    assert rep["alpha_hat"] > 0.9
    assert rep["three_alpha_minus_one_positive"]


def test_mollification_two_layer_reports(v_two_layer):
    # discontinuous-vorticity fields: report only, values present and finite
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    g = Grid(64, 128, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    hf = HeightField(g, np.tile(lf.h, (64, 1)), Q=lf.Q)
    fields = tr.reconstruct_fields(hf, v_two_layer, params)
    rep = wf.mollification_rate(fields, params, [0.3, 0.4, 0.5])
    assert len(rep["F_diff_sup"]) == 3
    assert np.isfinite(rep["alpha_hat"])


def test_mollification_rejects_small_eps(smooth_fields):
    params, fields = smooth_fields
    with pytest.raises(ValueError):
        wf.mollification_rate(fields, params, [1e-4])
