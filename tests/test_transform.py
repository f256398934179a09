import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steadywaves.vorticity import DomainError, FlowParameters, gamma_cap
from steadywaves import laminar
from steadywaves.grid import Grid
from steadywaves import field as fd
from steadywaves.field import HeightField, random_admissible_field
from steadywaves import transform as tr
from steadywaves.solver import StagnationError


@pytest.fixture(scope="module")
def flat():
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    g = Grid(32, 32)
    Q = 2 * params.g * params.d + params.p0 ** 2 / params.d ** 2
    return params, HeightField(g, np.zeros((32, 33)), Q=Q)


@pytest.fixture(scope="module")
def laminar_two_layer_field():
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    from steadywaves.vorticity import two_layer
    v = two_layer(3.0)
    g = Grid(16, 128, aligned_jumps=(-0.5,))
    lf = laminar.solve(v, params, g.p)
    return params, v, lf, HeightField(g, np.tile(lf.h, (16, 1)), Q=lf.Q)


def test_flat_map(flat, v_zero):
    params, hf = flat
    x, y, eta = tr.physical_map(hf, params)
    assert np.max(np.abs(y - params.d * hf.grid.p[None, :])) == 0.0
    assert np.max(np.abs(eta)) == 0.0
    assert np.max(np.abs(y[:, 0] + params.d)) == 0.0


def test_flat_inversion(flat):
    params, hf = flat
    assert tr.invert_height(hf, params, 0.3, -0.5) == pytest.approx(-0.5,
                                                                    abs=1e-15)
    # boundary pinning
    assert tr.invert_height(hf, params, 0.0, -params.d) == -1.0
    assert tr.invert_height(hf, params, 0.0, 0.0) == 0.0


def test_inversion_out_of_range(flat):
    params, hf = flat
    with pytest.raises(tr.DomainError):
        tr.invert_height(hf, params, 0.0, 0.5)
    with pytest.raises(tr.DomainError):
        tr.invert_height(hf, params, 0.0, -1.5)
    # one DomainError for every point outside a domain: p or (x, y)
    assert tr.DomainError is DomainError
    with pytest.raises(DomainError):
        tr.invert_height(hf, params, 0.0, 0.5)


def test_roundtrip_random_field(v_two_layer, rng):
    params = FlowParameters(d=1.3, g=5.0, c=2.0, p0=-0.7)
    g = Grid(32, 48, aligned_jumps=(-0.5,))
    hf = random_admissible_field(rng).sample(g, Q=10.0)
    x, y, eta = tr.physical_map(hf, params)
    for i in range(0, g.Nq, 7):
        for j in range(0, g.Np + 1, 5):
            p = tr.invert_height(hf, params, g.q[i], y[i, j])
            assert abs(p - g.p[j]) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), Nq=st.sampled_from([8, 16, 32]),
       Np=st.sampled_from([8, 24, 64]), d=st.floats(0.5, 2.0))
def test_inversion_roundtrip_off_node(seed, Nq, Np, d):
    # y = d (h(q, p) + p) of the interpolated field at random off-node (q, p)
    # inverts back to p.  invert_height accepts a y within rtol d of the
    # column and clips it; the map's slope d (1 + h_p) is at least
    # d (1 - max_hp) (random_admissible_field's default max_hp = 0.2), so
    # p comes back within rtol / (1 - max_hp)
    params = FlowParameters(d=d, g=9.8, c=1.0, p0=-1.0)
    rng = np.random.default_rng(seed)
    hf = random_admissible_field(rng).sample(Grid(Nq, Np), Q=10.0)
    q, p = rng.uniform(-np.pi, np.pi, 16), rng.uniform(-1.0, 0.0, 16)
    y = d * (np.diag(hf.evaluator().h_at(q, p)) + p)
    rtol = 1e-12
    back = tr.invert_height(hf, params, q, y, rtol=rtol)
    assert np.max(np.abs(back - p)) <= rtol / (1.0 - 0.2)


def _invert_per_point(hf, params, x, y, rtol=1e-12):
    """invert_height one point at a time: the per-point reference."""
    g, d = hf.grid, params.d
    ycols = d * (hf.columns(x.ravel()) + g.p[None, :])
    out = np.empty(x.size)
    for n, (yc, yn) in enumerate(zip(ycols, y.ravel())):
        if yn < yc[0] - rtol * d or yn > yc[-1] + rtol * d:
            raise tr.DomainError(
                f"y={yn:g} outside [-d, eta(x)] = [{yc[0]:g}, {yc[-1]:g}]")
        j = int(np.clip(np.searchsorted(yc, yn) - 1, 0, g.Np - 1))
        t = (yn - yc[j]) / (yc[j + 1] - yc[j])
        out[n] = g.p[j] + np.clip(t, 0.0, 1.0) * g.dp
    return out.reshape(x.shape)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), Nq=st.sampled_from([8, 16, 64]),
       Np=st.sampled_from([8, 24, 96]), d=st.floats(0.5, 2.0))
def test_batched_inversion_is_the_per_point_loop(seed, Nq, Np, d):
    # bit for bit, at random points of the fluid domain, on the bed y = -d,
    # on the surface y = eta(x), and at column nodes, where the bracket
    # search meets a tie (p_{j-1} + dp and p_j differ in the last bit for
    # some j when Np is not a power of 2); out of range, the same message
    # for the first point in C order
    params = FlowParameters(d=d, g=9.8, c=1.0, p0=-1.0)
    rng = np.random.default_rng(seed)
    g = Grid(Nq, Np, aligned_jumps=(-0.5,))
    hf = random_admissible_field(rng).sample(g, Q=10.0)
    x = rng.uniform(-np.pi, np.pi, (6, 8))
    ycols = d * (hf.columns(x.ravel()) + g.p[None, :]).reshape(6, 8, -1)
    s = rng.uniform(0.0, 1.0, (6, 8))
    y = ycols[..., 0] + s * (ycols[..., -1] - ycols[..., 0])
    y[0], y[1] = -d, ycols[1, :, -1]
    y[2] = ycols[2, np.arange(8), rng.integers(0, Np + 1, 8)]
    back = tr.invert_height(hf, params, x, y)
    assert back.shape == x.shape
    assert back.tobytes() == _invert_per_point(hf, params, x, y).tobytes()
    y[4, 5] = ycols[4, 5, -1] + 1e-3
    y[5, 1] = -d * (1.0 + 1e-3)
    with pytest.raises(tr.DomainError) as ref:
        _invert_per_point(hf, params, x, y)
    with pytest.raises(tr.DomainError, match=re.escape(str(ref.value))):
        tr.invert_height(hf, params, x, y)


def test_map_rejects_stagnation(params):
    g = Grid(8, 16)
    h = np.zeros((8, 17))
    h[:, 1:] -= 1.5 * (g.p[None, 1:] + 1.0)
    hf = HeightField(g, h, Q=1.0)
    with pytest.raises(StagnationError):
        tr.physical_map(hf, params)


@pytest.mark.parametrize("margin, refused", [(0.5, True), (2.0, False)])
def test_reconstruction_refuses_near_stagnation(params, v_zero, margin,
                                                refused):
    # h tilted in p so that 1 + h_p = margin * EPS_STAG at every node: the
    # columns still rise, so only the no-stagnation threshold decides
    g = Grid(8, 16)
    h = np.tile((margin * fd.EPS_STAG - 1.0) * (g.p + 1.0), (8, 1))
    hf = HeightField(g, h, Q=1.0)
    assert hf.min_one_plus_hp() == pytest.approx(margin * fd.EPS_STAG,
                                                 rel=1e-3)
    tr.physical_map(hf, params)
    if refused:
        with pytest.raises(StagnationError):
            tr.reconstruct_fields(hf, v_zero, params)
    else:
        tr.reconstruct_fields(hf, v_zero, params)


def test_flat_stream_and_velocity(flat, v_zero):
    params, hf = flat
    psi, psi_x, psi_y = tr.reconstruct_stream(hf, params)
    assert np.max(np.abs(psi_x)) == 0.0
    assert np.max(np.abs(psi_y - params.p0 / params.d)) == 0.0
    assert np.max(np.abs(psi - params.p0 * hf.grid.p[None, :])) == 0.0
    fields = tr.reconstruct_fields(hf, v_zero, params)
    assert np.max(np.abs(fields.u - (params.c + params.p0 / params.d))) == 0.0
    assert np.max(np.abs(fields.v)) == 0.0


def test_stream_boundary_values(laminar_two_layer_field):
    params, v, lf, hf = laminar_two_layer_field
    psi, _, _ = tr.reconstruct_stream(hf, params)
    assert np.max(np.abs(psi[:, 0] - (-params.p0))) == 0.0
    assert np.max(np.abs(psi[:, -1])) == 0.0


def test_laminar_stream_closed_form(laminar_two_layer_field):
    params, v, lf, hf = laminar_two_layer_field
    _, psi_x, psi_y = tr.reconstruct_stream(hf, params)
    gc = gamma_cap(v, params, hf.grid.p)
    expected = params.p0 / params.d * np.sqrt(lf.lam + gc)
    assert np.max(np.abs(psi_x)) < 1e-12
    # h_p stencil error: 4th order, but with a large constant just below the
    # vorticity interface where (lam+gamma_cap)^(-9/2) Gamma'^4 is steep
    assert np.max(np.abs(psi_y - expected[None, :])) < 1e-4
    x, y, eta = tr.physical_map(hf, params)
    assert np.max(np.abs(eta)) < 1e-11
    assert np.max(np.abs(y - params.d * (lf.h + hf.grid.p)[None, :])) < 1e-12


def test_bed_velocity_condition(laminar_two_layer_field, rng):
    # v = 0 on the bed row for any field (h = 0 there)
    params, v, lf, hf = laminar_two_layer_field
    vel_v = tr.reconstruct_fields(hf, v, params).v
    assert np.max(np.abs(vel_v[:, 0])) < 1e-14
    g = Grid(32, 48, aligned_jumps=(-0.5,))
    hf2 = random_admissible_field(rng).sample(g, Q=5.0)
    vel_v2 = tr.reconstruct_fields(hf2, v, params).v
    assert np.max(np.abs(vel_v2[:, 0])) < 1e-13


def test_flat_pressure_hydrostatic(flat, v_zero):
    params, hf = flat
    P = tr.reconstruct_fields(hf, v_zero, params).P
    _, y, _ = tr.physical_map(hf, params)
    assert np.max(np.abs(P - (params.P_atm - params.g * y))) < 1e-13


def test_surface_pressure_atmospheric(laminar_two_layer_field):
    params, v, lf, hf = laminar_two_layer_field
    P = tr.reconstruct_fields(hf, v, params).P
    # surface condition holds to quadrature accuracy for the oracle profile
    assert np.max(np.abs(P[:, -1] - params.P_atm)) < 1e-10


def test_laminar_fields_x_independent(laminar_two_layer_field):
    params, v, lf, hf = laminar_two_layer_field
    fields = tr.reconstruct_fields(hf, v, params)
    for arr in (fields.psi_y, fields.u, fields.v, fields.P):
        assert np.max(np.abs(arr - arr[:1, :])) < 1e-12


def test_bernoulli_collapse_by_construction(laminar_two_layer_field):
    params, v, lf, hf = laminar_two_layer_field
    fields = tr.reconstruct_fields(hf, v, params)
    F, rep = tr.bernoulli_function(fields, v, params)
    assert rep["collapse_err"] < 1e-12
    # laminar F depends on p only
    assert np.max(np.abs(F - F[:1, :])) < 1e-12


def test_bernoulli_detects_non_bernoulli_pressure(laminar_two_layer_field):
    params, v, lf, hf = laminar_two_layer_field
    fields = tr.reconstruct_fields(hf, v, params)
    fields.P = fields.P + 0.1 * fields.y
    _, rep = tr.bernoulli_function(fields, v, params)
    assert rep["collapse_err"] >= 0.1 * params.d / 2


def test_no_stagnation_equivalences(laminar_two_layer_field, rng):
    params, v, lf, hf = laminar_two_layer_field
    fields = tr.reconstruct_fields(hf, v, params)
    assert hf.min_one_plus_hp() > 0
    assert np.max(fields.psi_y) < 0
    assert np.max(fields.u - params.c) < 0


def test_derivative_relations_mutually_inverse(rng):
    # h_q = -psi_x/(d psi_y), h_p = p0/(d psi_y) - 1 recovers the inputs
    params = FlowParameters(d=1.4, g=9.8, c=1.3, p0=-0.9)
    g = Grid(16, 32)
    hf = random_admissible_field(rng).sample(g, Q=4.0)
    hq, hp = hf.h_q(), hf.h_p()
    _, psi_x, psi_y = tr.reconstruct_stream(hf, params)
    hq_back = -psi_x / (params.d * psi_y)
    hp_back = params.p0 / (params.d * psi_y) - 1.0
    assert np.max(np.abs(hq_back - hq)) < 1e-13
    assert np.max(np.abs(hp_back - hp)) < 1e-13


def test_kinematic_surface_condition_on_wave():
    # v = (u - c) eta_x at surface nodes, checked on a genuine wave field
    from steadywaves.vorticity import zero_vorticity
    from steadywaves.solver import continuation
    Nq = 32
    dq = 2 * np.pi / Nq
    k_disc = np.sqrt(2.0 - 2.0 * np.cos(dq)) / dq
    params = FlowParameters(d=1.0, g=k_disc / np.tanh(k_disc), c=1.0, p0=-1.0)
    v0 = zero_vorticity()
    grid = Grid(Nq, 48)
    hf0 = HeightField(grid, np.zeros((Nq, 49)),
                      Q=laminar.laminar_Q(1.0, params))
    cont = continuation(hf0, v0, params, [0.0, 1e-3], tol=1e-11)
    assert cont.converged
    wave = cont.fields[-1]
    fields = tr.reconstruct_fields(wave, v0, params)
    eta_x = fd._trig_eval(fd._trig_coeffs(fields.eta[:, None], grid), grid.q,
                          deriv=True)[:, 0]
    gap = fields.v[:, -1] - (fields.u[:, -1] - params.c) * eta_x
    assert np.max(np.abs(gap)) < 1e-8 * max(1.0, np.max(np.abs(eta_x)))


def test_stream_gradient_two_ways(laminar_two_layer_field):
    # psi_x from h-derivatives vs finite differences of psi(x, y) at fixed y,
    # where psi(x, y) = p0 * p(x, y) through the inverse map
    params, v, lf, hf = laminar_two_layer_field
    pert = hf.copy()
    pert.h = pert.h + 1e-3 * np.cos(pert.grid.q)[:, None] \
        * (1.0 + pert.grid.p)[None, :]
    _, psi_x, _ = tr.reconstruct_stream(pert, params)
    g = pert.grid
    eps = 1e-6
    for (i, j) in ((3, 40), (9, 80), (5, 100)):
        x0 = g.q[i]
        y0 = params.d * (pert.h[i, j] + g.p[j])
        pp = tr.invert_height(pert, params, x0 + eps, y0)
        pm = tr.invert_height(pert, params, x0 - eps, y0)
        fd = params.p0 * (pp - pm) / (2 * eps)
        assert fd == pytest.approx(psi_x[i, j], abs=2e-4)
