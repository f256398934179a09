import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import THREE_PIECE, THREE_PIECE_PARAMS
from steadywaves import field as fd
from steadywaves import transform as tr
from steadywaves import weakform as wf
from steadywaves.grid import Grid, fd_weights, q_nodes


def _rows(data, Nq, parity):
    """Random rows (Nq, 3) of the given q-parity, plus the Nyquist row."""
    rows = data.draw(hnp.arrays(float, (Nq, 3),
                                elements=st.floats(-1.0, 1.0)))
    mirrored = rows[(-np.arange(Nq)) % Nq]          # h(-q) on the same nodes
    if parity == "even":
        rows = rows + mirrored
    elif parity == "odd":
        rows = rows - mirrored
    nyquist = np.cos(Nq // 2 * Grid(Nq, 8).q)
    return np.column_stack([rows, nyquist])


def _series_longdouble(c, nq, deriv):
    """The cosine series (nh+1, M) at the exact nodes `q_nodes(nq)`,
    summed in extended precision: the reference for both evaluation paths."""
    pi = 4 * np.arctan(np.longdouble(1))
    q = -pi + 2 * pi * np.arange(nq, dtype=np.longdouble) / nq
    kq = np.outer(q, np.arange(c.shape[0], dtype=np.longdouble))
    re = np.real(c).astype(np.longdouble)
    im = np.imag(c).astype(np.longdouble)
    if deriv:
        k = np.arange(c.shape[0], dtype=np.longdouble)[:, None]
        return (-np.sin(kq) @ (k * re) - np.cos(kq) @ (k * im)).astype(float)
    return (np.cos(kq) @ re - np.sin(kq) @ im).astype(float)


def _assert_resampler_matches_series(rows, Nq, m, deriv):
    c = fd._trig_coeffs(rows, Grid(Nq, 8))
    ref = _series_longdouble(c, m * Nq, deriv)
    fast = fd._trig_eval(c, q_nodes(m * Nq), deriv)
    assert np.max(np.abs(fast - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), Nq=st.sampled_from([8, 10, 16, 32, 64]),
       m=st.integers(1, 4), parity=st.sampled_from(["even", "odd", "any"]),
       deriv=st.booleans())
def test_resampler_matches_dense_sum(data, Nq, m, parity, deriv):
    _assert_resampler_matches_series(_rows(data, Nq, parity), Nq, m, deriv)


@pytest.mark.parametrize("Nq", [32, 64])
def test_resampler_nyquist_derivative(Nq):
    # zero rows plus the Nyquist row: the q-derivative vanishes at every
    # node, which the double-precision dense sum misses by sin(k q) round-off
    rows = np.column_stack([np.zeros((Nq, 3)), np.cos(Nq // 2 * Grid(Nq, 8).q)])
    _assert_resampler_matches_series(rows, Nq, 1, True)


@pytest.mark.parametrize("q", [q_nodes(24),               # not a multiple
                               q_nodes(32) + 1e-3,         # not the nodes
                               np.linspace(-1.0, 1.0, 7),
                               q_nodes(32)[5:12] + 1e-3,   # shifted subset
                               q_nodes(32)[3:4],           # a single node
                               q_nodes(1024)[:2],          # too sparse
                               q_nodes(48)[8:24],          # a window of 16
                               np.roll(q_nodes(32), 5),    # out of order
                               q_nodes(32)[np.r_[0:8, 24:32]]])  # wraps
def test_other_nodes_take_the_dense_sum(q, monkeypatch):
    # only a full node set is resampled by the FFT; a subset of the nodes,
    # even a window of 2 nh of them, is summed densely
    def no_fft(*args, **kwargs):
        raise AssertionError("FFT path taken")

    c = fd._trig_coeffs(np.random.default_rng(4).standard_normal((16, 5)),
                        Grid(16, 8))
    monkeypatch.setattr(fd, "_trig_resample", no_fft)
    for deriv in (False, True):
        assert np.array_equal(fd._trig_eval(c, q, deriv),
                              fd._trig_dense(c, q, deriv))


# -- the sampled-field interpolant ------------------------------------------------


def test_each_node_column_is_resampled_once(monkeypatch):
    # a verify level asks for 2 Np + 1 trapezoid p-nodes on a 2 Nq q-rule:
    # each sided column a call needs is resampled once per series, however
    # many p-nodes fall in its cells, with the bits of resampling it per
    # p-node; a bump's p-window resamples only its own cells' columns
    Nq, Np = 16, 32
    g = Grid(Nq, Np, aligned_jumps=(-0.5,))
    h = fd.random_admissible_field(np.random.default_rng(6)).sample(g).h
    h = h + 0.1 * np.cos(g.q)[:, None] * np.maximum(g.p + 0.5, 0.0)
    ev = fd.HeightField(g, h, Q=1.0).evaluator()
    below, above = np.flatnonzero(g.sided == Np // 2)
    assert not np.array_equal(ev._ahp[:, below], ev._ahp[:, above])  # jumps
    q, p = q_nodes(2 * Nq), np.linspace(-1.0, 0.0, 2 * Np + 1)
    e, t = g.p_cell(p)

    def per_p(series, deriv=False):
        return (fd._trig_eval(series[:, e], q, deriv) * (1.0 - t)
                + fd._trig_eval(series[:, e + 1], q, deriv) * t)

    want = {"h_at": per_p(ev._ah), "hq_at": per_p(ev._ah, True),
            "hp_at": per_p(ev._ahp)}
    cols = []
    resample = fd._trig_resample

    def recording(c, nq, deriv=False):
        cols.append(c.shape[1])
        return resample(c, nq, deriv)

    monkeypatch.setattr(fd, "_trig_resample", recording)
    for name in want:
        cols.clear()
        assert np.array_equal(getattr(ev, name)(q, p), want[name])
        assert sum(cols) <= len(g.sided) == Np + 2, (name, cols)
        assert getattr(ev, name)(q, p[:0]).shape == (2 * Nq, 0)

    tf = wf.bump((np.pi / 2, -0.4), (np.pi / 4, 0.2))
    pm = wf._nodes(wf._PM, 2 * Np)[0]
    jm = wf._bump_window(tf, 1, pm)[0]
    cells = g.p_cell(pm[jm])[0]
    cols.clear()
    wf.interp_rows(h, g, q, pm[jm])
    assert cols == [cells.max() - cells.min() + 2]
    assert cols[0] < Np // 2
    assert wf.interp_rows(h, g, q, pm[:0]).shape == (q.size, 0)


# -- the sided columns ------------------------------------------------------------


def _kinked_three_layer():
    """A sampled field on THREE_PIECE's grid whose h_p jumps at both of its
    breakpoints, -2/3 and -1/3."""
    g = Grid(16, 24, aligned_jumps=THREE_PIECE.breakpoints)
    h = fd.random_admissible_field(np.random.default_rng(8)).sample(g).h
    h = h + (0.1 * np.cos(g.q)[:, None] * np.maximum(g.p + 2 / 3, 0.0)
             - 0.05 * np.cos(2 * g.q)[:, None] * np.maximum(g.p + 1 / 3, 0.0))
    return fd.HeightField(g, h, Q=1.0)


def _one_sided_hp(g, h, j, cell):
    """h_p of h at node j on the layer of p-cell `cell`: Fornberg's weights
    on the 5 nodes of that layer nearest to p_j, ties to the lower node."""
    edges = np.array([0, *g.jump_nodes, g.Np])
    k = np.searchsorted(edges, cell, side="right") - 1
    nodes = np.arange(edges[k], edges[k + 1] + 1)
    sel = np.sort(nodes[np.argsort(np.abs(nodes - j), kind="stable")[:5]])
    return h[:, sel] @ fd_weights(g.p[j], g.p[sel], 1)


def test_sided_columns_duplicate_each_jump_node():
    g = _kinked_three_layer().grid
    assert g.jump_nodes == (8, 16)
    assert np.array_equal(g.sided, np.sort(np.r_[0:25, 8, 16]))
    e, t = g.p_cell(g.p_half)
    assert np.array_equal(e, np.arange(24) + (np.arange(24) >= 8)
                          + (np.arange(24) >= 16))
    assert np.allclose(t, 0.5, rtol=0.0, atol=1e-12)


def test_each_cell_blends_its_own_layers_hp():
    # inside every p-cell, h_p blends the one-sided values of the cell's
    # own layer at its two nodes; at a jump node the other layer's value is
    # far off, so a cell that read it would fail here
    hf = _kinked_three_layer()
    g, ev = hf.grid, hf.evaluator()
    q = q_nodes(2 * g.Nq)
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for jc in range(g.Np):
        ends = np.column_stack([_one_sided_hp(g, hf.h, j, jc)
                                for j in (jc, jc + 1)])
        lo, hi = fd._trig_eval(fd._trig_coeffs(ends, g), q).T
        got = ev.hp_at(q, g.p[jc] + g.dp * t[1:-1])
        want = np.outer(lo, 1.0 - t[1:-1]) + np.outer(hi, t[1:-1])
        assert np.max(np.abs(got - want)) <= 1e-12, jc
        for j, other in ((jc, jc - 1), (jc + 1, jc + 1)):
            if j in g.jump_nodes:
                assert np.max(np.abs(_one_sided_hp(g, hf.h, j, other)
                                     - ends[:, j - jc])) > 1e-2, (jc, j)


def test_prolong_reads_each_cells_own_side():
    # the midpoint of each cell takes the upper-sided h_p at its lower node
    # and the lower-sided h_p at its upper node, bit for bit
    hf = _kinked_three_layer()
    g = hf.grid
    fine = Grid(2 * g.Nq, 2 * g.Np, aligned_jumps=g.aligned_jumps)
    cols = hf.columns(fine.q)
    cols[::2] = hf.h
    node = np.arange(g.Np + 1)
    hp = cols @ g.Dp_sided.T
    hp_lo = hp[:, np.searchsorted(g.sided, node)]
    hp_hi = hp[:, np.searchsorted(g.sided, node, side="right") - 1]
    assert np.array_equal(hp_lo, g.node_dp(cols))
    assert np.array_equal(np.flatnonzero(np.any(hp_lo != hp_hi, axis=0)),
                          g.jump_nodes)
    h = fd.prolong(hf, fine).h
    assert np.array_equal(h[:, ::2], cols)
    assert np.array_equal(h[:, 1::2],
                          0.5 * (cols[:, :-1] + cols[:, 1:])
                          + g.dp / 8.0 * (hp_hi[:, :-1] - hp_lo[:, 1:]))


def test_level_keeps_one_hp_array_on_the_sided_columns():
    hf = _kinked_three_layer()
    g, v, params = hf.grid, THREE_PIECE, THREE_PIECE_PARAMS
    level = wf.QuadratureLevel(params, 2 * g.Nq, g.Np, v, field_like=hf,
                               fields=tr.reconstruct_fields(hf, v, params))
    level.sums(wf.bump((0.0, -0.5), (np.pi / 4, 0.3)),
               "height", "stream", "euler", "cross")
    assert sorted(level._columns) == sorted(
        ("hq_at", "hp_at", "psi_x", "psi_y", "P"))
    for cols, grid in level._columns.values():
        assert grid is g and cols.shape == (2 * g.Nq, g.Np + 1 + 2)


# -- analytic fields --------------------------------------------------------------


def _per_term(f, q, p):
    """(h, h_q, h_p) summed term by term (the evaluator's former loop), and
    a bound on the size of every term's monomials, the rounding scale."""
    out = [np.zeros((len(q), len(p))) for _ in range(3)]
    scale = 0.0
    for k, coeffs, c in f.terms:
        P = npoly.polyval(p, coeffs)
        dP = npoly.polyval(p, npoly.polyder(coeffs))
        out[0] += c * np.outer(np.cos(k * q), P)
        out[1] += -c * k * np.outer(np.sin(k * q), P)
        out[2] += c * np.outer(np.cos(k * q), dP)
        scale += abs(c) * max(1, k) * len(coeffs) * np.sum(np.abs(coeffs))
    return out, scale


def _assert_gemm_matches_per_term(f, q, p):
    ref, scale = _per_term(f, q, p)
    for got, want in zip((f.h_at(q, p), f.hq_at(q, p), f.hp_at(q, p)), ref):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * scale


# coefficients on a 0.01 grid: no product underflows, where rounding is
# absolute and no relative bound holds
_COEFF = st.integers(-300, 300).map(lambda n: n / 100)
# a p-polynomial vanishing at the bed: zero, linear 1 + p, or (1 + p) times
# a random cubic at most
_POLY = st.one_of(
    st.just([0.0]), st.just([1.0, 1.0]),
    st.lists(_COEFF, min_size=1, max_size=4).map(
        lambda a: list(npoly.polymul([1.0, 1.0], a))))


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(0, 5), _POLY, _COEFF),
                      max_size=8),
       q=hnp.arrays(float, st.integers(1, 16), elements=st.floats(-4.0, 4.0)),
       p=hnp.arrays(float, st.integers(1, 16), elements=st.floats(-1.0, 0.0)))
def test_analytic_gemm_matches_per_term_sum(terms, q, p):
    _assert_gemm_matches_per_term(fd.AnalyticHeightField(terms), q, p)


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(0, 5), _POLY, _COEFF),
                      max_size=8),
       q=hnp.arrays(float, st.integers(1, 16), elements=st.floats(-4.0, 4.0)),
       p=hnp.arrays(float, st.integers(0, 16), elements=st.floats(-1.0, 0.0)))
def test_analytic_at_p_is_the_polyvander_product(terms, q, p):
    # at_p's Vandermonde rows give the bits of npoly.polyvander's, -0.0
    # in p included; h_at, hq_at and hp_at, which form only the q-factor
    # they read, give the same bits
    f = fd.AnalyticHeightField(terms)
    P, Pp = (C @ npoly.polyvander(p, C.shape[1] - 1).T
             for C in (f._C, f._Cp))
    kq = np.outer(q, f._k)
    want = {"h_at": np.cos(kq) @ P, "hq_at": (np.sin(kq) * -f._k) @ P,
            "hp_at": np.cos(kq) @ Pp}
    for name, f_q in f.at_p(p).items():
        for got in (f_q(*f.at_q(q)), getattr(f, name)(q, p)):
            assert got.shape == want[name].shape
            assert np.array_equal(got.view(np.int64),
                                  want[name].view(np.int64))


def test_analytic_gemm_repeated_and_zero_wavenumbers():
    # repeated k = 0 and k = 2 terms merge into one row each; constant (zero)
    # and linear p-polynomials give no or constant h_p
    f = fd.AnalyticHeightField([(0, [0.0], 1.5), (2, [1.0, 1.0], -0.5),
                                (0, [1.0, 1.0], 0.25), (2, [0.0, 1.0, 1.0], 2.0),
                                (3, [1.0, 1.0], 0.1)])
    q = np.linspace(-np.pi, np.pi, 9)
    p = np.linspace(-1.0, 0.0, 7)
    _assert_gemm_matches_per_term(f, q, p)
    assert np.all(f.h_at(q, p)[:, 0] == 0.0)      # the bed row
    _assert_gemm_matches_per_term(fd.AnalyticHeightField([]), q, p)


@pytest.mark.parametrize("max_hp", [0.05, 0.2, 0.6])
def test_random_admissible_field_bounds_hp(max_hp):
    # the rescaling divides by the maximum on its own sampling grid, so that
    # maximum is max_hp up to the rounding of the rescaled sum
    qs = np.linspace(-np.pi, np.pi, 128, endpoint=False)
    ps = np.linspace(-1.0, 0.0, 257)
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = fd.random_admissible_field(rng, max_hp=max_hp)
        assert np.max(np.abs(f.hp_at(qs, ps))) <= max_hp * (1.0 + 1e-14)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), Nq=st.sampled_from([8, 32, 128]),
       Np=st.sampled_from([16, 48, 256]),
       jumps=st.sampled_from([(), (-0.5,), (-0.75, -0.25)]))
def test_min_one_plus_hp_in_blocks_is_the_whole_field_min(seed, Nq, Np,
                                                          jumps):
    # min_one_plus_hp takes h_p in blocks of rows to keep its temporaries
    # small; the blocks' stencil sums are those of the whole field, bit for
    # bit
    g = Grid(Nq, Np, aligned_jumps=jumps)
    h = np.random.default_rng(seed).standard_normal((Nq, Np + 1))
    hf = fd.HeightField(g, h, Q=0.0)
    assert hf.min_one_plus_hp() == np.min(1.0 + hf.h_p())


def test_sampled_analytic_field_has_an_exact_bed_row(v_two_layer, params):
    # every term carries (1 + p), but its sum at p = -1 rounds to 2.3e-18
    # here; the sample writes the exact 0 the bed condition asks for, so
    # the field is an admissible state and a valid Newton start
    from steadywaves.solver import ConvergenceError, newton_solve
    g = Grid(256, 512, aligned_jumps=(-0.5,))
    hf = fd.random_admissible_field(np.random.default_rng(0)).sample(g, Q=7.5)
    assert np.all(hf.h[:, 0] == 0.0)
    hf.check_admissible()
    with pytest.raises(ConvergenceError, match="no convergence after 0"):
        newton_solve(hf, v_two_layer, params, mode="fixed_Q", max_iter=0)


def _kinked(q, p):
    """cos(q) f(p), f smooth on each side of p = -1/2 with a jump in f_p
    there (2 cos 1 below, 3 above) and f(-1) = 0."""
    f = np.where(p <= -0.5, np.sin(2.0 * (p + 1.0)),
                 np.sin(1.0) + 3.0 * np.expm1(p + 0.5))
    return np.cos(q)[:, None] * f


def test_prolongation_is_fourth_order_across_a_jump():
    errs = []
    for Np in (32, 64, 128):
        g = Grid(16, Np, aligned_jumps=(-0.5,))
        fine = Grid(32, 2 * Np, aligned_jumps=(-0.5,))
        hf = fd.HeightField(g, _kinked(g.q, g.p), Q=1.5)
        out = fd.prolong(hf, fine)
        # hf's nodes are injected back bit for bit, the bed row stays 0
        assert np.array_equal(out.h[::2, ::2], hf.h) and out.Q == 1.5
        assert np.all(out.h[:, 0] == 0.0)
        errs.append(np.max(np.abs(out.h - _kinked(fine.q, fine.p))))
    # the cell midpoints' cubic Hermite error falls as dp^4
    for coarse, finer in zip(errs, errs[1:]):
        assert 12.0 <= coarse / finer <= 20.0
    with pytest.raises(ValueError, match="cannot prolong"):
        fd.prolong(hf, Grid(32, Np, aligned_jumps=(-0.5,)))


@pytest.mark.parametrize("nq", [8, 24, 128, 2048])
def test_q_nodes_are_the_grid_and_linspace_nodes(nq):
    # one formula for the q-nodes, with the bits of the grid's old
    # -pi + dq * arange and of the linspace that sampled random fields
    want = np.linspace(-np.pi, np.pi, nq, endpoint=False)
    assert q_nodes(nq).tobytes() == want.tobytes()
    assert Grid(nq, 8).q.tobytes() == want.tobytes()
