import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from steadywaves import field as fd
from steadywaves.grid import Grid


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
    """The cosine series (nh+1, M) at the exact nodes `_q_nodes(nq)`,
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
    fast = fd._trig_eval(c, fd._q_nodes(m * Nq), deriv)
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


@pytest.mark.parametrize("q", [fd._q_nodes(24),            # not a multiple
                               fd._q_nodes(32) + 1e-3,      # not the nodes
                               np.linspace(-1.0, 1.0, 7)])
def test_other_nodes_take_the_dense_sum(q, monkeypatch):
    def no_fft(*args, **kwargs):
        raise AssertionError("FFT path taken")

    c = fd._trig_coeffs(np.random.default_rng(4).standard_normal((16, 5)),
                        Grid(16, 8))
    monkeypatch.setattr(fd, "_trig_resample", no_fft)
    for deriv in (False, True):
        assert np.array_equal(fd._trig_eval(c, q, deriv),
                              fd._trig_dense(c, q, deriv))


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
