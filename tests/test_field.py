import numpy as np
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
