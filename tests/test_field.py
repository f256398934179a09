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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), Nq=st.sampled_from([8, 10, 16, 32, 64]),
       m=st.integers(1, 4), parity=st.sampled_from(["even", "odd", "any"]),
       deriv=st.booleans())
def test_resampler_matches_dense_sum(data, Nq, m, parity, deriv):
    c = fd._trig_coeffs(_rows(data, Nq, parity), Grid(Nq, 8))
    q = fd._q_nodes(m * Nq)
    dense = fd._trig_dense(c, q, deriv)
    fast = fd._trig_eval(c, q, deriv)
    assert np.max(np.abs(fast - dense)) <= 1e-13 * max(1.0, np.max(np.abs(dense)))


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
