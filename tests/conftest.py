import numpy as np
import pytest

from steadywaves.vorticity import (FlowParameters, VorticityFunction,
                                   two_layer, zero_vorticity)


# gravity making the k=1 wave mode neutral at the mean-zero laminar flow of
# the standard two-layer profile (d=1, p0=-1, A=3, jump -1/2); steady
# 2pi-periodic waves of small amplitude exist only near such critical data
G_CRITICAL_TWO_LAYER = 0.9643897689026288

# three pieces, one genuinely discontinuous breakpoint and one merely
# kinked; non-unit depth/flux exercise the dimensional factors
THREE_PIECE = VorticityFunction(pieces=((-1.0, -2.0 / 3.0, (2.0,)),
                                        (-2.0 / 3.0, -1.0 / 3.0, (0.5, 1.5)),
                                        (-1.0 / 3.0, 0.0, (0.0,))))
THREE_PIECE_PARAMS = FlowParameters(d=1.7, g=4.2, c=2.0, p0=-1.3)


@pytest.fixture(scope="session")
def params():
    return FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0, P_atm=0.0)


@pytest.fixture(scope="session")
def params_critical():
    return FlowParameters(d=1.0, g=G_CRITICAL_TWO_LAYER, c=1.0, p0=-1.0,
                          P_atm=0.0)


@pytest.fixture(scope="session")
def v_zero():
    return zero_vorticity()


@pytest.fixture(scope="session")
def v_two_layer():
    return two_layer(3.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)
