"""Reference 1D interface-splitting oracles, and the relaxation scheme on a
segment against them (LeVeque and Pelanti's LLF/HLL identity)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdflux import physics
from rdflux.errors import InvalidArgument

from . import oracle1d
from .conftest import random_euler_states


class TestLLF:
    def test_equal_states_zero(self, burgers):
        r = oracle1d.llf_1d(burgers, [1.3], [1.3], 2.0)
        assert np.allclose(r.minus, 0.0, atol=1e-15)
        assert np.allclose(r.plus, 0.0, atol=1e-15)

    def test_pure_right_going_advection(self):
        law = physics.Advection((1.0, 0.0))
        r = oracle1d.llf_1d(law, [0.0], [2.0], 1.0)
        assert np.isclose(r.minus[0], 0.0, atol=1e-15)
        assert np.isclose(r.plus[0], 2.0, rtol=1e-14)

    def test_burgers_reference_split(self, burgers):
        # f(1) = f(-1) = 1/2, so the flux difference vanishes and the
        # dissipation term carries the whole split: minus = 1, plus = -1.
        r = oracle1d.llf_1d(burgers, [1.0], [-1.0], 1.0)
        assert np.isclose(r.minus[0], 1.0, rtol=1e-14)
        assert np.isclose(r.plus[0], -1.0, rtol=1e-14)
        assert np.isclose(r.total[0], 0.0, atol=1e-15)

    def test_conservation_euler(self, euler, rng):
        q = random_euler_states(rng, (50, 2))
        for ql, qr in q:
            s = 1.0 + max(euler.max_wavespeed(ql[None])[0], euler.max_wavespeed(qr[None])[0])
            r = oracle1d.llf_1d(euler, ql, qr, s)
            fxl, _ = euler.flux(ql[None])
            fxr, _ = euler.flux(qr[None])
            assert np.abs(r.total - (fxr[0] - fxl[0])).max() < 1e-12 * max(
                1.0, np.abs(fxr).max()
            )


class TestHLL:
    def test_symmetric_speeds_match_llf(self, burgers, rng):
        ql = rng.standard_normal(200)
        qr = rng.standard_normal(200)
        s = 1.0 + np.maximum(np.abs(ql), np.abs(qr))
        for a, b, sb in zip(ql, qr, s):
            h = oracle1d.hll_1d(burgers, [a], [b], -sb, sb)
            l = oracle1d.llf_1d(burgers, [a], [b], sb)
            assert np.abs(h.minus - l.minus).max() <= 1e-14 * max(1.0, abs(sb))
            assert np.abs(h.plus - l.plus).max() <= 1e-14 * max(1.0, abs(sb))

    def test_both_speeds_positive_pure_upwind(self, burgers):
        r = oracle1d.hll_1d(burgers, [2.0], [3.0], 1.0, 4.0)
        df = 0.5 * (9.0 - 4.0)
        assert np.isclose(r.minus[0], 0.0, atol=1e-15)
        assert np.isclose(r.plus[0], df, rtol=1e-14)

    def test_equal_states_zero(self, euler):
        q = euler.freestream(0.7, 5.0)
        r = oracle1d.hll_1d(euler, q, q, -2.0, 2.0)
        assert np.allclose(r.minus, 0.0, atol=1e-15)
        assert np.allclose(r.plus, 0.0, atol=1e-15)

    def test_speed_ordering_enforced(self, burgers):
        with pytest.raises(InvalidArgument):
            oracle1d.hll_1d(burgers, [0.0], [1.0], 2.0, 2.0)
        with pytest.raises(InvalidArgument):
            oracle1d.hll_1d(burgers, [0.0], [1.0], 3.0, -3.0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(0.1, 3.0),
)
def test_conservation_property_all_solvers(ql, qr, margin):
    burgers = physics.Burgers()
    s = margin + max(abs(ql), abs(qr))
    df = 0.5 * (qr * qr - ql * ql)
    for r in (
        oracle1d.llf_1d(burgers, [ql], [qr], s),
        oracle1d.hll_1d(burgers, [ql], [qr], -s, s),
    ):
        assert abs(float(r.total[0]) - df) < 1e-12 * max(1.0, abs(df))


@pytest.mark.parametrize("seed", range(5))
def test_relaxation_segment_is_llf_and_hll(seed):
    # The seeds that the command-line property suites run: the relaxation
    # scheme on a segment and the symmetric HLL split both equal local
    # Lax-Friedrichs, to rounding relative to max(1, |LLF parts|).
    assert oracle1d.reduction_1d(seed) <= 1e-14
