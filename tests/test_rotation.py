"""The gas kernels commute with a rotation of the frame, given their inputs.

Rotating the edge normals and the momenta of the states by one angle
must rotate the momentum components of every kernel's output with them
and leave its density and energy components as they are.  Each kernel
runs on 400 random triangles (``verify.random_triangles``) and states,
seed 0, rotated by 0.7 rad, and agrees to 1e-12 relative to its largest
output: ``n_scheme_system``, ``rxn_scheme`` with a given wave-speed
bound s, ``limit_system`` at the flow direction and ``correction_system``.

The wave-speed bound is left out: ``Euler.max_wavespeed`` pairs the
velocity and sound speed componentwise, so on these triangles s moves by
up to 0.27 relative under this rotation (|u| + a would not move).  Both
frames are therefore given the bound of the unrotated states.
"""

import numpy as np
import pytest

from rdflux import distribution as dist
from rdflux import limiting, physics, verify
from rdflux.mesh import compute_normals, triangle_areas

from .conftest import edge_lengths, mean_state, random_euler_states, sweep_bound

N = 400
ANGLE = 0.7
ROT = np.array([[np.cos(ANGLE), -np.sin(ANGLE)], [np.sin(ANGLE), np.cos(ANGLE)]])


def rotated(x):
    """``x`` with its (x, y) pair rotated by ``ANGLE``: a (..., 2) direction,
    or the momenta, components 1 and 2, of (..., 4) states or parts."""
    x = np.array(x, dtype=float)
    pair = x[..., 1:3] if x.shape[-1] == 4 else x
    pair[...] = pair @ ROT.T
    return x


def assert_rotates(actual, reference):
    """``actual`` (rotated frame) is ``reference`` rotated, to 1e-12 relative."""
    expected = rotated(reference)
    assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.fixture(scope="module")
def case():
    """The law, both frames' (normals, states), the areas and one bound."""
    law = physics.Euler()
    rng = np.random.default_rng(0)
    coords = verify.random_triangles(rng, N)
    normals = compute_normals(coords)
    q = random_euler_states(rng, (N, 3))
    frames = [(normals, q), (rotated(normals), rotated(q))]
    return law, frames, triangle_areas(coords), sweep_bound(law, q)


def test_n_scheme_system(case):
    law, frames, _, s = case
    out = [dist.n_scheme_system(law, n, q, law.to_params(q), edge_lengths(n), s)
           for n, q in frames]
    assert not out[0].fallback.any() and not out[1].fallback.any()
    assert_rotates(out[1].parts, out[0].parts)
    assert_rotates(out[1].star, out[0].star)


def test_rxn_scheme_with_a_given_bound(case):
    law, frames, _, s = case
    out = [dist.rxn_scheme(law, n, q, s, edge_lengths(n)) for n, q in frames]
    assert_rotates(out[1].parts, out[0].parts)
    assert_rotates(out[1].star, out[0].star)


def raw_parts(case):
    """Each frame's (normals, wave data of the mean states, RXN parts)."""
    law, frames, _, s = case
    return [(n, law.waves(mean_state(q)), dist.rxn_scheme(law, n, q, s, edge_lengths(n)).parts)
            for n, q in frames]


def test_limit_system_at_the_flow_direction(case):
    law = case[0]
    out = [limiting.limit_system(parts, law, limiting.limiting_direction(waves), waves)
           for _, waves, parts in raw_parts(case)]
    assert_rotates(out[1], out[0])


def test_correction_system(case):
    law, areas = case[0], case[2]
    out = [limiting.correction_system(parts.copy(), parts.sum(axis=1), areas, n, law, waves)
           for n, waves, parts in raw_parts(case)]
    assert_rotates(out[1], out[0])
