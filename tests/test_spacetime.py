import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemaplab.spacetime import (ETA, ConeSpec, DiskSpec, LorentzBoost,
                                  SpacetimePoint)

speeds = st.floats(min_value=-0.95, max_value=0.95)
coords = st.floats(min_value=-5.0, max_value=5.0)


def test_eta_signature():
    assert np.array_equal(ETA, np.diag([-1.0, 1.0, 1.0, 1.0]))


def minkowski_dot(v, w):
    return v @ ETA @ w


def test_minkowski_dot_basics():
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    assert minkowski_dot(e0, e0) == -1.0
    assert minkowski_dot(e1, e1) == 1.0
    assert minkowski_dot(e0, e1) == 0.0
    # null vector
    n = np.array([1.0, 0.0, 0.0, 1.0])
    assert minkowski_dot(n, n) == 0.0


@given(speeds)
@settings(max_examples=40, deadline=None)
def test_boost_preserves_metric(nu):
    L = LorentzBoost(nu).matrix
    assert np.allclose(L.T @ ETA @ L, ETA, atol=1e-12)


@given(speeds)
@settings(max_examples=40, deadline=None)
def test_boost_inverse(nu):
    b = LorentzBoost(nu)
    inverse = LorentzBoost(-nu).matrix
    assert np.allclose(b.matrix @ inverse, np.eye(4), atol=1e-12)
    assert np.allclose(inverse @ b.matrix, np.eye(4), atol=1e-12)


@given(speeds, st.lists(coords, min_size=4, max_size=4),
       st.lists(coords, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_boost_invariance_of_dot(nu, v, w):
    L = LorentzBoost(nu).matrix
    v, w = np.array(v), np.array(w)
    assert minkowski_dot(L @ v, L @ w) == pytest.approx(
        minkowski_dot(v, w), abs=1e-9)


def test_boost_theta():
    b = LorentzBoost(0.6)
    assert b.theta == pytest.approx(1.25)


def test_boost_moves_singular_line_to_rest():
    # a point on the line x3 = nu t maps to x3' = 0
    nu = 0.6
    b = LorentzBoost(nu)
    pt = SpacetimePoint(0.7, np.array([0.0, 0.0, nu * 0.7]))
    img = SpacetimePoint.from_vector(b.matrix @ pt.as_vector())
    assert img.x[2] == pytest.approx(0.0, abs=1e-14)
    assert img.x[0] == img.x[1] == 0.0


def test_point_vector_round_trip():
    pt = SpacetimePoint(0.5, np.array([1.0, -2.0, 3.0]))
    v = pt.as_vector()
    assert np.array_equal(v, [0.5, 1.0, -2.0, 3.0])
    back = SpacetimePoint.from_vector(v)
    assert back.t == pt.t and np.array_equal(back.x, pt.x)


def test_boost_speed_validation():
    with pytest.raises(ValueError):
        LorentzBoost(1.0)
    with pytest.raises(ValueError):
        LorentzBoost(-1.2)


def test_disk_spec_validation():
    with pytest.raises(ValueError):
        DiskSpec(0.0, np.zeros(3), -0.1)
    d = DiskSpec(0.25, np.array([1.0, 0.0, 0.0]), 0.5)
    assert d.radius == 0.5


def test_cone_from_base_and_radius():
    cone = ConeSpec.from_base(np.zeros(3), 0.5, 0.0, 0.2)
    assert cone.apex.t == pytest.approx(0.5)
    assert cone.radius(0.0) == pytest.approx(0.5)
    assert cone.radius(0.2) == pytest.approx(0.3)
    assert cone.t_min == 0.0 and cone.t_max == pytest.approx(0.2)


def test_cone_from_base_height_bounds():
    with pytest.raises(ValueError):
        ConeSpec.from_base(np.zeros(3), 0.5, 0.0, 0.5)   # degenerates to apex
    with pytest.raises(ValueError):
        ConeSpec.from_base(np.zeros(3), 0.5, 0.0, -0.1)


def test_cone_truncation_validation():
    # the truncation is the interval every cone quadrature covers
    apex = SpacetimePoint(0.5, np.zeros(3))
    with pytest.raises(ValueError):
        ConeSpec(apex, 0.2, 0.1)
    with pytest.raises(ValueError):
        ConeSpec(apex, 0.0, apex.t + 0.1)
    assert ConeSpec(apex, 0.0, apex.t).t_max == apex.t
