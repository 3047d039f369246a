import numpy as np
import pytest

from wavemaplab.fields import _dot
from wavemaplab.manufactured import (ComposedWithBoost, ConstantMap,
                                     GeodesicPlaneWave, QuadraticNullField,
                                     TimeSquaredBump, bump_profile)
from wavemaplab.spacetime import LorentzBoost, SpacetimePoint
from wavemaplab.stress_energy import BumpTest


def jet_row(field, t, x):
    """(value, dt, grad) of ``field`` at one node: row 0 of a 1-row
    ``jets_at`` call."""
    values, dts, grads = field.jets_at(np.array([t], float),
                                       np.asarray(x, float)[None])
    return values[0], dts[0], grads[0]


def box_row(field, t, x):
    """box u at one node: row 0 of a 1-row ``box_at`` call."""
    return field.box_at(np.array([t], float), np.asarray(x, float)[None])[0]


def fd_jet(field, pt, h=1e-5):
    """Finite-difference (dt, grad) oracle from jet values."""
    def value(t, x):
        return jet_row(field, t, x)[0]

    dt = (value(pt.t + h, pt.x) - value(pt.t - h, pt.x)) / (2.0 * h)
    grad = np.empty((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        grad[i] = (value(pt.t, pt.x + e) - value(pt.t, pt.x - e)) / (2.0 * h)
    return dt, grad


def fd_box(field, pt, h=1e-3):
    def value(t, x):
        return jet_row(field, t, x)[0]

    out = (value(pt.t + h, pt.x) - 2.0 * value(pt.t, pt.x)
           + value(pt.t - h, pt.x)) / h**2
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        out -= (value(pt.t, pt.x + e) - 2.0 * value(pt.t, pt.x)
                + value(pt.t, pt.x - e)) / h**2
    return out


POINTS = [SpacetimePoint(0.2, np.array([0.3, -0.1, 0.15])),
          SpacetimePoint(-0.1, np.array([0.05, 0.25, -0.3])),
          SpacetimePoint(0.0, np.array([-0.2, 0.1, 0.4]))]


def test_constant_map():
    cm = ConstantMap((0.0, 1.0, 0.0))
    pt = POINTS[0]
    value, dt, grad = jet_row(cm, pt.t, pt.x)
    assert np.array_equal(value, [0.0, 1.0, 0.0])
    assert np.all(dt == 0.0) and np.all(grad == 0.0)
    assert np.all(box_row(cm, pt.t, pt.x) == 0.0)


def test_plane_wave_is_sphere_valued_and_solves_wave_equation():
    pw = GeodesicPlaneWave(np.array([2.0, -1.0, 0.5]))
    assert pw.omega == pytest.approx(np.sqrt(5.25))
    for pt in POINTS:
        value, dt, grad = jet_row(pw, pt.t, pt.x)
        assert np.dot(value, value) == pytest.approx(1.0, abs=1e-14)
        # w = |k|: box u = 0 and the Lagrangian density vanishes, so the
        # sphere-valued wave-map equation holds exactly
        assert np.allclose(box_row(pw, pt.t, pt.x), 0.0, atol=1e-13)
        lag = float(np.sum(grad**2) - np.dot(dt, dt))
        assert lag == pytest.approx(0.0, abs=1e-13)


def test_plane_wave_jets_match_finite_differences():
    pw = GeodesicPlaneWave(np.array([1.0, 2.0, 3.0]), omega=1.7, phase=0.3)
    for pt in POINTS:
        _, jet_dt, jet_grad = jet_row(pw, pt.t, pt.x)
        dt, grad = fd_jet(pw, pt)
        assert np.allclose(jet_dt, dt, atol=1e-8)
        assert np.allclose(jet_grad, grad, atol=1e-8)
        assert np.allclose(box_row(pw, pt.t, pt.x), fd_box(pw, pt), atol=1e-5)


def test_plane_wave_batch_matches_scalar():
    pw = GeodesicPlaneWave(np.array([1.0, 0.5, -0.25]))
    ts = np.array([p.t for p in POINTS])
    xs = np.stack([p.x for p in POINTS])
    values, dts, grads = pw.jets_at(ts, xs)
    boxes = pw.box_at(ts, xs)
    for k, pt in enumerate(POINTS):
        value, dt, grad = jet_row(pw, pt.t, pt.x)
        assert np.allclose(values[k], value, atol=1e-14)
        assert np.allclose(dts[k], dt, atol=1e-14)
        assert np.allclose(grads[k], grad, atol=1e-14)
        assert np.allclose(boxes[k], box_row(pw, pt.t, pt.x), atol=1e-14)


def bump_value(x, center, scale):
    """The radial bump b, read off TimeSquaredBump (u = t^2 b e) at t = 1."""
    fld = TimeSquaredBump(center=center, scale=scale)
    return fld.jets_at(np.ones(1), np.asarray(x, float)[None, :])[0][0, 0]


def bump_gradient(x, center, scale):
    """grad b: at t = 1 the gradient of u = b e is grad b (x) e."""
    fld = TimeSquaredBump(center=center, scale=scale)
    return fld.jets_at(np.ones(1), np.asarray(x, float)[None, :])[2][0, :, 0]


def bump_laplacian(x, center, scale):
    """Lap b: at t = 1, box u = (2 b - Lap b) e."""
    fld = TimeSquaredBump(center=center, scale=scale)
    x = np.asarray(x, float)[None, :]
    return 2.0 * fld.jets_at(np.ones(1), x)[0][0, 0] \
        - fld.box_at(np.ones(1), x)[0, 0]


def test_bump_profile_support_and_derivatives():
    assert bump_profile(1.0) == 0.0
    assert bump_profile(2.0) == 0.0
    assert bump_profile(0.0) == pytest.approx(np.exp(-1.0))
    c = np.array([0.1, 0.0, -0.2])
    x = np.array([0.3, 0.1, 0.0])
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (bump_value(x + e, c, 0.8) - bump_value(x - e, c, 0.8)) / (2 * h)
        assert bump_gradient(x, c, 0.8)[i] == pytest.approx(fd, abs=1e-8)
    h = 1e-4
    lap = sum((bump_value(x + np.eye(3)[i] * h, c, 0.8)
               - 2 * bump_value(x, c, 0.8)
               + bump_value(x - np.eye(3)[i] * h, c, 0.8)) / h**2
              for i in range(3))
    assert bump_laplacian(x, c, 0.8) == pytest.approx(lap, abs=1e-5)
    assert bump_value(c + np.array([1.0, 0.0, 0.0]), c, 0.9) == 0.0


def test_time_squared_bump_initial_slice_and_box():
    fld = TimeSquaredBump(center=(0.1, 0.0, 0.0), scale=1.2,
                          direction=(1.0, 1.0, 0.0))
    value0, dt0, grad0 = jet_row(fld, 0.0, np.array([0.2, 0.1, 0.0]))
    assert np.all(value0 == 0.0)
    assert np.all(dt0 == 0.0) and np.all(grad0 == 0.0)
    for pt in POINTS:
        _, jet_dt, jet_grad = jet_row(fld, pt.t, pt.x)
        dt, grad = fd_jet(fld, pt)
        assert np.allclose(jet_dt, dt, atol=1e-8)
        assert np.allclose(jet_grad, grad, atol=1e-8)
        assert np.allclose(box_row(fld, pt.t, pt.x), fd_box(fld, pt), atol=1e-4)
    ts = np.array([p.t for p in POINTS])
    xs = np.stack([p.x for p in POINTS])
    values, dts, grads = fld.jets_at(ts, xs)
    boxes = fld.box_at(ts, xs)
    for k, pt in enumerate(POINTS):
        value, dt, grad = jet_row(fld, pt.t, pt.x)
        assert np.allclose(values[k], value, atol=1e-14)
        assert np.allclose(dts[k], dt, atol=1e-14)
        assert np.allclose(grads[k], grad, atol=1e-14)
        assert np.allclose(boxes[k], box_row(fld, pt.t, pt.x), atol=1e-12)


# The broadcast (N, 3) and (N, 3, 3) forms that the per-component fields
# replaced, with the same arithmetic in the same order.


def _profile_ds_reference(s):
    out = bump_profile(s)
    m = s < 1.0
    out[m] *= -1.0 / (1.0 - s[m])**2
    return out


def _time_squared_bump_reference(fld, ts, xs):
    y = xs - fld.center
    s = np.sum(y**2, axis=1) / fld.scale**2
    b, bs = bump_profile(s), _profile_ds_reference(s)
    gb = (2.0 / fld.scale**2) * bs[:, None] * y
    values = (ts**2 * b)[:, None] * fld.e[None, :]
    dts = (2.0 * ts * b)[:, None] * fld.e[None, :]
    grads = (ts**2)[:, None, None] * gb[:, :, None] * fld.e[None, None, :]
    m = s < 1.0
    b2 = np.zeros_like(s)
    g = 1.0 / (1.0 - s[m])
    b2[m] = b[m] * (g**4 - 2.0 * g**3)
    lap = (6.0 / fld.scale**2) * bs + (4.0 * s / fld.scale**2) * b2
    box = (2.0 * b - ts**2 * lap)[:, None] * fld.e[None, :]
    return values, dts, grads, box


def _plane_wave_reference(fld, ts, xs):
    th = fld.omega * ts + _dot(fld.k, xs.T) + fld.phase
    c, s = np.cos(th), np.sin(th)
    values = np.stack([c, s, np.zeros_like(c)], axis=1)
    tangent = np.stack([-s, c, np.zeros_like(c)], axis=1)
    dts = fld.omega * tangent
    grads = fld.k[None, :, None] * tangent[:, None, :]
    box = (float(_dot(fld.k, fld.k)) - fld.omega**2) * values
    return values, dts, grads, box


def _bump_batch_reference(test, coords):
    c, _ = test._split()
    y = coords - c
    s = np.sum(y**2, axis=1) / test.scale**2
    psi = test.norm_const * bump_profile(s)
    dpsi = (test.norm_const * 2.0 / test.scale**2) \
        * _profile_ds_reference(s)[:, None] * y
    return psi, dpsi


def _bump_nodes(rng, center, scale, n=20_000):
    """Random nodes about ``center``, about 60 % of them outside the
    support (s >= 1), and one node at s = 1 along each axis."""
    xs = center + rng.normal(size=(n, 3)) * rng.uniform(0.0, 2.0 * scale,
                                                        (n, 1))
    for k in range(3):
        xs[k, :] = center
        xs[k, k] += scale
    return xs, rng.uniform(-1.0, 1.0, n)


def test_fields_bit_identical_to_broadcast_reference():
    rng = np.random.default_rng(41)
    bump = TimeSquaredBump(center=(0.1, -0.05, 0.02), scale=0.9,
                           direction=(0.3, -0.7, 0.2))
    xs, ts = _bump_nodes(rng, bump.center, bump.scale)
    s = np.sum((xs - bump.center)**2, axis=1) / bump.scale**2
    assert np.count_nonzero(s >= 1.0) >= 1000
    wave = GeodesicPlaneWave([1.3, -0.4, 2.1], phase=0.3)
    for fld, ref in ((bump, _time_squared_bump_reference),
                     (wave, _plane_wave_reference)):
        got = (*fld.jets_at(ts, xs), fld.box_at(ts, xs))
        for a, b in zip(got, ref(fld, ts, xs)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("center", [(0.1, -0.05, 0.02),
                                    SpacetimePoint(0.2, (0.1, -0.05, 0.02))])
def test_bump_test_batch_bit_identical_to_broadcast_reference(center):
    test = BumpTest(center, 0.8)
    xs, ts = _bump_nodes(np.random.default_rng(42),
                         np.array([0.1, -0.05, 0.02]), 0.8)
    coords = xs if test.dim == 3 else np.column_stack([ts * 0.8 + 0.2, xs])
    for a, b in zip(test.batch(coords), _bump_batch_reference(test, coords)):
        assert np.array_equal(a, b)


def test_quadratic_null_field_exact():
    q = QuadraticNullField()
    pt = POINTS[0]
    value, jet_dt, jet_grad = jet_row(q, pt.t, pt.x)
    assert value[0] == pytest.approx(pt.t**2 - np.dot(pt.x, pt.x))
    dt, grad = fd_jet(q, pt)
    assert np.allclose(jet_dt, dt, atol=1e-8)
    assert np.allclose(jet_grad, grad, atol=1e-8)
    assert np.array_equal(box_row(q, pt.t, pt.x), [8.0, 0.0, 0.0])
    assert np.allclose(fd_box(q, pt), [8.0, 0.0, 0.0], atol=1e-8)


def test_composed_with_boost_chain_rule():
    base = TimeSquaredBump(scale=1.5, direction=(0.5, -1.0, 0.25))
    boost = LorentzBoost(0.6)
    comp = ComposedWithBoost(base, boost.matrix)
    for pt in POINTS:
        value, jet_dt, jet_grad = jet_row(comp, pt.t, pt.x)
        img = SpacetimePoint.from_vector(boost.matrix @ pt.as_vector())
        assert np.allclose(value, jet_row(base, img.t, img.x)[0], atol=1e-14)
        dt, grad = fd_jet(comp, pt)
        assert np.allclose(jet_dt, dt, atol=1e-7)
        assert np.allclose(jet_grad, grad, atol=1e-7)
    ts = np.array([p.t for p in POINTS])
    xs = np.stack([p.x for p in POINTS])
    values, dts, grads = comp.jets_at(ts, xs)
    for k, pt in enumerate(POINTS):
        value, dt, grad = jet_row(comp, pt.t, pt.x)
        assert np.allclose(values[k], value, atol=1e-13)
        assert np.allclose(dts[k], dt, atol=1e-13)
        assert np.allclose(grads[k], grad, atol=1e-13)


def test_composed_with_boost_leaves_plane_wave_a_plane_wave():
    # boosting an exact wave map gives another exact wave map: the composed
    # field still has unit values and a vanishing Lagrangian density
    pw = GeodesicPlaneWave(np.array([1.5, 0.0, 1.0]))
    comp = ComposedWithBoost(pw, LorentzBoost(-0.4).matrix)
    for pt in POINTS:
        value, dt, grad = jet_row(comp, pt.t, pt.x)
        assert np.dot(value, value) == pytest.approx(1.0, abs=1e-14)
        lag = float(np.sum(grad**2) - np.dot(dt, dt))
        assert lag == pytest.approx(0.0, abs=1e-12)
