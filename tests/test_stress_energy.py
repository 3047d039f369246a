from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemaplab import fields
from wavemaplab.fields import (BoostedHarmonicMap, FieldEvaluator,
                               MapParams, s_lambda)
from wavemaplab.manufactured import (ConstantMap, GeodesicPlaneWave,
                                     QuadraticNullField, TimeSquaredBump)
from wavemaplab.quadrature import (ProductRule, SphereRule, energy_density,
                                   flux_density, flux_form_Q)
from wavemaplab.spacetime import ETA, LorentzBoost, SpacetimePoint
from wavemaplab.stress_energy import (BumpTest, CompIdentityResult,
                                      comp_identity_check, divergence_T,
                                      recover_point_charge, stress_tensor,
                                      transformation_check, weak_residual)

floats = st.floats(min_value=-2.0, max_value=2.0)


class Jet(NamedTuple):
    """Value and first derivatives of an R^3-valued field at one point."""

    value: np.ndarray  # (3,)
    dt: np.ndarray     # (3,)
    grad: np.ndarray   # (3, 3), grad[i, j] = d_i u^j


def random_jet(rng):
    return Jet(rng.normal(size=3), rng.normal(size=3),
               rng.normal(size=(3, 3)))


def row(jet):
    """One jet as the 1-row (dts, grads) arrays the batch forms take."""
    return jet.dt[None], jet.grad[None]


# ---------------------------------------------------------------------------
# pointwise densities and the stress tensor


def test_energy_density_value():
    jet = Jet(np.array([1.0, 0, 0]), np.array([1.0, 2.0, 0.0]),
              np.diag([1.0, 1.0, 1.0]))
    assert energy_density(*row(jet))[0] == pytest.approx(0.5 * (5.0 + 3.0))


def test_flux_form_diagonal_is_twice_flux_density():
    rng = np.random.default_rng(0)
    for _ in range(20):
        jet = random_jet(rng)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        assert flux_form_Q(*row(jet), *row(jet), n[None])[0] == pytest.approx(
            2.0 * flux_density(*row(jet), n[None])[0], rel=1e-12)


def test_flux_form_bilinear():
    rng = np.random.default_rng(1)
    a, b, c = (random_jet(rng) for _ in range(3))
    n = np.array([0.0, 0.0, 1.0])

    def lin(j1, j2, s):
        return Jet(j1.value + s * j2.value, j1.dt + s * j2.dt,
                   j1.grad + s * j2.grad)

    lhs = flux_form_Q(*row(lin(a, b, 2.0)), *row(c), n[None])[0]
    rhs = flux_form_Q(*row(a), *row(c), n[None])[0] \
        + 2.0 * flux_form_Q(*row(b), *row(c), n[None])[0]
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert flux_form_Q(*row(a), *row(b), n[None])[0] == pytest.approx(
        flux_form_Q(*row(b), *row(a), n[None])[0], rel=1e-12)


def test_flux_density_nonnegative_and_zero_for_outgoing():
    rng = np.random.default_rng(2)
    for _ in range(10):
        jet = random_jet(rng)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        assert flux_density(*row(jet), n[None])[0] >= 0.0
    # grad u = n (x) u_t makes the flux vanish identically
    dt = np.array([0.3, -0.2, 0.5])
    n = np.array([1.0, 0.0, 0.0])
    jet = Jet(np.array([1.0, 0, 0]), dt, np.outer(n, dt))
    assert flux_density(*row(jet), n[None])[0] == 0.0


def test_stress_tensor_symmetry_and_energy_slot():
    rng = np.random.default_rng(3)
    for _ in range(10):
        jet = random_jet(rng)
        T = stress_tensor(*row(jet))[0]
        assert np.allclose(T, T.T, atol=1e-13)
        # T_00 = -(1/2)(|u_t|^2 + |grad u|^2): the energy density with the
        # index-down time slot sign
        assert T[0, 0] == pytest.approx(-energy_density(*row(jet))[0],
                                        rel=1e-12)


def test_stress_tensor_trace():
    # eta^{ab} T_ab = -(d^c u . d_c u) for 3 spatial dimensions: trace of
    # (1/2 eta L - D D^T) against eta^{-1} gives 2L - L = L ... with signature
    # bookkeeping the invariant trace equals  L (4/2 - 1) = L
    rng = np.random.default_rng(4)
    jet = random_jet(rng)
    T = stress_tensor(*row(jet))[0]
    lag = float(np.sum(jet.grad**2) - np.dot(jet.dt, jet.dt))
    trace = float(np.trace(np.linalg.inv(ETA) @ T))
    assert trace == pytest.approx(lag, rel=1e-12)


def test_batch_forms_row_by_row_with_per_row_normals():
    # the 1-row tests above use one direction; here every row has its own
    # unit normal, as on a cone slice
    rng = np.random.default_rng(5)
    n = SphereRule(6).nodes
    dts = rng.normal(size=(len(n), 3))
    grads = rng.normal(size=(len(n), 3, 3))
    assert np.all(flux_form_Q(dts, grads, dts, grads, n)
                  == 2.0 * flux_density(dts, grads, n))
    # outgoing jets, grad u = n (x) u_t, carry no flux on any row
    outgoing = n[:, :, None] * dts[:, None, :]
    assert np.all(flux_density(dts, outgoing, n) == 0.0)
    np.testing.assert_allclose(energy_density(dts, grads),
                               -stress_tensor(dts, grads)[:, 0, 0],
                               rtol=1e-12)


def test_divergence_vanishes_for_exact_solution():
    pw = GeodesicPlaneWave(np.array([1.0, 2.0, -0.5]))
    pt = SpacetimePoint(0.1, np.array([0.2, -0.3, 0.05]))
    d1 = np.max(np.abs(divergence_T(pw, pt, 2e-2)))
    d2 = np.max(np.abs(divergence_T(pw, pt, 1e-2)))
    assert d2 <= 0.3 * d1 + 1e-12  # second-order stencil decay
    assert d2 < 1e-3


def test_divergence_makes_one_jets_call_of_eight_nodes():
    pw = GeodesicPlaneWave(np.array([1.0, 2.0, -0.5]))
    calls = []

    class Counted(GeodesicPlaneWave):
        def jets_at(self, ts, xs):
            calls.append(len(ts))
            return super().jets_at(ts, xs)

    pt = SpacetimePoint(0.1, np.array([0.2, -0.3, 0.05]))
    counted = Counted(pw.k)
    assert np.array_equal(divergence_T(counted, pt, 1e-2),
                          divergence_T(pw, pt, 1e-2))
    assert calls == [8]


# ---------------------------------------------------------------------------
# boost transformation law


def test_transformation_check_quadratic_exact():
    # all fourth derivatives vanish, so both stencils are exact and agree to
    # rounding
    lhs, rhs = transformation_check(QuadraticNullField(), LorentzBoost(0.6),
                                    SpacetimePoint(0.07, np.array([0.11, -0.05, 0.08])),
                                    2e-2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_transformation_check_second_order():
    fld = TimeSquaredBump(scale=1.5)
    boost = LorentzBoost(0.6)
    pt = SpacetimePoint(0.07, np.array([0.11, -0.05, 0.08]))
    errs = []
    for h in (4e-2, 2e-2, 1e-2):
        lhs, rhs = transformation_check(fld, boost, pt, h)
        errs.append(float(np.max(np.abs(lhs - rhs))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.min(orders) >= 1.9


# ---------------------------------------------------------------------------
# test bumps and weak residuals


def test_bump_test_normalization_spatial():
    from wavemaplab.quadrature import _disk_nodes
    from wavemaplab.spacetime import DiskSpec

    test = BumpTest(np.array([0.1, 0.0, -0.2]), 0.7)
    xs, w = _disk_nodes(DiskSpec(0.0, test.center, 0.7),
                        ProductRule(40, 40, 24))
    psi, _ = test.batch(xs)
    assert float(np.dot(w, psi)) == pytest.approx(1.0, abs=1e-8)


def test_bump_test_gradient_consistency():
    test = BumpTest(SpacetimePoint(0.1, np.array([0.0, 0.2, 0.0])), 0.6)
    pt = SpacetimePoint(0.2, np.array([0.1, 0.3, -0.1]))
    psi, dpsi = test.batch(np.array([pt.as_vector()]))
    h = 1e-6
    step = np.array([h, 0.0, 0.0, 0.0])
    fd_t = (test.value_at(pt.as_vector() + step)
            - test.value_at(pt.as_vector() - step)) / (2 * h)
    assert dpsi[0][0] == pytest.approx(fd_t, abs=1e-5)
    assert psi[0] == pytest.approx(test.value_at(pt.as_vector()), rel=1e-12)


def test_weak_residual_constant_map_exact_zero():
    res = weak_residual(ConstantMap(), BumpTest(SpacetimePoint(0.0, np.zeros(3)), 0.5),
                        ProductRule(4, 4, 4))
    assert np.max(np.abs(res)) <= 1e-12


def test_weak_residual_plane_wave_refinement():
    pw = GeodesicPlaneWave(np.array([2.0, 1.0, -0.5]))
    test = BumpTest(SpacetimePoint(0.3, np.array([0.1, -0.2, 0.05])), 0.4)
    rule = ProductRule(6, 6, 6)
    res = []
    for _ in range(3):
        res.append(float(np.linalg.norm(weak_residual(pw, test, rule))))
        rule = rule.refine()
    assert res[1] <= 0.25 * res[0]
    assert res[2] <= 0.25 * res[1]
    assert res[2] < 1e-3


def test_weak_residual_needs_spacetime_bump():
    with pytest.raises(ValueError):
        weak_residual(ConstantMap(), BumpTest(np.zeros(3), 0.5),
                      ProductRule(4, 4, 4))


# ---------------------------------------------------------------------------
# point-charge recovery


def test_recover_point_charge_zero_at_lam1():
    test = BumpTest(np.zeros(3), 0.9)
    psi0 = test.value_at(np.zeros(3))
    J = recover_point_charge(MapParams(1.0), test, ProductRule(16, 24, 16))
    assert np.max(np.abs(J)) / psi0 <= 1e-8


@pytest.mark.parametrize("rule, rel", [(ProductRule(16, 24, 16), 5e-3),
                                       (ProductRule(32, 48, 32), 5e-10)],
                         ids=["default", "refined"])
def test_recover_point_charge_half_pillbox_law(rule, rel):
    # the distributional charge of the spatial stress of the dilated hedgehog:
    # 0-homogeneity kills the radial derivative on spheres around the origin,
    # so the pillbox reduces to +(1/2) * first angular moment of the energy
    # density, i.e. the charge equals -s(lam)/2 in the +e3 direction
    test = BumpTest(np.zeros(3), 0.9)
    psi0 = test.value_at(np.zeros(3))
    for lam in (1.5, 2.0, 3.0):
        J = recover_point_charge(MapParams(lam), test, rule)
        assert J[2] / psi0 == pytest.approx(-s_lambda(lam) / 2.0, rel=rel)
        assert np.max(np.abs(J[:2])) <= 1e-10  # axisymmetry


def test_recover_point_charge_needs_spatial_bump():
    with pytest.raises(ValueError):
        recover_point_charge(MapParams(2.0),
                             BumpTest(SpacetimePoint(0.0, np.zeros(3)), 0.5),
                             ProductRule(8, 8, 8))


# ---------------------------------------------------------------------------
# cone integration-by-parts identity


def test_comp_identity_zero_field_exact():
    u = GeodesicPlaneWave(np.array([1.0, 0.0, 0.0]))
    res = comp_identity_check(u, ConstantMap(), 1.0, 0.5, ProductRule(6, 8, 6))
    assert isinstance(res, CompIdentityResult)
    assert abs(res.lhs) + abs(res.rhs) <= 1e-12
    assert res.dw0_norm == 0.0


def test_comp_identity_refinement():
    u = TimeSquaredBump(scale=1.2, direction=(1.0, 0.0, 0.0))
    w = TimeSquaredBump(center=(0.2, 0.0, 0.0), scale=0.9,
                        direction=(1.0, 1.0, 0.0))
    rule = ProductRule(4, 6, 4)
    res = []
    for _ in range(3):
        r = comp_identity_check(u, w, 1.0, 0.5, rule)
        res.append(abs(r.lhs - r.rhs))
        assert r.dw0_norm <= 1e-12  # Dw = 0 on the base slice
        rule = rule.refine()
    assert res[1] <= 0.3 * res[0]
    assert res[2] <= 0.3 * res[1]


def test_comp_identity_flags_nonzero_base_data():
    u = GeodesicPlaneWave(np.array([1.0, 0.0, 0.0]))
    res = comp_identity_check(u, u, 1.0, 0.5, ProductRule(4, 6, 4))
    assert res.dw0_norm > 0.1


class Counted(FieldEvaluator):
    """A field that records the node count of each jets_at and box_at call."""

    def __init__(self, field):
        self.field, self.sizes = field, []

    def jets_at(self, ts, xs):
        self.sizes.append(len(ts))
        return self.field.jets_at(ts, xs)

    def box_at(self, ts, xs):
        self.sizes.append(len(ts))
        return self.field.box_at(ts, xs)


def test_identity_and_residual_blocks_join_exactly(monkeypatch):
    # every disk, side slice and the base of the cone identity is evaluated
    # in blocks of fields._BLOCK nodes; the seams change no bit
    u = Counted(TimeSquaredBump(scale=1.2, direction=(1.0, 0.0, 0.0)))
    w = Counted(TimeSquaredBump(center=(0.2, 0.0, 0.0), scale=0.9,
                                direction=(1.0, 1.0, 0.0)))
    pw = Counted(GeodesicPlaneWave(np.array([3.0, 2.0, 1.0])))
    test = BumpTest(SpacetimePoint(0.1, np.array([0.05, 0.0, -0.05])), 0.5)
    rule = ProductRule(4, 6, 4)

    def both():
        for f in (u, w, pw):
            f.sizes = []
        return (comp_identity_check(u, w, 1.0, 0.5, rule),
                weak_residual(pw, test, rule))

    identity, residual = both()
    assert max(u.sizes + w.sizes + pw.sizes) == 6 * 32
    monkeypatch.setattr(fields, "_BLOCK", 7)
    blocked = both()
    assert blocked[0] == identity
    assert np.array_equal(blocked[1], residual)
    assert max(u.sizes + w.sizes + pw.sizes) <= 7


def test_point_charge_blocks_join_exactly(monkeypatch):
    # the point charge is one disk integral of the boosted map's jets_at,
    # evaluated in blocks of fields._BLOCK nodes; the seams change no bit
    test = BumpTest(np.zeros(3), 0.9)
    rule = ProductRule(4, 6, 4)
    whole = recover_point_charge(MapParams(2.0), test, rule)
    sizes = []
    jets_at = BoostedHarmonicMap.jets_at

    def spy(self, ts, xs):
        sizes.append(len(xs))
        return jets_at(self, ts, xs)

    monkeypatch.setattr(BoostedHarmonicMap, "jets_at", spy)
    monkeypatch.setattr(fields, "_BLOCK", 7)
    assert np.array_equal(recover_point_charge(MapParams(2.0), test, rule),
                          whole)
    assert sizes and min(sizes) >= 1 and max(sizes) <= 7


def test_comp_identity_validation():
    u = ConstantMap()
    with pytest.raises(ValueError):
        comp_identity_check(u, u, 0.5, 0.5, ProductRule(4, 4, 4))
    with pytest.raises(ValueError):
        comp_identity_check(u, u, 0.5, 0.7, ProductRule(4, 4, 4))
