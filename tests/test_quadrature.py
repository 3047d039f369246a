import re
import tracemalloc

import numpy as np
import pytest

from wavemaplab import fields
from wavemaplab.fields import (BoostedHarmonicMap, FieldEvaluator, GridField,
                               MapParams, s_lambda)
from wavemaplab.manufactured import GeodesicPlaneWave, bump_profile
from wavemaplab.quadrature import (BalanceReport, ProductRule, SphereRule,
                                   _bump_norm, _cone_slices, _disk_nodes,
                                   _gauss, energy_balance, energy_on_disk,
                                   flux_on_cone)
from wavemaplab.spacetime import ConeSpec, DiskSpec, SpacetimePoint


class ScaledWave(FieldEvaluator):
    """A * (cos th, sin th, 0), th = omega*t + k.x: an exact solution of the
    penalized equation when omega^2 = |k|^2 + n^2 (A^2 - 1)."""

    def __init__(self, amplitude, k, n):
        self.A = float(amplitude)
        omega = float(np.sqrt(np.dot(k, k) + n**2 * (self.A**2 - 1.0)))
        self.base = GeodesicPlaneWave(k, omega)

    def jets_at(self, ts, xs):
        v, d, g = self.base.jets_at(ts, xs)
        return self.A * v, self.A * d, self.A * g


# ---------------------------------------------------------------------------
# rules


def test_sphere_rule_weights_and_moments():
    sph = SphereRule(12)
    assert float(np.sum(sph.weights)) == pytest.approx(4.0 * np.pi, rel=1e-12)
    # odd moments vanish, second moments are (4 pi / 3) delta_ij
    first = sph.weights @ sph.nodes
    assert np.allclose(first, 0.0, atol=1e-12)
    second = np.einsum("n,ni,nj->ij", sph.weights, sph.nodes, sph.nodes)
    assert np.allclose(second, 4.0 * np.pi / 3.0 * np.eye(3), atol=1e-12)


def test_rule_refinement_doubles_resolution():
    assert ProductRule(4, 8, 6).refine() == ProductRule(8, 16, 12)


@pytest.mark.parametrize("counts, message", [
    ((0, 8, 6), "n_time must be an integer >= 1, got 0"),
    ((4, -1, 6), "n_radial must be an integer >= 1, got -1"),
    ((4, 8, 2.5), "n_polar must be an integer >= 1, got 2.5")],
    ids=["n_time", "n_radial", "n_polar"])
def test_rule_refuses_a_count_below_1(counts, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ProductRule(*counts)


def test_cone_slices_weights_and_radii():
    cone = ConeSpec(SpacetimePoint(0.5, np.array([0.1, -0.2, 0.05])), 0.05, 0.25)
    slices = list(_cone_slices(cone, ProductRule(7, 4, 5)))
    assert len(slices) == 7
    assert sum(w for _, w, _, _ in slices) == pytest.approx(0.2, rel=1e-14)
    for tau, _, r, nodes in slices:
        assert 0.05 < tau < 0.25 and r == cone.radius(tau)
        assert nodes.shape == (SphereRule(5).nodes.shape[0], 3)
        dist = np.linalg.norm(nodes - cone.apex.x, axis=1)
        assert np.allclose(dist, cone.radius(tau), rtol=1e-14, atol=0.0)


def test_disk_nodes_integrate_volume():
    disk = DiskSpec(0.0, np.array([0.2, -0.1, 0.3]), 0.45)
    _, w = _disk_nodes(disk, ProductRule(16, 16, 12))
    assert float(np.sum(w)) == pytest.approx(4.0 / 3.0 * np.pi * 0.45**3,
                                             rel=1e-10)
    # off-center singular point: same volume, graded radii
    sing = disk.center + np.array([0.1, 0.05, -0.1])
    xs, w = _disk_nodes(disk, ProductRule(24, 24, 16), singular_center=sing)
    assert float(np.sum(w)) == pytest.approx(4.0 / 3.0 * np.pi * 0.45**3,
                                             rel=1e-6)
    assert np.all(np.linalg.norm(xs - disk.center, axis=1) <= 0.45 + 1e-12)


def test_disk_nodes_reject_exterior_singular_point():
    disk = DiskSpec(0.0, np.zeros(3), 0.3)
    with pytest.raises(ValueError):
        _disk_nodes(disk, ProductRule(8, 8, 8),
                    singular_center=np.array([0.4, 0, 0]))


# ---------------------------------------------------------------------------
# disk energies


def test_hedgehog_disk_energy():
    # lam = 1: energy density = (1/2)|grad(x/|x|)|^2 = 1/r^2, so the ball
    # integral is 4 pi R
    fld = BoostedHarmonicMap(MapParams(1.0))
    for R in (0.3, 0.5):
        e = energy_on_disk(fld, DiskSpec(0.0, np.zeros(3), R),
                           ProductRule(24, 24, 16))
        assert e == pytest.approx(4.0 * np.pi * R, rel=1e-10)


def test_disk_energy_takes_no_positional_center():
    # penalty_n is keyword-only, so a center passed where the singular point
    # once went is refused instead of being read as a penalty
    fld = BoostedHarmonicMap(MapParams(1.0))
    with pytest.raises(TypeError):
        energy_on_disk(fld, DiskSpec(0.0, np.zeros(3), 0.3),
                       ProductRule(8, 8, 8), np.zeros(3))


def test_penalized_energy_reduces_to_plain_on_sphere_values():
    fld = BoostedHarmonicMap(MapParams(2.0, 0.6))
    disk = DiskSpec(0.0, np.array([0.3, 0.3, 0.0]), 0.2)
    plain = energy_on_disk(fld, disk, ProductRule(16, 16, 12))
    pen = energy_on_disk(fld, disk, ProductRule(16, 16, 12), penalty_n=32.0)
    assert pen == pytest.approx(plain, rel=1e-12)  # |u| = 1 so F(u) = 0


class CountingMap(BoostedHarmonicMap):
    def __init__(self, *args):
        super().__init__(*args)
        self.sizes = []

    def jets_at(self, ts, xs):
        self.sizes.append(len(ts))
        return super().jets_at(ts, xs)


def test_disk_energy_blocks_join_exactly(monkeypatch):
    # the disk is evaluated in blocks of _BLOCK nodes; the seams change no bit
    disk = DiskSpec(0.1, np.array([0.1, 0.0, 0.0]), 0.4)
    rule = ProductRule(4, 6, 4)
    fld = CountingMap(MapParams(2.0, 0.6))
    whole = energy_on_disk(fld, disk, rule, penalty_n=5.0)
    assert fld.sizes == [6 * 32]
    # the same as one jets_at call over the disk with one weighted sum
    xs, w = _disk_nodes(disk, rule, np.array([0.0, 0.0, 0.06]))
    values, dts, grads = fld.jets_at(np.full(len(xs), disk.time), xs)
    dens = 0.5 * (np.sum(dts**2, axis=1) + np.sum(grads**2, axis=(1, 2)))
    dens = dens + 5.0**2 * 0.25 * (np.sum(values**2, axis=1) - 1.0)**2
    assert whole == float(np.einsum("n,n->", w, dens))
    monkeypatch.setattr(fields, "_BLOCK", 7)
    fld.sizes = []
    assert energy_on_disk(fld, disk, rule, penalty_n=5.0) == whole
    assert max(fld.sizes) <= 7
    assert sum(fld.sizes) == 6 * 32


def test_disk_energy_memory_is_bounded():
    # the nodes and weights set the peak; the evaluation adds one block
    fld = BoostedHarmonicMap(MapParams(2.0, 0.6))
    disk = DiskSpec(0.1, np.array([0.1, 0.0, 0.0]), 0.4)
    rule = ProductRule(8, 64, 32)
    n = 64 * 32 * 64
    energy_on_disk(fld, disk, rule)  # warm the sphere-rule cache
    tracemalloc.start()
    try:
        energy_on_disk(fld, disk, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * n


# ---------------------------------------------------------------------------
# cone balances


def test_plane_wave_balance_vanishes():
    pw = GeodesicPlaneWave(np.array([3.0, 2.0, 1.0]))
    rng = np.random.default_rng(11)
    for _ in range(3):
        c = rng.uniform(-0.2, 0.2, 3)
        R = rng.uniform(0.3, 0.5)
        cone = ConeSpec.from_base(c, R, 0.0, 0.5 * R)
        rep = energy_balance(pw, cone, ProductRule(8, 8, 8))
        assert abs(rep.balance) <= 1e-12
        assert rep.e_base > 0.0 and rep.flux > 0.0


def test_balance_report_build():
    rep = BalanceReport.build(2.0, 0.5, 1.0, 1e-6)
    assert rep.balance == pytest.approx(0.5)
    assert rep.error_estimate == 1e-6


def test_crossing_cone_defect_law():
    # measured (and independently verified) law for the boosted hedgehog:
    # E(D_s) - E(D_t) - Flux = nu * |s(lam)| * (t - s) / 2 on cones whose
    # slices contain the singular line point for all times in [s, t]
    lam, nu = 2.0, 0.6
    fld = BoostedHarmonicMap(MapParams(lam, nu))
    cases = [(np.zeros(3), 0.5, 0.0, 0.2), (np.zeros(3), 0.45, 0.05, 0.1)]
    for center, R, s, height in cases:
        cone = ConeSpec.from_base(center, R, s, height)
        rep = energy_balance(fld, cone, ProductRule(16, 24, 16))
        target = nu * abs(s_lambda(lam)) / 2.0 * height
        assert rep.balance == pytest.approx(target, rel=1e-6)


class HiddenSingularity(BoostedHarmonicMap):
    """The boosted map, its singular point withheld from the quadrature."""

    def singular_point(self, t):
        return None


def test_balance_grades_toward_the_fields_own_singular_point():
    # the caller names no singular point: the map does.  Withheld, the disks
    # are not graded and the default crossing cone misses the law by 12 %
    params = MapParams(2.0, 0.6)
    cone = ConeSpec.from_base(np.zeros(3), 0.5, 0.0, 0.2)
    rule = ProductRule(16, 24, 16)
    target = 0.6 * abs(s_lambda(2.0)) * 0.2 / 2.0
    rep = energy_balance(BoostedHarmonicMap(params), cone, rule)
    assert rep.balance == pytest.approx(target, rel=1e-6)
    hidden = energy_balance(HiddenSingularity(params), cone, rule)
    assert abs(hidden.balance - target) > 0.05 * target


@pytest.mark.parametrize("lam, nu", [(1.5, 0.5), (0.5, 0.5)])
def test_crossing_cone_defect_law_other_parameters(lam, nu):
    # the signed law: dissipation for lam > 1, where s(lam) < 0, and a
    # violation of the energy inequality for lam < 1, where s(lam) > 0
    fld = BoostedHarmonicMap(MapParams(lam, nu))
    cone = ConeSpec.from_base(np.zeros(3), 0.4, 0.0, 0.15)
    rep = energy_balance(fld, cone, ProductRule(16, 24, 16))
    assert rep.balance == pytest.approx(-nu * s_lambda(lam) / 2.0 * 0.15,
                                        rel=1e-6)


def test_non_crossing_cone_conserves_energy():
    fld = BoostedHarmonicMap(MapParams(2.0, 0.6))
    cone = ConeSpec.from_base(np.array([0.3, 0.3, 0.0]), 0.25, 0.0, 0.1)
    rep = energy_balance(fld, cone, ProductRule(16, 24, 16))
    assert abs(rep.balance) <= rep.error_estimate + 1e-10


def test_lam1_boosted_map_conserves_energy_on_crossing_cone():
    # the charge strength vanishes at lam = 1, so even the crossing cone
    # balances to zero (up to quadrature error near the singular line)
    nu = 0.6
    fld = BoostedHarmonicMap(MapParams(1.0, nu))
    cone = ConeSpec.from_base(np.zeros(3), 0.5, 0.0, 0.2)
    rep = energy_balance(fld, cone, ProductRule(16, 24, 16))
    assert abs(rep.balance) <= max(10.0 * rep.error_estimate, 1e-6)


def test_penalized_flux_coefficient_consistency():
    # for the scaled wave the penalty density F is a positive constant, so
    # the disk and lateral penalty terms must cancel in the balance exactly;
    # this pins the factor two between the penalty under the flux measure and
    # the penalty in the disk energy
    n = 3.0
    fld = ScaledWave(1.2, np.array([2.0, 0.0, 0.0]), n)
    cone = ConeSpec.from_base(np.array([0.1, -0.05, 0.2]), 0.5, 0.0, 0.25)
    rep = energy_balance(fld, cone, ProductRule(12, 16, 12), penalty_n=n)
    assert abs(rep.balance) <= 1e-12
    # with the lateral penalty halved the cancellation breaks: reconstruct
    # the balance from its pieces with coefficient n^2 F instead of 2 n^2 F
    e_base = energy_on_disk(
        fld, DiskSpec(0.0, cone.apex.x, cone.radius(0.0)),
        ProductRule(16, 16, 12), penalty_n=n)
    e_top = energy_on_disk(
        fld, DiskSpec(0.25, cone.apex.x, cone.radius(0.25)),
        ProductRule(16, 16, 12), penalty_n=n)
    fl_pen = flux_on_cone(fld, cone, ProductRule(12, 12, 12), penalty_n=n)
    fl_plain = flux_on_cone(fld, cone, ProductRule(12, 12, 12))
    halved = fl_plain + 0.5 * (fl_pen - fl_plain)
    assert abs(e_base - e_top - halved) > 1e-3


def _sampled_slab(fld, h=1.0 / 16.0, n=17, dt=1.0 / 32.0, nt=9):
    origin = np.full(3, -0.5)
    c = origin[0] + h * np.arange(n)
    X, Y, Z = np.meshgrid(c, c, c, indexing="ij")
    xs = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    levels = [fld.jets_at(np.full(len(xs), t), xs)[0].reshape(n, n, n, 3)
              for t in dt * np.arange(nt)]
    return GridField(t0=0.0, dt=dt, origin=origin, h=h, data=np.stack(levels))


def _reference_balance(field, cone, rule, n):
    # the single-penalty balance, each density summed on its own nodes
    s, t = cone.t_min, cone.t_max

    def disk(at, rule):
        xs, w = _disk_nodes(DiskSpec(at, cone.apex.x, cone.radius(at)), rule)
        values, dts, grads = field.jets_at(np.full(len(xs), at), xs)
        dens = 0.5 * (np.sum(dts**2, axis=1) + np.sum(grads**2, axis=(1, 2)))
        if n is not None:
            dens = dens + n**2 * 0.25 * (np.sum(values**2, axis=1) - 1.0)**2
        return float(np.einsum("n,n->", w, dens))

    def flux(rule):
        xt, wt = np.polynomial.legendre.leggauss(rule.n_time)
        sph = rule.sphere
        total = 0.0
        for tau, wk in zip(s + 0.5 * (t - s) * (xt + 1.0),
                           0.5 * (t - s) * wt):
            r = cone.radius(tau)
            xs = cone.apex.x[None, :] + r * sph.nodes
            values, dts, grads = field.jets_at(np.full(len(xs), tau), xs)
            diff = grads - sph.nodes[:, :, None] * dts[:, None, :]
            dens = np.sum(diff**2, axis=(1, 2))
            if n is not None:
                dens = dens + 2.0 * (n**2 * 0.25
                                     * (np.sum(values**2, axis=1) - 1.0)**2)
            total += wk * r**2 * 0.5 * float(np.einsum("n,n->", sph.weights,
                                                         dens))
        return total

    def parts(r):
        return disk(s, r), disk(t, r), flux(r)

    coarse, fine = parts(rule), parts(rule.refine())
    err = abs((fine[0] - fine[1] - fine[2])
              - (coarse[0] - coarse[1] - coarse[2]))
    return BalanceReport.build(*fine, err)


class CountingGrid(GridField):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queries = []

    def jets_at(self, ts, xs):
        self.queries.append(np.column_stack([ts, xs]))
        return super().jets_at(ts, xs)


def test_penalized_balance_carries_unpenalized_from_one_evaluation():
    n = 3.0
    slab = _sampled_slab(ScaledWave(1.05, np.array([2.0, 1.0, 0.0]), n))
    grid = CountingGrid(slab.t0, slab.dt, slab.origin, slab.h, slab.data)
    cone = ConeSpec(SpacetimePoint(0.4, np.array([0.05, -0.05, 0.0])), 0.02, 0.2)
    args = (cone, ProductRule(6, 6, 6))
    pair = energy_balance(grid, *args, penalty_n=n)
    pair_queries = grid.queries
    grid.queries = []
    plain = energy_balance(grid, *args)
    assert plain.unpenalized is None
    # the pair reads every node once: exactly the queries of one balance
    assert len(pair_queries) == len(grid.queries)
    assert all(np.array_equal(a, b)
               for a, b in zip(pair_queries, grid.queries))
    # and both reports are those of separate single-penalty evaluations
    assert pair.unpenalized == plain
    assert pair.unpenalized == _reference_balance(slab, *args, None)
    assert pair == BalanceReport(**{**vars(_reference_balance(slab, *args, n)),
                                    "unpenalized": plain})
    assert pair == energy_balance(slab, *args, penalty_n=n)
    assert abs(pair.balance - pair.unpenalized.balance) > 1e-6


# ---------------------------------------------------------------------------
# mollified flux

SQRT2 = np.sqrt(2.0)


def mollified_flux(field: FieldEvaluator, base_center, base_radius: float,
                   t: float, eps: float, rule: ProductRule) -> float:
    """Bump-averaged unnormalized flux over cones with base radii r + delta,
    |delta| < eps, on an 8-point rule in delta; converges to 2 sqrt(2) times
    the flux over the radius-r cone as eps -> 0 for fields smooth near the
    surface."""
    if not eps < base_radius - t:
        raise ValueError("eps must leave all perturbed cones tall enough")
    deltas, wdelta = _gauss(8, -eps, eps)
    psis = _bump_norm(1) * bump_profile((deltas / eps)**2)

    total = 0.0
    base_center = np.asarray(base_center, dtype=float)
    for delta, wk, psi in zip(deltas, wdelta, psis):
        cone = ConeSpec.from_base(base_center, base_radius + delta, 0.0, t)
        raw = 2.0 * SQRT2 * flux_on_cone(field, cone, rule)
        total += wk / eps * psi * raw
    return total


def test_mollified_flux_converges_to_sqrt8_flux():
    pw = GeodesicPlaneWave(np.array([3.0, 2.0, 1.0]))
    cone = ConeSpec.from_base(np.zeros(3), 0.5, 0.0, 0.2)
    target = 2.0 * np.sqrt(2.0) * flux_on_cone(pw, cone, ProductRule(16, 16, 12))
    errs = [abs(mollified_flux(pw, np.zeros(3), 0.5, 0.2, eps,
                               ProductRule(16, 16, 12)) - target)
            for eps in (0.1, 0.05, 0.025)]
    assert errs[1] <= 0.55 * errs[0]
    assert errs[2] <= 0.55 * errs[1]


def test_mollified_flux_validation():
    pw = GeodesicPlaneWave(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        mollified_flux(pw, np.zeros(3), 0.5, 0.2, 0.4, ProductRule(8, 8, 8))
