import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemaplab.fields import (ANALYTIC_EXCLUSION, BoostedHarmonicMap,
                               FieldEvaluator, GridField, MapParams,
                               harmonic_v_jet_batch, s_lambda)
from wavemaplab import fields, solver
from wavemaplab.manufactured import (ComposedWithBoost, ConstantMap,
                                     GeodesicPlaneWave, QuadraticNullField,
                                     TimeSquaredBump)
from wavemaplab.quadrature import SphereRule
from wavemaplab.solver import SolverConfig, run
from wavemaplab.spacetime import LorentzBoost


# The scalar value oracle of the dilated hedgehog: written pointwise from the
# stereographic definition, independently of harmonic_v_jet_batch, so the
# batch kernel's values and finite-difference gradients are checked against it.


def stereographic(x) -> np.ndarray:
    """Project a unit 3-vector (not the south pole) to the equatorial plane."""
    x = np.asarray(x, dtype=float)
    d = 1.0 + x[2]
    if d <= 0.0:
        raise ValueError("stereographic projection undefined at the south pole")
    return x[:2] / d


def stereographic_inv(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    s = float(np.dot(y, y))
    return np.array([2.0 * y[0], 2.0 * y[1], 1.0 - s]) / (1.0 + s)


def _check_off_singularity(r: float):
    if r < ANALYTIC_EXCLUSION:
        raise ValueError(
            f"evaluation within {ANALYTIC_EXCLUSION} of the map singularity")


def harmonic_v(params: MapParams, x) -> np.ndarray:
    """The dilated hedgehog map: project x/|x| stereographically, scale by
    lambda, project back.  0-homogeneous, sphere-valued, singular at x = 0."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    _check_off_singularity(r)
    w = x / r
    if 1.0 + w[2] <= 0.0:
        # south-pole ray: limiting value (measure-zero set)
        return np.array([0.0, 0.0, -1.0])
    return stereographic_inv(params.lam * stereographic(w))


def jet_row(fld, t, x):
    """(value, dt, grad) of ``fld`` at one node: row 0 of a 1-row
    ``jets_at`` call."""
    values, dts, grads = fld.jets_at(np.array([t], float),
                                     np.asarray(x, float)[None])
    return values[0], dts[0], grads[0]


def hedgehog_jet(p, x):
    """The jet of the stationary hedgehog at x, from ``BoostedHarmonicMap``,
    which runs on ``harmonic_v_jet_batch``."""
    return jet_row(BoostedHarmonicMap(p), 0.0, x)


def fd_time_derivative(value_fn, t, x, h=1e-6):
    return (value_fn(t + h, x) - value_fn(t - h, x)) / (2.0 * h)


def fd_gradient(value_fn, t, x, h=1e-6):
    grad = np.empty((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        grad[i] = (value_fn(t, x + e) - value_fn(t, x - e)) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# stereographic projection


@given(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_stereographic_round_trip_plane(y):
    y = np.array(y)
    p = stereographic_inv(y)
    assert np.dot(p, p) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(stereographic(p), y, atol=1e-10)


def test_stereographic_poles():
    assert np.allclose(stereographic_inv(np.zeros(2)), [0.0, 0.0, 1.0])
    assert np.allclose(stereographic([0.0, 0.0, 1.0]), [0.0, 0.0])
    with pytest.raises(ValueError):
        stereographic([0.0, 0.0, -1.0])


# ---------------------------------------------------------------------------
# the dilated hedgehog


def test_harmonic_v_axis_and_equator():
    p = MapParams(2.0)
    # the north pole is fixed for every dilation
    assert np.allclose(harmonic_v(p, [0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])
    # equator point: projects to (1, 0), dilates to (lam, 0)
    lam = 2.0
    expected = np.array([2.0 * lam, 0.0, 1.0 - lam**2]) / (1.0 + lam**2)
    assert np.allclose(harmonic_v(p, [1.0, 0.0, 0.0]), expected, atol=1e-12)


def test_harmonic_v_lam1_is_identity_on_sphere():
    p = MapParams(1.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        if x[2] < -0.9:
            continue
        assert np.allclose(harmonic_v(p, x), x, atol=1e-12)


def test_harmonic_v_zero_homogeneous():
    p = MapParams(1.7)
    x = np.array([0.3, -0.2, 0.5])
    assert np.allclose(harmonic_v(p, x), harmonic_v(p, 5.0 * x), atol=1e-12)


def test_harmonic_v_jet_matches_finite_differences():
    p = MapParams(2.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, 3)
        if np.linalg.norm(x) < 0.2:
            continue
        value, dt, grad = hedgehog_jet(p, x)
        assert np.allclose(value, harmonic_v(p, x), atol=1e-12)
        assert np.allclose(dt, 0.0)
        fd = fd_gradient(lambda t, y: harmonic_v(p, y), 0.0, x)
        assert np.allclose(grad, fd, atol=1e-7)


def test_harmonic_v_jet_tangency():
    p = MapParams(3.0)
    value, _, grad = hedgehog_jet(p, np.array([0.2, 0.4, -0.1]))
    assert np.dot(value, value) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(grad @ value, 0.0, atol=1e-12)


def test_harmonic_v_hedgehog_density():
    # lam = 1: |grad(x/|x|)|^2 = 2 / r^2
    p = MapParams(1.0)
    for x in ([0.5, 0.0, 0.0], [0.1, 0.2, -0.3], [0.0, 0.0, 2.0]):
        _, _, grad = hedgehog_jet(p, np.array(x))
        r2 = float(np.dot(x, x))
        assert float(np.sum(grad**2)) == pytest.approx(2.0 / r2, rel=1e-10)


def test_harmonic_v_jet_batch_matches_scalar():
    p = MapParams(1.5)
    rng = np.random.default_rng(2)
    xs = rng.uniform(0.2, 1.0, (20, 3))
    values, grads = harmonic_v_jet_batch(p, xs)
    for k, x in enumerate(xs):
        value, grad = harmonic_v_jet_batch(p, x[None, :])
        assert np.allclose(values[k], value[0], atol=1e-13)
        assert np.allclose(grads[k], grad[0], atol=1e-13)


# the matmul chain harmonic_v_jet_batch replaced: grad = J_w lam J_s J_i
def _hedgehog_reference(params, xs):
    xs = np.asarray(xs, dtype=float)
    r = np.linalg.norm(xs, axis=1)
    safe = r >= ANALYTIC_EXCLUSION
    r_s = np.where(safe, r, 1.0)
    w = xs / r_s[:, None]
    d = 1.0 + w[:, 2]
    polar = d <= ANALYTIC_EXCLUSION
    d_s = np.where(polar, 1.0, d)

    lam = params.lam
    z = lam * w[:, :2] / d_s[:, None]
    s = np.sum(z**2, axis=1)
    dd = 1.0 + s

    values = np.empty((len(xs), 3))
    values[:, 0] = 2.0 * z[:, 0] / dd
    values[:, 1] = 2.0 * z[:, 1] / dd
    values[:, 2] = (1.0 - s) / dd

    eye = np.eye(3)
    J_w = (eye[None] - w[:, :, None] * w[:, None, :]) / r_s[:, None, None]

    J_s = np.zeros((len(xs), 3, 2))
    J_s[:, 0, 0] = 1.0 / d_s
    J_s[:, 1, 1] = 1.0 / d_s
    J_s[:, 2, 0] = -w[:, 0] / d_s**2
    J_s[:, 2, 1] = -w[:, 1] / d_s**2

    J_i = np.empty((len(xs), 2, 3))
    J_i[:, 0, 0] = 2.0 / dd - 4.0 * z[:, 0]**2 / dd**2
    J_i[:, 0, 1] = -4.0 * z[:, 0] * z[:, 1] / dd**2
    J_i[:, 0, 2] = -4.0 * z[:, 0] / dd**2
    J_i[:, 1, 0] = J_i[:, 0, 1]
    J_i[:, 1, 1] = 2.0 / dd - 4.0 * z[:, 1]**2 / dd**2
    J_i[:, 1, 2] = -4.0 * z[:, 1] / dd**2

    grads = np.matmul(J_w, lam * np.matmul(J_s, J_i))

    bad = ~safe | polar
    if np.any(bad):
        values[bad] = np.array([0.0, 0.0, -1.0])
        grads[bad] = 0.0
    return values, grads


def _hedgehog_test_nodes(rng, n=100_000):
    """Random nodes plus the origin, nodes within 1e-9 of it, and nodes on,
    inside the exclusion of, and near the south-pole ray."""
    xs = rng.normal(size=(n, 3)) * rng.uniform(0.01, 2.0, (n, 1))
    xs[0] = 0.0
    xs[1:100] = rng.uniform(-5e-10, 5e-10, (99, 3))
    # angle from the south-pole ray: 0, inside the polar exclusion
    # (d = 1 + w_3 <= 1e-8 below about 1.4e-4), and 1e-3 to 1e-2 outside it.
    # Both forms of the gradient project out a radial part about 1/angle
    # times the result, so just outside the exclusion they differ by about
    # 1e-12 of it; d itself has lost about 1e-8 there.
    ang = np.concatenate([np.zeros(100), rng.uniform(0.0, 1.4e-4, 400),
                          10.0**rng.uniform(-3.0, -2.0, 500)])
    phi = rng.uniform(0.0, 2.0 * np.pi, len(ang))
    a = rng.uniform(0.05, 2.0, len(ang))
    xs[100:100 + len(ang)] = np.column_stack([
        a * np.sin(ang) * np.cos(phi), a * np.sin(ang) * np.sin(phi),
        -a * np.cos(ang)])
    return xs


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 3.0])
def test_harmonic_v_jet_batch_matches_matmul_reference(lam):
    p = MapParams(lam)
    xs = _hedgehog_test_nodes(np.random.default_rng(21))
    values, grads = harmonic_v_jet_batch(p, xs)
    want_values, want_grads = _hedgehog_reference(p, xs)
    assert np.array_equal(values, want_values)
    scale = np.max(np.abs(want_grads), axis=(1, 2))
    err = np.max(np.abs(grads - want_grads), axis=(1, 2))
    assert np.all(err <= 1e-12 * scale)
    # bad nodes: the limiting value (checked above) and a zero gradient
    bad = scale == 0.0
    assert np.count_nonzero(bad) >= 500
    assert np.all(grads[bad] == 0.0)
    assert np.all(values[bad] == [0.0, 0.0, -1.0])


def test_harmonic_v_jet_batch_blocks_join_exactly(monkeypatch):
    # the kernel works through its nodes in blocks; the seams change no bit
    p = MapParams(1.5)
    xs = _hedgehog_test_nodes(np.random.default_rng(22), n=2_000)[::20]
    whole = harmonic_v_jet_batch(p, xs)
    monkeypatch.setattr(fields, "_BLOCK", 7)
    for got, want in zip(harmonic_v_jet_batch(p, xs), whole):
        assert np.array_equal(got, want)
    for k, x in enumerate(xs):
        value, grad = harmonic_v_jet_batch(p, x[None, :])
        assert np.array_equal(value[0], whole[0][k])
        assert np.array_equal(grad[0], whole[1][k])


def test_harmonic_v_jet_batch_memory_is_bounded():
    # the outputs take 96 bytes per node; the blocks' scratch stays constant
    n = 200_000
    xs = np.random.default_rng(23).normal(size=(n, 3))
    tracemalloc.start()
    try:
        harmonic_v_jet_batch(MapParams(2.0), xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * n


def test_singularity_exclusion_raises():
    p = MapParams(2.0)
    with pytest.raises(ValueError):
        harmonic_v(p, 0.1 * ANALYTIC_EXCLUSION * np.ones(3))


# ---------------------------------------------------------------------------
# s(lambda)


def test_s_lambda_reference_values():
    assert s_lambda(1.0) == 0.0
    assert s_lambda(1.5) == pytest.approx(-6.64813727, abs=1e-7)
    assert s_lambda(2.0) == pytest.approx(-10.91778876, abs=1e-7)
    assert s_lambda(3.0) == pytest.approx(-15.88466121, abs=1e-7)
    # s(1/lam) = -s(lam): the charge changes sign across lam = 1
    assert s_lambda(0.5) == pytest.approx(-s_lambda(2.0), rel=1e-12)


def test_s_lambda_sphere_integral_oracle():
    # independent quadrature oracle: the charge strength equals minus the
    # first moment of the angular energy density of the dilated hedgehog,
    # s(lam) = -int_{S^2} |grad v_lam|^2 omega_3 dOmega  (0-homogeneity makes
    # the density angle-only, so a unit-sphere rule suffices)
    sph = SphereRule(48)
    for lam in (1.3, 2.0, 2.7):
        _, grads = harmonic_v_jet_batch(MapParams(lam), sph.nodes)
        dens = np.sum(grads**2, axis=(1, 2))
        integral = float(np.dot(sph.weights, dens * sph.nodes[:, 2]))
        assert integral == pytest.approx(-s_lambda(lam), rel=1e-10)


def test_s_lambda_smooth_across_series_switch():
    lams = np.linspace(0.98, 1.02, 161)
    vals = np.array([s_lambda(l) for l in lams])
    # a series/closed-form mismatch would show as a spike in the second
    # difference; smooth s has |second difference| ~ s'' * step^2 ~ 1e-6
    assert np.max(np.abs(np.diff(vals, 2))) < 1e-5


def test_s_lambda_validation():
    with pytest.raises(ValueError):
        s_lambda(0.0)
    with pytest.raises(ValueError):
        s_lambda(-2.0)
    with pytest.raises(ValueError, match="finite"):
        s_lambda(np.inf)


# ---------------------------------------------------------------------------
# parameters and the boosted map


def test_map_params_validation():
    MapParams(2.0, 0.0)          # stationary case is allowed
    with pytest.raises(ValueError):
        MapParams(0.0, 0.5)
    with pytest.raises(ValueError):
        MapParams(2.0, 1.0)
    with pytest.raises(ValueError):
        MapParams(2.0, -0.1)
    # an infinite dilation would turn every energy into NaN
    for lam in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            MapParams(lam)
    assert MapParams(2.0, 0.6).theta == pytest.approx(1.25)


def test_boosted_phi_value_is_composed_hedgehog():
    p = MapParams(2.0, 0.6)
    t, x = 0.3, np.array([0.2, -0.1, 0.4])
    xi = np.array([x[0], x[1], p.theta * (x[2] - p.nu * t)])
    assert np.allclose(jet_row(BoostedHarmonicMap(p), t, x)[0],
                       harmonic_v(p, xi), atol=1e-13)


def test_boosted_phi_jet_matches_finite_differences():
    p = MapParams(1.8, 0.5)
    fld = BoostedHarmonicMap(p)

    def value(t, x):
        return jet_row(fld, t, x)[0]

    rng = np.random.default_rng(3)
    for _ in range(4):
        t = rng.uniform(-0.2, 0.2)
        x = rng.uniform(-0.6, 0.6, 3)
        if np.hypot(x[0], x[1]) < 0.2:
            continue
        _, dt, grad = jet_row(fld, t, x)
        assert np.allclose(dt, fd_time_derivative(value, t, x), atol=1e-7)
        assert np.allclose(grad, fd_gradient(value, t, x), atol=1e-7)


def test_boosted_map_field_interface():
    fld = BoostedHarmonicMap(MapParams(2.0, 0.6))
    rng = np.random.default_rng(4)
    ts = rng.uniform(-0.1, 0.1, 10)
    xs = rng.uniform(0.2, 0.7, (10, 3))
    values, dts, grads = fld.jets_at(ts, xs)
    for k in range(10):
        value, dt, grad = jet_row(fld, ts[k], xs[k])
        assert np.allclose(values[k], value, atol=1e-13)
        assert np.allclose(dts[k], dt, atol=1e-13)
        assert np.allclose(grads[k], grad, atol=1e-13)


def test_boosted_map_is_its_limit_on_the_singular_line():
    # on the moving singular line (t, (0, 0, nu t)), and within the
    # exclusion radius of it, the jet is the limit (0, 0, -1) with zero
    # derivatives
    p = MapParams(2.0, 0.6)
    ts = np.concatenate([np.linspace(-0.2, 0.5, 8), [0.5, 0.1]])
    xs = np.zeros((len(ts), 3))
    xs[:, 2] = p.nu * ts
    xs[-2] = [0.0, 0.0, 0.3]
    xs[-1, 0] = 0.5 * ANALYTIC_EXCLUSION
    values, dts, grads = BoostedHarmonicMap(p).jets_at(ts, xs)
    assert np.all(values == [0.0, 0.0, -1.0])
    assert np.all(dts == 0.0)
    assert np.all(grads == 0.0)


def test_initial_data_properties():
    # the Cauchy data of the boosted map is its jet at t = 0: f = phi and
    # g = d_t phi there
    phi = BoostedHarmonicMap(MapParams(2.0, 0.6))
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.1, 0.6, (8, 3))
    fv, gv, _ = phi.jets_at(np.zeros(len(xs)), xs)
    assert np.allclose(np.sum(fv**2, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.sum(fv * gv, axis=1), 0.0, atol=1e-12)

    def value(t, y):
        return jet_row(phi, t, y)[0]

    for k in range(3):
        assert np.allclose(gv[k], fd_time_derivative(value, 0.0, xs[k]),
                           atol=1e-7)


def test_initial_data_samples_f_and_g_with_one_jet_call_per_plane(
        monkeypatch):
    # one jet call per x-plane of cell centres gives the data, bit for bit,
    # of one call on all the (N**3, 3) centres in C order of the cells
    phi = BoostedHarmonicMap(MapParams(2.0, 0.6))
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.1)
    c = cfg.cell_centers_1d()
    xs = np.stack([a.ravel() for a in np.meshgrid(c, c, c, indexing="ij")],
                  axis=1)
    values, dts, _ = phi.jets_at(np.zeros(len(xs)), xs)

    calls = []
    real = fields.harmonic_v_jet_batch

    def counting(params, pts):
        calls.append(len(pts))
        return real(params, pts)

    seen = []
    real_integrate = solver._integrate

    def spy(cfg, u0, g0, read, ledger=True):
        seen.append((u0.copy(), g0.copy()))
        return real_integrate(cfg, u0, g0, read, ledger)

    monkeypatch.setattr(fields, "harmonic_v_jet_batch", counting)
    monkeypatch.setattr(solver, "_integrate", spy)
    slab, _ = run(cfg, phi)
    assert calls == [cfg.n_cells**2] * cfg.n_cells
    (u0, g0), = seen
    assert np.array_equal(u0.reshape(-1, 3), values)
    assert np.array_equal(g0.reshape(-1, 3), dts)
    assert np.array_equal(slab.data[0].reshape(-1, 3), values)


# ---------------------------------------------------------------------------
# grid fields


def _plane_wave_slab(h=1.0 / 32.0, dt=1.0 / 64.0, nt=9, n=33):
    pw = GeodesicPlaneWave(np.array([2.0, 1.0, 0.5]))
    origin = np.full(3, -0.5)
    c = origin[0] + h * np.arange(n)
    X, Y, Z = np.meshgrid(c, c, c, indexing="ij")
    xs = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    levels = [pw.jets_at(np.full(len(xs), t0), xs)[0].reshape(n, n, n, 3)
              for t0 in dt * np.arange(nt)]
    return pw, GridField(t0=0.0, dt=dt, origin=origin, h=h,
                         data=np.stack(levels))


def test_grid_field_interpolation_accuracy():
    pw, grid = _plane_wave_slab()
    rng = np.random.default_rng(6)
    for _ in range(6):
        t, x = rng.uniform(0.02, 0.1), rng.uniform(-0.4, 0.4, 3)
        exact_value, exact_dt, exact_grad = jet_row(pw, t, x)
        value, dt, grad = jet_row(grid, t, x)
        assert np.allclose(value, exact_value, atol=5e-3)
        assert np.allclose(dt, exact_dt, atol=5e-2)
        assert np.allclose(grad, exact_grad, atol=5e-2)


def _interp_reference(arr, idx, w):
    # the 4-index, 16-corner form the flat-row kernel replaced
    out = np.zeros((len(idx), 3))
    for corner in range(16):
        bits = [(corner >> b) & 1 for b in range(4)]
        wgt = np.ones(len(idx))
        for ax, bit in enumerate(bits):
            wgt *= w[:, ax] if bit else (1.0 - w[:, ax])
        out += wgt[:, None] * arr[idx[:, 0] + bits[0], idx[:, 1] + bits[1],
                                  idx[:, 2] + bits[2], idx[:, 3] + bits[3]]
    return out


def _jets_reference(grid, ts, xs):
    dims = np.array(grid.shape)
    fr = np.empty((len(ts), 4))
    fr[:, 0] = (ts - grid.t0) / grid.dt
    fr[:, 1:] = (xs - grid.origin) / grid.h
    idx = np.clip(np.floor(fr).astype(int), 0, dims - 2)
    w = fr - idx
    d = [np.gradient(grid.data, sp, axis=ax, edge_order=2)
         for ax, sp in enumerate((grid.dt, grid.h, grid.h, grid.h))]
    grads = np.stack([_interp_reference(d[1 + i], idx, w) for i in range(3)],
                     axis=1)
    return (_interp_reference(grid.data, idx, w),
            _interp_reference(d[0], idx, w), grads)


def test_grid_field_jets_bit_identical_to_reference():
    _, grid = _plane_wave_slab(nt=5, n=9, h=1.0 / 8.0)
    rng = np.random.default_rng(8)
    t_max, lo = grid.t_max, grid.origin[0]
    hi = lo + (grid.shape[1] - 1) * grid.h
    ts = rng.uniform(0.0, t_max, 200)
    xs = rng.uniform(lo, hi, (200, 3))
    # nodes on the upper faces take the last cell with weight 1 on its top
    ts[:40] = t_max
    for ax in range(3):
        xs[40 * (ax + 1):40 * (ax + 2), ax] = hi
    xs[-10:] = hi
    ts[-10:] = t_max
    for got, want in zip(grid.jets_at(ts, xs), _jets_reference(grid, ts, xs)):
        assert np.array_equal(got, want)


def test_grid_field_jets_blocks_join_exactly(monkeypatch):
    # jets_at works through its nodes in blocks; the seams change no bit
    _, grid = _plane_wave_slab(nt=5, n=9, h=1.0 / 8.0)
    rng = np.random.default_rng(13)
    ts = rng.uniform(0.0, grid.t_max, 100)
    xs = rng.uniform(-0.5, 0.5, (100, 3))
    whole = grid.jets_at(ts, xs)
    monkeypatch.setattr(fields, "_BLOCK", 7)
    for got, want in zip(grid.jets_at(ts, xs), whole):
        assert np.array_equal(got, want)


def test_grid_field_batch_matches_scalar():
    _, grid = _plane_wave_slab(nt=3, n=9, h=1.0 / 8.0)
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.0, 2.0 / 64.0, 5)
    xs = rng.uniform(-0.3, 0.3, (5, 3))
    values, dts, grads = grid.jets_at(ts, xs)
    for k in range(5):
        value, dt, grad = jet_row(grid, ts[k], xs[k])
        assert np.allclose(values[k], value, atol=1e-12)
        assert np.allclose(dts[k], dt, atol=1e-12)
        assert np.allclose(grads[k], grad, atol=1e-12)


EVALUATORS = {
    "constant": lambda: ConstantMap((0.1, -0.2, 0.3)),
    "plane_wave": lambda: GeodesicPlaneWave(np.array([1.0, 0.5, -0.25])),
    "time_bump": lambda: TimeSquaredBump(scale=1.2, direction=(1.0, 1.0, 0.0)),
    "polynomial": QuadraticNullField,
    "composed": lambda: ComposedWithBoost(TimeSquaredBump(scale=1.5),
                                          LorentzBoost(0.6).matrix),
    "hedgehog": lambda: BoostedHarmonicMap(MapParams(2.0, 0.6)),
    "grid": lambda: _plane_wave_slab(nt=5, n=9, h=1.0 / 8.0)[1],
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_jet_and_box_are_rows_of_one_batch_call(name):
    # a node's jet and box do not depend on its batch: a 1-row call gives
    # the row of the 300-node call, bit for bit; the batch is large enough
    # for numpy to take its blocked paths
    fld = EVALUATORS[name]()
    rng = np.random.default_rng(14)
    n = 300
    ts = rng.uniform(0.0, 4.0 / 64.0, n)
    xs = rng.uniform(-0.4, 0.4, (n, 3))
    values, dts, grads = fld.jets_at(ts, xs)
    has_box = type(fld).box_at is not FieldEvaluator.box_at
    boxes = fld.box_at(ts, xs) if has_box else None
    for k in range(n):
        value, dt, grad = jet_row(fld, ts[k], xs[k])
        assert np.array_equal(value, values[k])
        assert np.array_equal(dt, dts[k])
        assert np.array_equal(grad, grads[k])
        if has_box:
            assert np.array_equal(fld.box_at(ts[k:k + 1], xs[k:k + 1])[0],
                                  boxes[k])
    if not has_box:
        with pytest.raises(NotImplementedError, match=type(fld).__name__):
            fld.box_at(ts[:1], xs[:1])


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_only_the_boosted_map_names_a_singular_point(name):
    # disk quadratures grade toward a field's singular point; the default is
    # none, and the boosted map's is the point (0, 0, nu t) of its line
    fld = EVALUATORS[name]()
    for t in (-0.3, 0.0, 0.1):
        if name == "hedgehog":
            assert np.array_equal(fld.singular_point(t), [0.0, 0.0, 0.6 * t])
        else:
            assert fld.singular_point(t) is None


@pytest.mark.parametrize("axis", range(4))
def test_grid_gradient_matches_numpy(axis):
    # at a grid point the derivatives are np.gradient's, bit for bit, with
    # the one-sided formulas on both faces; spacings and origin are dyadic so
    # that the nodes sit exactly on the grid
    shape = (5, 4, 6, 7)
    data = np.random.default_rng(axis).normal(size=shape + (3,))
    grid = GridField(t0=0.5, dt=0.25, origin=(-1.0, 0.5, 0.0), h=0.125,
                     data=data)
    rng = np.random.default_rng(10 + axis)
    k = rng.integers(0, shape, (3 * shape[axis], 4))
    k[:, axis] = np.tile(np.arange(shape[axis]), 3)  # every point, both faces
    ts = grid.t0 + grid.dt * k[:, 0]
    xs = grid.origin + grid.h * k[:, 1:]
    _, dts, grads = grid.jets_at(ts, xs)
    at = tuple(k.T)
    assert np.array_equal(dts, np.gradient(data, grid.dt, axis=0,
                                           edge_order=2)[at])
    for i in range(3):
        assert np.array_equal(grads[:, i, :], np.gradient(
            data, grid.h, axis=1 + i, edge_order=2)[at])


def test_grid_field_jets_allocate_no_derivative_grid():
    # a query allocates per node, not per cell of the slab
    _, grid = _plane_wave_slab(nt=6)
    rng = np.random.default_rng(11)
    ts = rng.uniform(0.0, grid.t_max, 200)
    xs = rng.uniform(-0.4, 0.2, (200, 3))
    tracemalloc.start()
    try:
        grid.jets_at(ts, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * grid.data.nbytes


def test_grid_field_short_axis_raises_on_jets_only():
    data = np.random.default_rng(12).normal(size=(2, 4, 4, 4, 3))
    grid = GridField(t0=0.0, dt=0.25, origin=np.zeros(3), h=0.125, data=data)
    t, x = 0.1, np.full(3, 0.2)
    with pytest.raises(ValueError, match="too small to calculate a numerical"):
        grid.jets_at([t], [x])


def test_grid_field_domain_checks():
    _, grid = _plane_wave_slab(nt=3, n=9, h=1.0 / 8.0)
    with pytest.raises(ValueError, match="outside the grid slab"):
        jet_row(grid, 0.01, np.array([2.0, 0.0, 0.0]))


def test_grid_field_origin_is_a_read_only_copy():
    o = np.zeros(3)
    grid = GridField(t0=0.0, dt=0.25, origin=o, h=0.125,
                     data=np.zeros((3, 4, 4, 4, 3)))
    o[0] = 5.0
    assert np.array_equal(grid.origin, np.zeros(3))
    with pytest.raises(ValueError, match="read-only"):
        grid.origin[0] = 1.0


def test_grid_field_data_is_a_read_only_view():
    # no copy of the slab, and the caller's own array keeps its flags
    base = np.zeros((3, 4, 4, 4, 3))
    grid = GridField(t0=0.0, dt=0.25, origin=np.zeros(3), h=0.125, data=base)
    assert np.shares_memory(grid.data, base)
    assert base.flags.writeable
    assert not grid.data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        grid.data[0, 0, 0, 0, 0] = 1.0


def test_grid_field_save_load_round_trip(tmp_path):
    _, grid = _plane_wave_slab(nt=3, n=9, h=1.0 / 8.0)
    path = tmp_path / "slab.npz"
    grid.save(path)
    back = GridField.load(path)
    assert back.t0 == grid.t0 and back.dt == grid.dt and back.h == grid.h
    assert np.array_equal(back.origin, grid.origin)
    assert np.array_equal(back.data, grid.data)  # bit-exact


def test_grid_field_save_is_a_plain_npz(tmp_path):
    _, grid = _plane_wave_slab(nt=3, n=9, h=1.0 / 8.0)
    grid.save(tmp_path / "slab.bin")
    # written exactly at the path given, with no ".npz" appended
    assert [p.name for p in tmp_path.iterdir()] == ["slab.bin"]
    with np.load(tmp_path / "slab.bin") as f:
        assert sorted(f.files) == ["data", "dt", "h", "origin", "t0"]
        assert np.array_equal(f["data"], grid.data)


def test_grid_field_save_writes_the_bytes_of_np_savez(tmp_path):
    # the slab writer streams its levels into the archive np.savez would
    # write of the whole slab, so a streamed run's file is the saved slab's
    _, grid = _plane_wave_slab(nt=3, n=9, h=1.0 / 8.0)
    grid.save(tmp_path / "streamed.npz")
    with open(tmp_path / "savez.npz", "wb") as fh:
        np.savez(fh, data=grid.data, t0=grid.t0, dt=grid.dt,
                 origin=grid.origin, h=grid.h)
    assert ((tmp_path / "streamed.npz").read_bytes()
            == (tmp_path / "savez.npz").read_bytes())


@pytest.mark.parametrize("failure", [KeyboardInterrupt, OSError, None],
                         ids=["interrupt", "os-error", "short"])
def test_failed_slab_write_leaves_the_target_as_it_was(failure, tmp_path):
    # the archive is written to a .part beside the target and moved into
    # place only once complete; a failure removes it, whatever it was
    _, grid = _plane_wave_slab(nt=3, n=9, h=1.0 / 8.0)
    path = tmp_path / "slab.npz"
    path.write_text("keep")
    with pytest.raises(failure or ValueError,
                       match=None if failure else "2 of the 3 levels"):
        with fields._slab_writer(path, grid.data.shape, grid.t0, grid.dt,
                                 grid.origin, grid.h) as append:
            append(grid.data[0])
            assert (tmp_path / "slab.npz.part").exists()
            append(grid.data[1])
            if failure:
                raise failure
    assert [p.name for p in tmp_path.iterdir()] == ["slab.npz"]
    assert path.read_text() == "keep"


def test_grid_field_load_never_unpickles(tmp_path):
    path = tmp_path / "slab.npz"
    np.savez(path, data=np.empty((3, 4, 4, 4, 3), dtype=object), t0=0.0,
             dt=0.25, origin=np.zeros(3), h=0.125)
    with pytest.raises(ValueError, match="allow_pickle"):
        GridField.load(path)


@pytest.mark.parametrize("bad", [
    {"dt": np.nan}, {"dt": -0.1}, {"dt": 0.0}, {"dt": np.inf},
    {"h": 0.0}, {"h": np.nan}, {"t0": np.inf},
    {"origin": np.zeros(2)}, {"origin": [0.0, np.nan, 0.0]},
], ids=["dt-nan", "dt-negative", "dt-zero", "dt-inf", "h-zero", "h-nan",
        "t0-inf", "origin-2d", "origin-nan"])
def test_grid_field_rejects_bad_grid(bad):
    grid = {"t0": 0.0, "dt": 0.25, "origin": np.zeros(3), "h": 0.125}
    with pytest.raises(ValueError, match="finite"):
        GridField(data=np.zeros((3, 4, 4, 4, 3)), **{**grid, **bad})


def test_grid_field_load_rejects_a_nan_dt(tmp_path):
    _, grid = _plane_wave_slab(nt=3, n=9, h=1.0 / 8.0)
    path = tmp_path / "slab.npz"
    np.savez(path, data=grid.data, t0=grid.t0, dt=np.nan,
             origin=grid.origin, h=grid.h)
    with pytest.raises(ValueError, match="dt and h finite"):
        GridField.load(path)


def _write_garbage(path):
    path.write_bytes(b"NOPE" + b"\x00" * 64)


def _write_lone_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros((3, 4, 4, 4, 3)))


def _write_npz_without_origin(path):
    with open(path, "wb") as fh:
        np.savez(fh, data=np.zeros((3, 4, 4, 4, 3)), t0=0.0, dt=0.25, h=0.125)


@pytest.mark.parametrize("write, match", [
    (_write_garbage, None), (_write_lone_npy, "one array"),
    (_write_npz_without_origin, "origin"),
], ids=["garbage", "npy", "npz-without-origin"])
def test_grid_field_load_rejects_garbage(tmp_path, write, match):
    path = tmp_path / "bad.npz"
    write(path)
    with pytest.raises(ValueError, match=match):
        GridField.load(path)
