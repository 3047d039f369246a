import dataclasses
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from wavemaplab.fields import BoostedHarmonicMap, FieldEvaluator, MapParams
from wavemaplab.manufactured import ConstantMap, GeodesicPlaneWave, bump_profile
from wavemaplab import solver
from wavemaplab.solver import (EnergyLedger, SolverConfig, constraint_violation,
                               penalization_sweep, run, trusted_region)
from wavemaplab.spacetime import ConeSpec


def plane_wave(k):
    return GeodesicPlaneWave(np.asarray(k, dtype=float))


class CauchyData(FieldEvaluator):
    """Arbitrary data: value ``f(xs)`` and time derivative ``g(xs)`` at
    t = 0, the only jets the solver samples."""

    def __init__(self, f, g=np.zeros_like):
        self.f, self.g = f, g

    def jets_at(self, ts, xs):
        return self.f(xs), self.g(xs), np.zeros((len(xs), 3, 3))


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(box_half_width=0.5, h=0.3, T_end=0.1)  # h doesn't divide
    with pytest.raises(ValueError):
        SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.1, boundary="open")
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.1)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, dt=2.0 * cfg.cfl_limit)


def test_cfl_limit_includes_penalty_frequency():
    base = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.1)
    stiff = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.1, penalty_n=64.0)
    assert base.cfl_limit == pytest.approx(0.5 / (8.0 * np.sqrt(3.0)))
    assert stiff.cfl_limit == pytest.approx(0.5 / 64.0)


@pytest.mark.parametrize("name, value", [
    ("h", 0.0), ("h", float("nan")), ("box_half_width", 0.0),
    ("box_half_width", float("inf")), ("T_end", 0.0), ("T_end", -0.1),
    ("dt", -0.01), ("dt", 0.0), ("dt", float("nan"))])
def test_grid_and_time_span_must_be_finite_and_positive(name, value):
    kwargs = {"box_half_width": 0.5, "h": 1 / 8, "T_end": 0.1, name: value}
    with pytest.raises(ValueError,
                       match=f"^{name} must be finite and positive"):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("stride", [0, -2, 1.5])
def test_store_stride_must_be_a_positive_integer(stride):
    # 0 would read as "auto", -2 would store no level at all
    with pytest.raises(ValueError,
                       match="^store_stride must be an integer >= 1"):
        SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.1,
                     store_stride=stride)


@pytest.mark.parametrize("n", [float("nan"), float("inf")])
def test_penalty_must_be_finite(n):
    # nan would drop out of the CFL bound and blow the solver up later
    with pytest.raises(ValueError, match="penalty_n must be >= 0 and finite"):
        SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1, penalty_n=n)


def test_negative_penalty_is_refused():
    # the force scales as n^2, so a negative n must not drop the 1/n bound
    with pytest.raises(ValueError, match="penalty_n must be >= 0"):
        SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1, penalty_n=-256.0)
    assert SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1,
                        penalty_n=0.0).cfl_limit > 0.0


def test_grid_geometry():
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.1)
    assert cfg.n_cells == 8
    c = cfg.cell_centers_1d()
    assert len(c) == 8
    assert c[0] == pytest.approx(-0.5 + 1 / 16)  # cell-centered
    assert c[-1] == pytest.approx(0.5 - 1 / 16)
    assert cfg.n_steps * cfg.dt_effective == pytest.approx(cfg.T_end)


# ---------------------------------------------------------------------------
# basic dynamics


def test_constant_equilibrium_is_preserved():
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.2, penalty_n=16.0)
    slab, ledger = run(cfg, ConstantMap((0.0, 0.0, 1.0)))
    assert np.allclose(slab.data, slab.data[0], atol=1e-14)
    assert np.allclose(ledger.totals(), 0.0, atol=1e-14)


def test_plane_wave_convergence_order():
    pw = plane_wave([2.0 * np.pi, 0.0, 0.0])
    T = 0.5
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        cfg = SolverConfig(box_half_width=0.5, h=h, T_end=T, boundary="periodic")
        slab, _ = run(cfg, pw)
        c = cfg.cell_centers_1d()
        X, Y, Z = np.meshgrid(c, c, c, indexing="ij")
        xs = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        exact = pw.jets_at(np.full(len(xs), T), xs)[0]
        errs.append(float(np.max(np.abs(slab.data[-1].reshape(-1, 3) - exact))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.min(orders) >= 1.9


def test_energy_drift_small():
    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=1.0,
                       boundary="periodic")
    _, ledger = run(cfg, plane_wave([2.0 * np.pi, 0.0, 0.0]))
    assert ledger.relative_drift() <= 1e-3


def test_finite_propagation_speed():
    # perturbing the data far outside a ball leaves the in-cone solution
    # untouched (exactly, for an explicit stencil)
    pw = plane_wave([2.0, 1.0, 0.0])
    x0 = np.array([0.4, 0.4, 0.4])

    def perturbed(xs):
        out = pw.jets_at(np.zeros(len(xs)), xs)[0]
        out[:, 0] += 0.5 * bump_profile(np.sum((xs - x0)**2, axis=1) / 0.05**2)
        return out

    def g(xs):
        return pw.jets_at(np.zeros(len(xs)), xs)[1]

    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1)
    s1, _ = run(cfg, pw)
    s2, _ = run(cfg, CauchyData(perturbed, g))
    c = cfg.cell_centers_1d()
    X, Y, Z = np.meshgrid(c, c, c, indexing="ij")
    mask = np.sqrt(X**2 + Y**2 + Z**2) <= 0.1
    assert np.max(np.abs(s1.data[-1][mask] - s2.data[-1][mask])) <= 1e-10


def test_unstable_step_raises():
    rng = np.random.default_rng(3)
    noisy = CauchyData(lambda xs: rng.uniform(-10.0, 10.0, (len(xs), 3)))
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=4.0,
                       penalty_n=8.0, boundary="periodic")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            run(cfg, noisy)


@pytest.mark.parametrize("component", ["value", "time derivative"])
@pytest.mark.parametrize("cell, bad", [((3, 4, 2), np.nan),
                                       ((0, 3, 5), np.inf)],
                         ids=["interior-nan", "face-inf"])
@pytest.mark.parametrize("entry", ["run", "penalization_sweep"])
def test_non_finite_cauchy_data_fails_before_any_step(entry, cell, bad,
                                                      component, monkeypatch):
    # unchecked, a bad time derivative would blow up at step 0 in the
    # interior, and at a face run through with a NaN kinetic energy in
    # ledger row 0
    def never(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(solver, "_advance", never)
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.1)
    value, dt = np.tile([0.0, 0.0, 1.0], (8, 8, 8, 1)), np.zeros((8, 8, 8, 3))
    (value if component == "value" else dt)[cell] = bad

    def at(grid):
        # each queried centre's cell, whatever batch it comes in
        def sample(xs):
            cells = np.rint((xs - cfg.origin) / cfg.h).astype(int)
            return grid[tuple(cells.T)]

        return sample

    data = CauchyData(at(value), at(dt))
    message = re.escape(f"the Cauchy data's {component} is not finite at "
                        "some cell centre")
    with pytest.raises(ValueError, match=message):
        if entry == "run":
            run(cfg, data)
        else:
            cone = ConeSpec.from_base(np.zeros(3), 0.5, 0.0, 0.1)
            penalization_sweep((4.0, 8.0), data, cfg, cone)


def test_clamped_boundary_holds_initial_values():
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.2)
    slab, _ = run(cfg, plane_wave([2.0, 1.0, 0.0]))
    assert np.array_equal(slab.data[-1][0], slab.data[0][0])
    assert np.array_equal(slab.data[-1][:, -1], slab.data[0][:, -1])
    assert np.array_equal(slab.data[-1][:, :, 0], slab.data[0][:, :, 0])


def test_slab_metadata():
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.1,
                       boundary="periodic")
    slab, ledger = run(cfg, plane_wave([2.0, 0.0, 0.0]))
    assert slab.t0 == 0.0
    assert slab.t_max == pytest.approx(cfg.T_end)
    assert slab.h == cfg.h
    assert np.allclose(slab.origin, cfg.origin)
    assert len(ledger.rows) == cfg.n_steps


def test_slab_follows_the_config_plan():
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.5)
    assert cfg.stride > 1  # levels are skipped
    slab, _ = run(cfg, plane_wave([2.0, 0.0, 0.0]))
    assert slab.data.shape[0] == cfg.n_levels
    assert slab.dt == cfg.stride * cfg.dt_effective


def test_plan_is_derived_not_settable():
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.2)
    for name in ("n_cells", "n_steps", "stride", "n_levels", "dt_effective"):
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, **{name: 1})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, 1)
    # replacing a setting derives the plan again
    finer = dataclasses.replace(cfg, h=1 / 16)
    assert (finer.n_cells, finer.n_steps) == (16, 2 * cfg.n_steps)


# ---------------------------------------------------------------------------
# in-place kernel against the allocating leapfrog it replaced


def _ref_accel(u, cfg):
    h, n = cfg.h, cfg.penalty_n
    if cfg.boundary == "periodic":
        lap = -6.0 * u
        for ax in range(3):
            lap += np.roll(u, 1, axis=ax) + np.roll(u, -1, axis=ax)
        lap = lap / h**2
    else:
        lap = np.zeros_like(u)
        lap[1:-1, 1:-1, 1:-1] = (
            u[2:, 1:-1, 1:-1] + u[:-2, 1:-1, 1:-1]
            + u[1:-1, 2:, 1:-1] + u[1:-1, :-2, 1:-1]
            + u[1:-1, 1:-1, 2:] + u[1:-1, 1:-1, :-2]
            - 6.0 * u[1:-1, 1:-1, 1:-1]) / h**2
    if n == 0.0:
        return lap - np.zeros_like(u)
    return lap - n**2 * (np.sum(u**2, axis=-1, keepdims=True) - 1.0) * u


def _ref_clamp(u, u0, cfg):
    if cfg.boundary == "clamped":
        u[0], u[-1] = u0[0], u0[-1]
        u[:, 0], u[:, -1] = u0[:, 0], u0[:, -1]
        u[:, :, 0], u[:, :, -1] = u0[:, :, 0], u0[:, :, -1]
    return u


def _ref_grad_energy(u, cfg):
    total = 0.0
    for ax in range(3):
        if cfg.boundary == "periodic":
            d = np.roll(u, -1, axis=ax) - u
        else:
            d = np.diff(u, axis=ax)
        total += float(np.sum(d**2))
    return 0.5 * total * cfg.h


def _ref_run(cfg, u0, g0):
    """Every level and every ledger row of the allocating formulas."""
    dt, vol, n = cfg.dt_effective, cfg.h**3, cfg.penalty_n

    def pen(u):
        return n**2 * 0.25 * float(
            np.sum((np.sum(u**2, axis=-1) - 1.0)**2)) * vol

    levels = [u0, _ref_clamp(u0 + dt * g0 + 0.5 * dt**2 * _ref_accel(u0, cfg),
                             u0, cfg)]
    rows = [(0, 0.0, 0.5 * float(np.sum(g0**2)) * vol,
             _ref_grad_energy(u0, cfg), pen(u0))]
    t = dt
    for k in range(1, cfg.n_steps):
        u_prev, u = levels[-2], levels[-1]
        unew = _ref_clamp(2.0 * u - u_prev + dt**2 * _ref_accel(u, cfg),
                          u0, cfg)
        vel = (unew - u_prev) / (2.0 * dt)
        rows.append((k, t, 0.5 * float(np.sum(vel**2)) * vol,
                     _ref_grad_energy(u, cfg), pen(u)))
        levels.append(unew)
        t += dt
    return np.stack(levels), np.asarray(rows)


def off_sphere_data():
    """Smooth periodic data with |f| != 1, so the penalty force is active."""
    def f(xs):
        x, y, z = (2.0 * np.pi * xs[:, i] for i in range(3))
        return np.stack([np.sin(x), 0.5 * np.cos(y), 1.0 + 0.3 * np.sin(z)],
                        axis=1)

    def g(xs):
        x, z = 2.0 * np.pi * xs[:, 0], 2.0 * np.pi * xs[:, 2]
        return np.stack([0.1 * np.cos(z), 0.0 * x, 0.2 * np.sin(x)], axis=1)

    return CauchyData(f, g)


KERNEL_CASES = [(b, n) for b in ("clamped", "periodic") for n in (0.0, 16.0)]


# stride 1 stores every level, stride 2 every other one: each is copied out
# of the rotating buffer it is stepped into
RUN_CASES = [pytest.param(b, n, stride,
                          id=f"{b}-{n}" + ("" if stride == 1 else "-stride2"))
             for b, n in KERNEL_CASES for stride in (1, 2)]


@pytest.mark.parametrize("boundary,n,stride", RUN_CASES)
def test_run_bit_identical_to_reference(boundary, n, stride):
    # T_end = 0.36 takes an even number of steps, 10 and 12, with and
    # without the penalty, so store_stride = 2 is the stride
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.36, penalty_n=n,
                       boundary=boundary, store_stride=stride)
    assert cfg.stride == stride
    data = off_sphere_data()
    u0, g0 = solver._cauchy_data(data, cfg)
    ref_levels, ref_rows = _ref_run(cfg, u0, g0)
    ref_levels = ref_levels[::stride]
    slab, ledger = run(cfg, data)
    assert np.array_equal(slab.data, ref_levels)
    # the reductions run in another order: a few ulps, not bit-identical
    rows = np.asarray(ledger.rows)
    assert rows.shape == ref_rows.shape
    assert np.all(np.abs(rows - ref_rows) <= 1e-13 * np.abs(ref_rows))
    # the stepping body gives the same run and leaves its data unwritten
    u0_copy, g0_copy = u0.copy(), g0.copy()
    slab2, store = solver._slab(cfg, solver.cell_box(cfg))
    solver._integrate(cfg, u0, g0, store)
    assert np.array_equal(slab2.data, ref_levels)
    assert np.array_equal(u0, u0_copy)
    assert np.array_equal(g0, g0_copy)


@pytest.mark.parametrize("boundary,n,stride", RUN_CASES)
def test_read_sees_every_level_once_in_order(boundary, n, stride):
    # the read hook sees every level, stored or not, as the reference steps
    # it, and the levels k - 1 and k it keeps stay unchanged during the read
    # of level k + 1
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.36, penalty_n=n,
                       boundary=boundary, store_stride=stride)
    u0, g0 = solver._cauchy_data(off_sphere_data(), cfg)
    ref_levels, _ = _ref_run(cfg, u0, g0)
    seen, kept = [], []

    def read(k, level):
        for lvl, copy in kept[-2:]:
            assert np.array_equal(lvl, copy)
        seen.append(k)
        assert np.array_equal(level, ref_levels[k])
        kept.append((level, level.copy()))

    ledger = solver._integrate(cfg, u0, g0, read)
    assert seen == list(range(cfg.n_steps + 1))
    assert len(ledger.rows) == cfg.n_steps


@pytest.mark.parametrize("boundary", ["periodic", "clamped"])
@pytest.mark.parametrize("n,steps", [(0.0, 17), (16.0, 17), (64.0, 39)])
def test_the_scheme_keeps_shatahs_current_exactly(boundary, n, steps):
    # The penalty force n^2 (|u|^2 - 1) u is parallel to u, so every stepped
    # cell keeps u^k x (u^{k+1} + u^{k-1}) = dt^2 u^k x Lap_h(u^k), whatever
    # n is: the leapfrog form of Shatah's conservation law.  Summed over the
    # periodic box the Laplacian term cancels, so the current
    # J_k = sum u^k x u^{k+1} h^3 / dt stays J_0 = h^3 sum u^0 x g^0; the
    # clamped box's faces do not keep it.  The hook reads levels k - 1 and k
    # in place during read(k + 1), with no copy.
    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.3, penalty_n=n,
                       boundary=boundary, store_stride=1)
    assert cfg.n_steps == steps
    dt, vol = cfg.dt_effective, cfg.h**3
    no_penalty = dataclasses.replace(cfg, penalty_n=0.0)
    stepped = (slice(None),) * 3 if boundary == "periodic" \
        else (slice(1, -1),) * 3
    u0, g0 = solver._cauchy_data(off_sphere_data(), cfg)
    kept, currents, cell_errors = [], [], []

    def read(k, level):
        if kept:
            currents.append(np.sum(np.cross(kept[-1], level), axis=(0, 1, 2))
                            * vol / dt)
        if len(kept) == 2:
            u_prev, u = kept
            lap = _ref_accel(u, no_penalty)
            err = np.cross(u, level + u_prev) - dt**2 * np.cross(u, lap)
            cell_errors.append(np.max(np.abs(err[stepped])))
        kept[:] = kept[-1:] + [level]

    solver._integrate(cfg, u0, g0, read, ledger=False)
    assert len(currents) == steps and len(cell_errors) == steps - 1
    assert max(cell_errors) <= 1e-14
    if boundary == "periodic":
        j = np.asarray(currents)
        size = np.linalg.norm(j[0])
        assert size > 0.01
        assert np.max(np.abs(j - j[0])) <= 1e-12 * size
        j0 = np.sum(np.cross(u0, g0), axis=(0, 1, 2)) * vol
        assert np.max(np.abs(j[0] - j0)) <= 1e-12 * size


def _record_threads(monkeypatch):
    """Spy on the block kernel: the threads that ran a block, and those in
    which a block raised."""
    ran, raised = set(), []
    real = solver._advance

    def spy(*args):
        ran.add(threading.get_ident())
        try:
            return real(*args)
        except FloatingPointError:
            raised.append(threading.current_thread())
            raise

    monkeypatch.setattr(solver, "_advance", spy)
    return ran, raised


@pytest.mark.parametrize("cells", [8, 10, 13])
def test_results_do_not_depend_on_the_pool_size(cells, monkeypatch):
    # At the module's block size each of these grids is one block; the
    # small-block cases below cut them into several.  Every level is stepped
    # into the buffers, out of which the stored ones are copied.
    cfg = SolverConfig(box_half_width=0.5, h=1 / cells, T_end=0.25,
                       penalty_n=16.0, store_stride=3)
    assert cfg.stride > 1
    u0, g0 = solver._cauchy_data(off_sphere_data(), cfg)
    ref_levels, ref_rows = _ref_run(cfg, u0, g0)
    ran, _ = _record_threads(monkeypatch)
    rows = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # let the workers interleave as often as can be
    try:
        for size in (1, 2, 4):
            monkeypatch.setattr(solver.os, "sched_getaffinity",
                                lambda pid, size=size: set(range(size)))
            threads = threading.active_count()
            ran.clear()
            slab, store = solver._slab(cfg, solver.cell_box(cfg))
            ledger = solver._integrate(cfg, u0, g0, store)
            assert threading.active_count() == threads
            assert 1 <= len(ran) <= size
            assert threading.main_thread().ident not in ran
            assert np.array_equal(slab.data, ref_levels[::cfg.stride])
            rows.append(np.asarray(ledger.rows))
    finally:
        sys.setswitchinterval(interval)
    assert np.all(np.abs(rows[0] - ref_rows) <= 1e-13 * np.abs(ref_rows))
    assert all(np.all(r == rows[0]) for r in rows[1:])


def test_blow_up_surfaces_from_a_worker(monkeypatch):
    # test_unstable_step_raises on the clamped box, whose step runs in blocks
    rng = np.random.default_rng(3)
    noisy = CauchyData(lambda xs: rng.uniform(-10.0, 10.0, (len(xs), 3)))
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=4.0, penalty_n=8.0)
    _, raised = _record_threads(monkeypatch)
    threads = threading.active_count()
    message = ("solver blow-up: check dt <= 0.5 * min(h/sqrt(3), 1/n) "
               f"(limit {cfg.cfl_limit}, dt {cfg.dt_effective})")
    # the workers step under the caller's errstate: no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=re.escape(message)):
                run(cfg, noisy)
    assert raised
    assert threading.main_thread() not in raised
    assert threading.active_count() == threads


def _plane_blocks(monkeypatch, cells, planes):
    """Blocks of ``planes`` x-planes on a grid of ``cells`` per axis."""
    monkeypatch.setattr(solver, "_BLOCK_BYTES", planes * cells**2 * 3 * 8)
    cfg = SolverConfig(box_half_width=0.5, h=1 / cells, T_end=0.1)
    work = solver._Work(cfg, pool=None, workers=1, ledger=False)
    assert len(work.blocks) == -(-cells // planes) > 1


@pytest.mark.parametrize("planes", [1, 2, 3])
@pytest.mark.parametrize("cells", [8, 10, 13])
def test_results_do_not_depend_on_the_pool_size_in_small_blocks(
        cells, planes, monkeypatch):
    # one-plane blocks at 8 cells: the first and last with no interior
    # plane; 10 and 13 planes do not split evenly into 2- and 3-plane ones
    _plane_blocks(monkeypatch, cells, planes)
    test_results_do_not_depend_on_the_pool_size(cells, monkeypatch)


@pytest.mark.parametrize("planes", [1, 2, 3])
def test_blow_up_surfaces_from_a_worker_in_small_blocks(planes, monkeypatch):
    _plane_blocks(monkeypatch, 8, planes)
    test_blow_up_surfaces_from_a_worker(monkeypatch)


@pytest.mark.parametrize("boundary", ["clamped", "periodic"])
def test_work_holds_only_block_sized_scratch(boundary):
    # 64 cells: 96 KiB planes, 5 to a 512 KiB block, 13 blocks
    cfg = SolverConfig(box_half_width=0.5, h=1 / 64, T_end=0.1,
                       boundary=boundary)
    n = cfg.n_cells
    partitions = []
    for workers in (1, 2, 4, 32):
        work = solver._Work(cfg, pool=None, workers=workers, ledger=False)
        blocks = work.blocks
        sizes = [i1 - i0 for i0, i1 in blocks]
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(k == sizes[0] for k in sizes[:-1]) and sizes[-1] <= sizes[0]
        if boundary == "clamped":
            assert sizes[0] * n * n * 3 * 8 <= solver._BLOCK_BYTES
            assert len(blocks) > 1
        else:  # the periodic stencil wraps across x
            assert blocks == [(0, n)]
        # one contiguous run of blocks per worker, each with its scratch
        assert [b for r in work.runs for b in r] == blocks
        assert 1 <= len(work.runs) == len(work.scratch) <= workers
        assert all(r for r in work.runs)
        arrays = [a for s in work.scratch for a in vars(s).values()]
        assert len(arrays) == 4 * len(work.runs)
        assert all(a.shape[0] == sizes[0] and a.shape[1:3] == (n, n)
                   for a in arrays)
        assert not [v for v in vars(work).values()
                    if isinstance(v, np.ndarray)]
        partitions.append(blocks)
    assert all(p == partitions[0] for p in partitions)


def test_the_sweep_builds_no_ledger(monkeypatch):
    def no_ledger(*args):
        raise AssertionError("a sweep run summed a ledger row")

    monkeypatch.setattr(solver, "_grad_energy", no_ledger)
    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1)
    cone = ConeSpec.from_base(np.zeros(3), 0.3, 0.0, 0.1)
    sweep = penalization_sweep((8.0, 16.0),
                               BoostedHarmonicMap(MapParams(2.0, 0.6)),
                               cfg, cone)
    assert sweep.violations.shape == (2, 2)


def test_oversized_slab_fails_before_sampling(monkeypatch):
    def never(xs):
        raise AssertionError("data sampled before the slab-size check")

    fld = CauchyData(never)
    cfg = SolverConfig(box_half_width=0.5, h=1 / 32, T_end=0.1)
    monkeypatch.setattr(solver, "_physical_memory", lambda: 2**20)
    with pytest.raises(ValueError, match=r"GiB .*stride"):
        run(cfg, fld)
    cone = ConeSpec.from_base(np.zeros(3), 0.3, 0.0, 0.1)
    with pytest.raises(ValueError, match=r"GiB .*stride"):
        penalization_sweep((4.0, 8.0), fld, cfg, cone)


def test_preflight_counts_the_working_grids(monkeypatch):
    # memory that holds the stored slab, but not the five (N, N, N, 3)
    # working grids beside it, is refused before sampling
    def never(xs):
        raise AssertionError("data sampled before the memory check")

    fld = CauchyData(never)
    cfg = SolverConfig(box_half_width=0.5, h=1 / 32, T_end=0.1)
    cells = cfg.n_cells**3
    ram = 0
    for n in (0.0, 4.0, 8.0):
        n_levels = dataclasses.replace(cfg, penalty_n=n).n_levels
        ram = max(ram, n_levels * cells * 3 * 8 + cells * 8)
    monkeypatch.setattr(solver, "_physical_memory", lambda: ram)
    with pytest.raises(ValueError, match=r"GiB .*stride.*working grids"):
        run(cfg, fld)
    cone = ConeSpec.from_base(np.zeros(3), 0.3, 0.0, 0.1)
    with pytest.raises(ValueError, match=r"GiB .*stride.*working grids"):
        penalization_sweep((4.0, 8.0), fld, cfg, cone)


@pytest.mark.parametrize("boundary,cells,cores,scratch_planes", [
    # clamped: 216 KiB planes, two to a block, one block per core
    ("clamped", 96, 1, 2),
    ("clamped", 96, 2, 4),
    # periodic: one whole-box block, whatever the cores
    ("periodic", 32, 2, 32),
])
def test_preflight_counts_what_is_allocated(boundary, cells, cores,
                                            scratch_planes, monkeypatch):
    # the slab, five (N, N, N, 3) grids and per worker one block's scratch
    # of two (planes, N, N, 3) and two (planes, N, N) arrays, to the byte
    def never(xs):
        raise AssertionError("sampled")

    cfg = SolverConfig(box_half_width=0.5, h=1 / cells, T_end=0.1,
                       boundary=boundary)
    monkeypatch.setattr(solver.os, "sched_getaffinity",
                        lambda pid: set(range(cores)))
    need = ((cfg.n_levels + 5) * cells**3 * 3
            + scratch_planes * cells**2 * (3 + 3 + 1 + 1)) * 8
    monkeypatch.setattr(solver, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"GiB .*stride.*working grids"):
        run(cfg, CauchyData(never))
    monkeypatch.setattr(solver, "_physical_memory", lambda: need)
    with pytest.raises(AssertionError, match="sampled"):
        run(cfg, CauchyData(never))
    # a windowed sweep: the strongest run stores the cone's cell box, which
    # is a real window, and the weaker one no level
    cone = ConeSpec.from_base(np.zeros(3), 0.3, 0.0, 0.1)
    box = [s.stop - s.start for s in solver.cell_box(cfg, [cone])]
    assert max(box) < cells
    strongest = dataclasses.replace(cfg, penalty_n=8.0)
    need = ((strongest.n_levels * int(np.prod(box)) + 5 * cells**3) * 3
            + scratch_planes * cells**2 * (3 + 3 + 1 + 1)) * 8
    monkeypatch.setattr(solver, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"GiB .*stride.*working grids"):
        penalization_sweep((4.0, 8.0), CauchyData(never), cfg, cone,
                           read_cones=[cone])
    monkeypatch.setattr(solver, "_physical_memory", lambda: need)
    with pytest.raises(AssertionError, match="sampled"):
        penalization_sweep((4.0, 8.0), CauchyData(never), cfg, cone,
                           read_cones=[cone])


def test_preflight_allocates_nothing(monkeypatch):
    # 2048^3 cells: one worker's one-plane block scratch alone is 256 MiB,
    # which a refused run counts but never allocates
    cfg = SolverConfig(box_half_width=0.5, h=1 / 2048, T_end=0.1)
    monkeypatch.setattr(solver, "_physical_memory", lambda: 2**30)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"GiB .*working grids"):
            solver._slab(cfg, solver.cell_box(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sampling_holds_the_data_and_one_plane_of_jets():
    # u0 and g0 are two of the five (N, N, N, 3) grids that _check_memory
    # counts; one x-plane's jets at a time keep the transient near them,
    # where one call on all N**3 centres peaks above seven grids
    cfg = SolverConfig(box_half_width=0.5, h=1 / 64, T_end=0.1)
    phi = BoostedHarmonicMap(MapParams(2.0, 0.6))
    tracemalloc.start()
    try:
        solver._cauchy_data(phi, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * cfg.n_cells**3 * 3 * 8


def test_memory_is_checked_once_per_run(monkeypatch):
    calls = []

    def counting():
        calls.append(1)
        return None

    monkeypatch.setattr(solver, "_physical_memory", counting)
    phi = BoostedHarmonicMap(MapParams(2.0, 0.6))
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.1)
    run(cfg, phi)
    assert len(calls) == 1
    calls.clear()
    # a slice at T_end that holds cells 2 h = 0.25 inside it
    cone = ConeSpec.from_base(np.zeros(3), 0.5, 0.0, 0.1)
    penalization_sweep((4.0, 8.0), phi, cfg, cone)
    assert len(calls) == 2


# (h, penalty_n, dt, store_stride) -> (n_steps, stride, stored levels), on
# the default box (half-width 0.75) to T_end = 0.2.  At --refine 2 the CFL
# step counts, 89 and 67, are prime, so they round up to a multiple of the
# target stride.
STORE_PLANS = [
    ((1 / 64, 64.0, None, None), (45, 3, 16)),    # default config
    ((1 / 48, 64.0, None, None), (34, 2, 18)),    # perfbench/sweep.ini
    ((1 / 32, 32.0, None, None), (23, 1, 24)),    # criterion 7's grids
    ((1 / 16, 16.0, None, None), (12, 1, 13)),
    ((1 / 80, 64.0, 0.2 / 60, 12), (60, 12, 6)),  # criterion 6's refined run
    ((1 / 128, 64.0, None, None), (96, 8, 13)),   # default, --refine 2
    ((1 / 96, 64.0, None, None), (72, 6, 13)),    # sweep, --refine 2
]


@pytest.mark.parametrize("knobs,plan", STORE_PLANS)
def test_store_plan_keeps_a_stride_near_its_target(knobs, plan):
    h, n, dt, stride = knobs
    cfg = SolverConfig(box_half_width=0.75, h=h, T_end=0.2, penalty_n=n,
                       dt=dt, store_stride=stride)
    assert (cfg.n_steps, cfg.stride, cfg.n_levels) == plan
    # rounding the step count up only shrinks dt
    assert cfg.dt_effective <= cfg.cfl_limit
    assert cfg.n_steps * cfg.dt_effective == pytest.approx(cfg.T_end)


# ---------------------------------------------------------------------------
# ledger


def test_ledger_relative_drift():
    led = EnergyLedger()
    led.add(0, 0.0, 1.0, 2.0, 0.5)
    led.add(1, 0.1, 1.1, 1.9, 0.4)
    assert led.relative_drift() == pytest.approx(0.1 / 3.5)


# ---------------------------------------------------------------------------
# penalization sweep and trusted region


def test_penalization_sweep_trends():
    params = MapParams(2.0, 0.6)
    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1)
    cone = ConeSpec.from_base(np.zeros(3), 0.3, 0.0, 0.1)
    sweep = penalization_sweep((4.0, 8.0, 16.0), BoostedHarmonicMap(params),
                               cfg, cone)
    assert sweep.violations.shape == (3, 2)
    final = sweep.violation_final()
    assert np.all(np.diff(final) < 0.0)  # stronger penalty, smaller violation
    assert sweep.pair_distances.shape == (2,)
    assert np.all(sweep.pair_distances > 0.0)
    assert sweep.final_slab is not None
    assert sweep.final_slab.t_max == pytest.approx(0.1)


def test_penalization_sweep_labels_the_levels_it_reads():
    # 7 stored intervals: T_end / 2 falls midway between two levels, and the
    # sweep reports the time of the level it reads, not the time asked for
    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.11)
    cone = ConeSpec.from_base(np.zeros(3), 0.3, 0.0, 0.1)
    phi = BoostedHarmonicMap(MapParams(2.0, 0.6))
    sweep = penalization_sweep((4.0, 8.0), phi, cfg, cone)
    slab = sweep.final_slab
    assert slab.data.shape[0] == 8
    t_half, t_end = sweep.sample_times
    k = int(round(t_half / slab.dt))
    assert t_half == k * slab.dt
    assert abs(t_half - 0.055) <= 0.5 * slab.dt * (1.0 + 1e-12)  # nearest
    assert t_half != pytest.approx(0.055)
    assert t_end == pytest.approx(0.11)
    last = dataclasses.replace(cfg, penalty_n=8.0)
    assert sweep.violations[-1, 0] == constraint_violation(slab.data[k], last)
    assert sweep.violations[-1, 1] == constraint_violation(slab.data[-1], last)


def test_every_sweep_run_stores_the_same_levels(monkeypatch):
    # at h = 1/16 the penalties 32 and 64 exceed sqrt(3) / h, so their own
    # CFL steps would be shorter; every run takes the strongest one's step,
    # and the sample times name the same levels in every row
    plans = []
    integrate = solver._integrate

    def spy(cfg, *args, **kwargs):
        plans.append((cfg.n_steps, cfg.stride, cfg.dt_effective))
        return integrate(cfg, *args, **kwargs)

    monkeypatch.setattr(solver, "_integrate", spy)
    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1)
    cone = ConeSpec.from_base(np.zeros(3), 0.3, 0.0, 0.1)
    sweep = penalization_sweep((8.0, 16.0, 32.0, 64.0),
                               BoostedHarmonicMap(MapParams(2.0, 0.6)),
                               cfg, cone)
    assert len(plans) == 4 and len(set(plans)) == 1
    assert np.all(np.diff(sweep.violation_final()) < 0.0)


def test_sweep_reading_no_cones_stores_no_slab(monkeypatch):
    # no cone read: no run stores a level, so no 5-d array is allocated
    slabs, empty = [], np.empty

    def spy(shape, *args, **kwargs):
        if len(np.atleast_1d(shape)) == 5:
            slabs.append(tuple(shape))
        return empty(shape, *args, **kwargs)

    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1)
    cone = ConeSpec.from_base(np.zeros(3), 0.3, 0.0, 0.1)
    phi = BoostedHarmonicMap(MapParams(2.0, 0.6))
    whole = penalization_sweep((4.0, 8.0), phi, cfg, cone)
    monkeypatch.setattr(np, "empty", spy)
    none = penalization_sweep((4.0, 8.0), phi, cfg, cone, read_cones=())
    assert slabs == []
    assert none.final_slab is None
    assert np.array_equal(none.violations, whole.violations)
    assert np.array_equal(none.pair_distances, whole.pair_distances)


def test_a_one_penalty_sweep_compares_no_pair():
    # one run: no pair distance, one row of violations, and the run's slab
    # of the read cone's box, as a lone run stores it
    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1)
    cone = ConeSpec.from_base(np.zeros(3), 0.3, 0.0, 0.1)
    phi = BoostedHarmonicMap(MapParams(2.0, 0.6))
    sweep = penalization_sweep((8.0,), phi, cfg, cone, read_cones=[cone])
    assert sweep.pair_distances.dtype == float
    assert sweep.pair_distances.shape == (0,)
    assert sweep.violations.shape == (1, 2)
    box = solver.cell_box(cfg, [cone])
    assert max(s.stop - s.start for s in box) < cfg.n_cells
    whole, _ = run(dataclasses.replace(cfg, penalty_n=8.0), phi)
    slab = sweep.final_slab
    assert np.array_equal(slab.data, whole.data[(slice(None),) + box])
    assert np.array_equal(slab.origin,
                          cfg.origin + cfg.h * np.array([s.start for s in box]))


def test_penalization_sweep_samples_data_once():
    phi = BoostedHarmonicMap(MapParams(2.0, 0.6))
    calls = []

    class Counted(FieldEvaluator):
        def jets_at(self, ts, xs):
            calls.append(len(xs))
            return phi.jets_at(ts, xs)

    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1)
    cone = ConeSpec.from_base(np.zeros(3), 0.3, 0.0, 0.1)
    penalties = (4.0, 8.0, 16.0)
    sweep = penalization_sweep(penalties, Counted(), cfg, cone)
    # one pass over the x-planes for the whole sweep, not one per penalty
    assert calls == [cfg.n_cells**2] * cfg.n_cells
    # distances equal those of whole slabs from independent runs
    mask = solver._cone_mask(cfg, cone, 0.1)
    last = []
    for n in penalties:
        slab, _ = run(dataclasses.replace(cfg, penalty_n=n), phi)
        last.append(slab.data[-1][mask])
    for i in range(2):
        d = (last[i] - last[i + 1]).ravel()
        assert sweep.pair_distances[i] == float(np.sqrt(
            np.einsum("n,n->", d, d) * cfg.h**3))


# the default crossing cone, the control cone (no cell of its slice at
# T_end = 0.2 lies 2 h inside it at h = 1/48) and an off-centre cone
MASK_CONES = {
    "crossing": ((0.0, 0.0, 0.0), 0.5, 0.2),
    "control": ((0.3, 0.3, 0.0), 0.25, 0.1),
    "off-centre": ((0.11, -0.2, 0.05), 0.45, 0.2),
}


@pytest.mark.parametrize("t", [0.2, 0.1], ids=["T_end", "mid-span"])
@pytest.mark.parametrize("h", [1 / 48, 1 / 64],
                         ids=["h=1/48", "h=1/64"])
@pytest.mark.parametrize("name", MASK_CONES)
def test_cone_mask_matches_the_full_grid_formula(name, h, t):
    cfg = SolverConfig(box_half_width=0.75, h=h, T_end=0.2)
    center, radius, height = MASK_CONES[name]
    cone = ConeSpec.from_base(np.array(center), radius, 0.0, height)
    # the formula as first written, on the (N**3, 3) array of cell centres
    c = cfg.cell_centers_1d()
    d = np.stack([a.ravel() for a in np.meshgrid(c, c, c, indexing="ij")],
                 axis=1) - cone.apex.x
    r = np.sqrt(d[:, 0]**2 + d[:, 1]**2 + d[:, 2]**2)
    want = (r <= cone.radius(t) - 2.0 * cfg.h).reshape((cfg.n_cells,) * 3)
    # the mask builds no (N**3, 3) array of centres, nor any grid that size
    tracemalloc.start()
    try:
        got = solver._cone_mask(cfg, cone, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cfg.n_cells**3 * 3 * 8
    assert np.array_equal(got, want)
    if name == "control" and h == 1 / 48 and t == 0.2:
        assert not got.any()


def _never_sampled():
    def never(xs):
        raise AssertionError("data sampled before the sweep's checks")

    return CauchyData(never)


@pytest.mark.parametrize("schedule", [(16.0, 8.0), (8.0, 8.0), ()],
                         ids=["descending", "repeated", "empty"])
def test_sweep_refuses_a_schedule_that_does_not_ascend(schedule):
    # the last run is kept as the strongest-penalty one
    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1)
    cone = ConeSpec.from_base(np.zeros(3), 0.3, 0.0, 0.1)
    with pytest.raises(ValueError, match="penalties must be non-empty and "
                       r"strictly ascend, got \("):
        penalization_sweep(schedule, _never_sampled(), cfg, cone)


@pytest.mark.parametrize("center, base_radius, height, message", [
    # the slice at T_end = 0.2 has radius 0.03, within 2 h = 0.0417
    ((0.0, 0.0, 0.0), 0.23, 0.2,
     r"in-cone slice at t = 0\.2 is empty: the cone's slice there has "
     r"radius 0\.03, not more than the 2 h = 0\.0416667"),
    # radius 0.05 > 2 h, but no cell centre lies within 0.0083 of the apex's
    # x, the slice's centre
    ((0.3, 0.3, 0.0), 0.25, 0.1,
     r"no cell centre lies in the in-cone slice at T_end = 0\.2: the cone's "
     r"slice there has radius 0\.05, less 2 h = 0\.0416667"),
], ids=["within-the-margin", "between-the-cells"])
def test_sweep_refuses_an_empty_incone_slice(center, base_radius, height,
                                             message):
    # pair distances over no cells would read 0.0
    cfg = SolverConfig(box_half_width=0.75, h=1 / 48, T_end=0.2)
    cone = ConeSpec.from_base(np.array(center), base_radius, 0.0, height)
    with pytest.raises(ValueError, match=message):
        penalization_sweep((8.0, 16.0), _never_sampled(), cfg, cone)


@pytest.mark.parametrize("shape", [(17, 5, 9), (24, 24, 24)])
def test_constraint_violation_is_the_textbook_sum(shape):
    # the squared components are added in order into one (N, N, N) array,
    # bit for bit as the sum over the (N, N, N, 3) squares
    u = np.random.default_rng(5).normal(0.0, 1.5, shape + (3,))
    cfg = SolverConfig(box_half_width=0.5, h=1 / 8, T_end=0.1)
    want = np.sum(u**2, axis=-1) - 1.0
    flat = want.reshape(-1)
    assert constraint_violation(u, cfg) \
        == float(np.einsum("n,n->", flat, flat)) * cfg.h**3
    c = np.empty(shape)
    assert np.array_equal(solver._constraint(u, c, np.empty(shape)), want)


def test_constraint_violation_zero_on_sphere_data():
    params = MapParams(2.0, 0.6)
    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=0.1)
    u0, _ = solver._cauchy_data(BoostedHarmonicMap(params), cfg)
    assert constraint_violation(u0, cfg) <= 1e-20


def test_trusted_region_predicate():
    cfg = SolverConfig(box_half_width=0.75, h=1 / 32, T_end=0.2)
    trusted_region(cfg, ConeSpec.from_base(np.zeros(3), 0.5, 0.0, 0.2))
    with pytest.raises(ValueError):
        trusted_region(cfg, ConeSpec.from_base(np.zeros(3), 0.9, 0.0, 0.2))


def test_trusted_region_counts_the_base_time():
    # the base disk (radius 0.6 at s = 0.1) fits, but the domain of
    # dependence of its points reaches max|x| + s = 0.7, over the
    # 0.75 - 2 h = 0.6875 limit
    cfg = SolverConfig(box_half_width=0.75, h=1 / 32, T_end=0.2)
    with pytest.raises(ValueError):
        trusted_region(cfg, ConeSpec.from_base(np.zeros(3), 0.6, 0.1, 0.1))
