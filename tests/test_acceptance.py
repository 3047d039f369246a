"""End-to-end acceptance criteria for the package.

Each test prints exactly one ``ACCEPTANCE k [...]: PASS/FAIL`` line (visible
with ``pytest -s``; on failure the line is also the assertion message) and
covers one criterion at its stated tolerances.  Criteria 1, 2 and the defect
clause of 6 assert quoted reference constants; the measured values disagree
with those constants by exact factors (-1/2 for the point charge, 1/(2*Theta)
for the crossing-cone defect) that are reproduced by several independent
methods, so those assertions fail honestly — see the failure detail and
``NOTES.md``, which derives both factors.  All remaining criteria pass.
"""

import dataclasses
import time

import numpy as np
import pytest

from wavemaplab.cli import (ExperimentConfig, cmd_identity_checks,
                            cmd_stationary_demo, expected_defect,
                            smoothing_tolerance, _incone_distance)
from wavemaplab.fields import BoostedHarmonicMap, MapParams, s_lambda
from wavemaplab.manufactured import ConstantMap, GeodesicPlaneWave
from wavemaplab.quadrature import (ProductRule, energy_balance, energy_on_disk,
                                   flux_on_cone)
from wavemaplab.solver import (SolverConfig, penalization_sweep, run,
                               trusted_region)
from wavemaplab.spacetime import ConeSpec, DiskSpec, SpacetimePoint
from wavemaplab.stress_energy import (BumpTest, recover_point_charge,
                                      weak_residual)

FLOOR = 1e-12  # quadrature floating-point floor for refinement sequences


def _report(num, title, clauses):
    ok = all(c[1] for c in clauses)
    detail = "; ".join(f"{name}: {'ok' if good else 'FAILED'} ({info})"
                       for name, good, info in clauses)
    line = f"ACCEPTANCE {num} [{title}]: {'PASS' if ok else 'FAIL'} -- {detail}"
    print("\n" + line)
    assert ok, line


def _orders(errs):
    errs = np.asarray(errs, dtype=float)
    return np.log2(errs[:-1] / np.maximum(errs[1:], 1e-300))


def _observed_order(errs):
    """Minimum observed order over the pairs that sit above the floating-
    point floor; infinite when the whole sequence is already converged."""
    pairs = [(a, b) for a, b in zip(errs[:-1], errs[1:]) if a > FLOOR]
    if not pairs:
        return float("inf")
    return min(np.log2(a / max(b, 1e-300)) for a, b in pairs)


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="module")
def default_sweep_analysis():
    """Penalization sweep at default parameters plus the cone balances of the
    strongest-penalty run; shared by criteria 5 and 6."""
    cfg = ExperimentConfig()
    params = cfg.params
    cone0 = cfg.cones[0].build()
    sweep = penalization_sweep(cfg.penalties, BoostedHarmonicMap(params),
                               cfg.solver_config(), cone0)
    n_max = float(cfg.penalties[-1])
    cones = {}
    for i, req in enumerate(cfg.cones):
        inner = trusted_region(cfg.solver_config(), req.build())
        pen = energy_balance(sweep.final_slab, inner, cfg.rule(),
                             penalty_n=n_max)
        unp = pen.unpenalized
        smoothing = smoothing_tolerance(cfg, inner, params, n_max)
        # combined tolerance: unresolved-core energy + quadrature error +
        # trilinear/linear-time interpolation allowance O(h^2) * energy scale
        tol = smoothing + 4.0 * cfg.h**2 * unp.e_base
        cones[i] = {"inner": inner, "pen": pen, "unp": unp, "tol": tol}
    return {"cfg": cfg, "sweep": sweep, "cones": cones}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_point_charge_table():
    t0 = time.time()
    test = BumpTest(np.zeros(3), 0.9)
    psi0 = test.value_at(np.zeros(3))
    rule = ProductRule(16, 24, 16)
    targets = {1.5: -6.648, 2.0: -10.9166, 3.0: s_lambda(3.0)}
    clauses = []
    quad1 = float(recover_point_charge(MapParams(1.0), test, rule)[2] / psi0)
    clauses.append(("lam=1 charge zero", abs(quad1) <= 1e-6,
                    f"|charge|={abs(quad1):.2e}"))
    for lam, formula in targets.items():
        quad = float(recover_point_charge(MapParams(lam), test, rule)[2] / psi0)
        rel = abs(quad - formula) / abs(formula)
        clauses.append((f"lam={lam:g} within 1% of quoted {formula:.4f}",
                        rel <= 0.01,
                        f"quadrature={quad:.5f}, rel diff {rel:.3f}, "
                        f"ratio {quad / formula:+.4f}"))
    clauses.append(("runtime <= 60 s", time.time() - t0 <= 60.0,
                    f"{time.time() - t0:.1f} s"))
    _report(1, "point-charge recovery vs quoted formula values", clauses)


def test_criterion_2_crossing_cone_defect():
    t0 = time.time()
    lam, nu = 2.0, 0.6
    fld = BoostedHarmonicMap(MapParams(lam, nu))
    cone = ConeSpec.from_base(np.zeros(3), 0.5, 0.0, 0.2)
    rep = energy_balance(fld, cone, ProductRule(16, 24, 16))
    target = 1.6375
    tol = 0.02 * target + rep.error_estimate
    clauses = [(f"crossing |balance| within 2% of quoted {target}",
                abs(abs(rep.balance) - target) <= tol,
                f"|balance|={abs(rep.balance):.5f}+-{rep.error_estimate:.1e}, "
                f"sign {np.sign(rep.balance):+.0f}, "
                f"quoted/measured={target / abs(rep.balance):.3f}")]
    ctrl = ConeSpec.from_base(np.array([0.3, 0.3, 0.0]), 0.25, 0.0, 0.1)
    crep = energy_balance(fld, ctrl, ProductRule(16, 24, 16))
    clauses.append(("non-crossing |balance| <= error estimate",
                    abs(crep.balance) <= crep.error_estimate,
                    f"|balance|={abs(crep.balance):.1e} vs "
                    f"{crep.error_estimate:.1e}"))
    clauses.append(("runtime <= 300 s", time.time() - t0 <= 300.0,
                    f"{time.time() - t0:.1f} s"))
    _report(2, "crossing-cone energy defect of the boosted map", clauses)


def test_criterion_3_smooth_conservation():
    pw = GeodesicPlaneWave(np.array([3.0, 2.0, 1.0]))
    rng = np.random.default_rng(11)
    clauses = []
    for trial in range(3):
        c = rng.uniform(-0.2, 0.2, 3)
        R = rng.uniform(0.3, 0.5)
        T = 0.5 * R
        cone = ConeSpec.from_base(c, R, 0.0, T)
        errs = []
        rule = ProductRule(4, 4, 4)
        for _ in range(3):
            eb = energy_on_disk(pw, DiskSpec(0.0, c, R), rule)
            et = energy_on_disk(pw, DiskSpec(T, c, R - T), rule)
            fl = flux_on_cone(pw, cone, rule)
            errs.append(abs(eb - et - fl))
            rule = rule.refine()
        order = _observed_order(errs)
        clauses.append((f"cone {trial} order >= 1.9", order >= 1.9,
                        "balances "
                        + "/".join(f"{e:.1e}" for e in errs)
                        + (" (at fp floor)" if order == float("inf")
                           else f", order {order:.2f}")))
    _report(3, "plane-wave conservation under quadrature refinement", clauses)


def test_criterion_4_solver_verification():
    pw = GeodesicPlaneWave(np.array([2.0 * np.pi, 0.0, 0.0]))
    errs = []
    T = 0.5
    for h in (1 / 8, 1 / 16, 1 / 32):
        cfg = SolverConfig(box_half_width=0.5, h=h, T_end=T,
                           boundary="periodic")
        slab, _ = run(cfg, pw)
        c = cfg.cell_centers_1d()
        X, Y, Z = np.meshgrid(c, c, c, indexing="ij")
        xs = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        exact = pw.jets_at(np.full(len(xs), T), xs)[0]
        errs.append(float(np.max(np.abs(slab.data[-1].reshape(-1, 3) - exact))))
    orders = _orders(errs)
    clauses = [("L-inf order >= 1.9 under (h, dt) -> (h/2, dt/2)",
                float(np.min(orders)) >= 1.9,
                "errors " + "/".join(f"{e:.2e}" for e in errs)
                + ", orders " + "/".join(f"{o:.2f}" for o in orders))]
    cfg = SolverConfig(box_half_width=0.5, h=1 / 16, T_end=1.0,
                       boundary="periodic")
    _, ledger = run(cfg, pw)
    drift = ledger.relative_drift()
    clauses.append(("energy drift <= 1e-3 over T_end = 1", drift <= 1e-3,
                    f"drift {drift:.2e}"))
    _report(4, "leapfrog solver vs exact plane wave", clauses)


def test_criterion_5_penalization_properties(default_sweep_analysis):
    a = default_sweep_analysis
    sweep = a["sweep"]
    final = sweep.violation_final()
    clauses = [("constraint violation decreasing in n at t = 0.2",
                bool(np.all(np.diff(final) < 0.0)),
                "/".join(f"{v:.2e}" for v in final))]
    for i, c in a["cones"].items():
        pen, unp, tol = c["pen"], c["unp"], c["tol"]
        clauses.append((f"cone {i} penalized |balance| <= combined tolerance",
                        abs(pen.balance) <= tol + pen.error_estimate,
                        f"|balance|={abs(pen.balance):.4f} vs "
                        f"{tol + pen.error_estimate:.4f}"))
        clauses.append((f"cone {i} unpenalized balance >= -tol",
                        unp.balance >= -(tol + unp.error_estimate),
                        f"balance={unp.balance:+.4f}, tol {tol:.4f}"))
    _report(5, "penalization trends and local energy inequality", clauses)


def test_criterion_6_nonuniqueness_demo(default_sweep_analysis):
    t0 = time.time()
    a = default_sweep_analysis
    cfg = a["cfg"]
    params = cfg.params
    req = cfg.cones[0]
    cone = req.build()
    c0 = a["cones"][0]
    clauses = [("solver solution satisfies the inequality within tolerance",
                c0["unp"].balance >= -(c0["tol"] + c0["unp"].error_estimate),
                f"balance={c0['unp'].balance:+.4f}, tol {c0['tol']:.4f}")]

    ana = energy_balance(BoostedHarmonicMap(params), cone, cfg.rule())
    target = 1.6375
    clauses.append((f"analytic defect within 2% of quoted {target}",
                    abs(abs(ana.balance) - target)
                    <= 0.02 * target + ana.error_estimate,
                    f"|balance|={abs(ana.balance):.5f}, measured law gives "
                    f"{expected_defect(params.lam, params.nu, req.t - req.s):.5f}"))

    dist, est = _incone_distance(cfg, a["sweep"].final_slab, params,
                                 c0["inner"])
    clauses.append(("in-cone L2 distance > 10x discretization estimate",
                    dist >= 10.0 * est, f"dist={dist:.4f}, est={est:.4f}"))

    # one refinement step of the strongest-penalty run (grid 1/64 -> 1/80;
    # explicit composite step count keeps the stored slab small)
    fine = dataclasses.replace(cfg, h=1.0 / 80.0)
    fine_scfg = dataclasses.replace(fine.solver_config(penalty_n=64.0),
                                    dt=fine.T_end / 60.0, store_stride=12)
    fine_slab, _ = run(fine_scfg, BoostedHarmonicMap(params))
    fine_dist, fine_est = _incone_distance(fine, fine_slab, params,
                                           c0["inner"])
    clauses.append(("distance does not shrink under refinement",
                    fine_dist >= 0.8 * dist and fine_dist >= 10.0 * fine_est,
                    f"refined dist={fine_dist:.4f} (est {fine_est:.4f})"))
    clauses.append(("runtime <= 900 s", time.time() - t0 <= 900.0,
                    f"{time.time() - t0:.1f} s"))
    _report(6, "non-uniqueness: penalization limit vs boosted map", clauses)


def test_criterion_7_stationary_vs_nonstationary(tmp_path):
    # refinement of the penalized scheme refines the grid and the penalty
    # layer together: (h, 1/n) -> (h/2, 1/(2n))
    mismatches = []
    interior = None
    for h, n in ((1 / 16, 16.0), (1 / 32, 32.0), (1 / 64, 64.0)):
        cfg = ExperimentConfig(h=h, penalties=(n,))
        rep = cmd_stationary_demo(cfg, repr(cfg), tmp_path)
        mismatches.append(rep.results["exterior_rms_mismatch"])
        interior = rep.results["interior_time_derivative_rms"]
    orders = _orders(mismatches)
    clauses = [("exterior mismatch order >= 0.9 under refinement",
                float(np.min(orders)) >= 0.9,
                "mismatch " + "/".join(f"{m:.4f}" for m in mismatches)
                + ", orders " + "/".join(f"{o:.2f}" for o in orders)),
               ("interior time-derivative energy > 10x exterior mismatch",
                interior >= 10.0 * mismatches[-1],
                f"interior {interior:.3f} vs exterior {mismatches[-1]:.4f}")]
    _report(7, "pulled-back solver output vs stationary map", clauses)


def test_criterion_8_identity_suites(tmp_path):
    cfg = ExperimentConfig()
    rep = cmd_identity_checks(cfg, repr(cfg), tmp_path)
    clauses = [(v.name, v.passed,
                f"value {v.value:.3g} vs bound {max(v.target, v.tolerance):.3g}")
               for v in rep.verdicts]
    _report(8, "stress-transformation and cone-identity suites", clauses)


def test_criterion_9_weak_residual():
    clauses = []
    res0 = weak_residual(ConstantMap(),
                         BumpTest(SpacetimePoint(0.0, np.zeros(3)), 0.5),
                         ProductRule(4, 4, 4))
    clauses.append(("constant map residual <= 1e-12",
                    float(np.max(np.abs(res0))) <= 1e-12,
                    f"{np.max(np.abs(res0)):.1e}"))
    phi = BoostedHarmonicMap(MapParams(2.0, 0.6))
    bumps = [BumpTest(SpacetimePoint(0.1, np.array([0.25, 0.0, 0.0])), 0.15),
             BumpTest(SpacetimePoint(0.05, np.array([-0.1, 0.2, 0.1])), 0.12)]
    for k, bump in enumerate(bumps):
        rule = ProductRule(6, 6, 6)
        res = []
        for _ in range(3):
            res.append(float(np.linalg.norm(weak_residual(phi, bump, rule))))
            rule = rule.refine()
        order = _observed_order(res)
        clauses.append((f"bump {k} residual decreasing at quadrature order",
                        order >= 2.0,
                        "residuals " + "/".join(f"{r:.1e}" for r in res)))
    _report(9, "weak-equation residual of the boosted map", clauses)
