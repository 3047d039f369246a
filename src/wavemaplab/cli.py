"""Batch experiment drivers: closed-form point-charge table, cone energy
balances for the analytic boosted maps, the non-uniqueness and stationarity
demos, manufactured-identity convergence suites, and raw penalized solver
runs.

Each command reads an optional INI-style config (``key = value`` under
``[section]`` headers, unknown keys rejected), writes one JSON report plus
CSV side files into the output directory, and exits 0 iff every verdict in
the report passes.  Reports carry provenance (config hash, package version)
and an error estimate next to every quantitative claim.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .fields import (BoostedHarmonicMap, GridField, MapParams, _dot,
                     _slab_corners, s_lambda)
from .manufactured import (ComposedWithBoost, ConstantMap, GeodesicPlaneWave,
                           QuadraticNullField, TimeSquaredBump)
from .quadrature import (ProductRule, _disk_integral, energy_balance,
                         energy_on_disk)
from .solver import (SolverConfig, incone_slice, penalization_sweep, run,
                     run_to_file, trusted_region)
from .spacetime import ConeSpec, DiskSpec, LorentzBoost, SpacetimePoint
from .stress_energy import (BumpTest, comp_identity_check, recover_point_charge,
                            transformation_check)

# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ConeRequest:
    """One ``[cones]`` line, base disk and interval [s, t], kept as parsed so
    that ``ExperimentConfig`` compares and hashes; commands use ``build()``."""

    center: tuple
    base_radius: float
    s: float
    t: float

    def __post_init__(self):
        self.build()  # a malformed cone fails as the config loads

    def build(self) -> ConeSpec:
        # truncated at t itself: s + (t - s) can be one ulp off t
        apex = ConeSpec.from_base(np.asarray(self.center, dtype=float),
                                  self.base_radius, self.s, self.t - self.s).apex
        return ConeSpec(apex, self.s, self.t)


@dataclass(frozen=True)
class ExperimentConfig:
    """All experiment knobs; every field has a spec-level default."""

    name: str = "default"
    out_dir: str = "wavemaplab-out"
    lam: float = 2.0
    nu: float = 0.6
    lambdas: tuple = (1.0, 1.5, 2.0, 3.0)
    box_half_width: float = 0.75
    h: float = 1.0 / 64.0
    T_end: float = 0.2
    penalties: tuple = (8.0, 16.0, 32.0, 64.0)
    n_time: int = 16
    n_radial: int = 24
    n_polar: int = 16
    cones: tuple = (ConeRequest((0.0, 0.0, 0.0), 0.5, 0.0, 0.2),
                    ConeRequest((0.3, 0.3, 0.0), 0.25, 0.0, 0.1))

    def __post_init__(self):
        self.rule()  # a quadrature count below 1 fails as the config loads

    def refined(self, k: int) -> "ExperimentConfig":
        if k <= 1:
            return self
        return dataclasses.replace(self, h=self.h / k, n_time=self.n_time * k,
                                   n_radial=self.n_radial * k,
                                   n_polar=self.n_polar * k)

    @property
    def params(self) -> MapParams:
        return MapParams(self.lam, self.nu)

    def solver_config(self, penalty_n: float = 0.0) -> SolverConfig:
        return SolverConfig(box_half_width=self.box_half_width, h=self.h,
                            T_end=self.T_end, penalty_n=penalty_n)

    def rule(self) -> ProductRule:
        return ProductRule(self.n_time, self.n_radial, self.n_polar)


class ConfigError(ValueError):
    pass


def _parse_floats(text: str) -> tuple:
    values = tuple(float(tok) for tok in text.replace(";", ",").split(",")
                   if tok.strip())
    if not values:
        raise ConfigError(f"expected a list of numbers, got {text!r}")
    return values


def _parse_penalties(text: str) -> tuple:
    """A strictly ascending list: commands take the last as the strongest."""
    values = _parse_floats(text)
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ConfigError(f"penalties must strictly ascend, got {text!r}")
    return values


def _parse_cone(text: str) -> ConeRequest:
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 3:
        raise ConfigError(f"cone must be 'cx,cy,cz ; R ; s,t', got {text!r}")
    center = _parse_floats(parts[0])
    radius = float(parts[1])
    interval = _parse_floats(parts[2])
    if len(center) != 3:
        raise ConfigError(f"cone center must be a 3-vector, got {parts[0]!r}")
    if len(interval) != 2:
        raise ConfigError(f"cone interval must be 's,t', got {parts[2]!r}")
    return ConeRequest(center, radius, *interval)


# (section, key) -> (ExperimentConfig field, parser).  The [cones] section
# is free-form: each of its values is "cx,cy,cz ; R ; s,t".
_KEYS = {
    ("experiment", "name"): ("name", str),
    ("experiment", "out"): ("out_dir", str),
    ("map", "lam"): ("lam", float),
    ("map", "nu"): ("nu", float),
    ("map", "lambdas"): ("lambdas", _parse_floats),
    ("solver", "box_half_width"): ("box_half_width", float),
    ("solver", "h"): ("h", float),
    ("solver", "t_end"): ("T_end", float),
    ("solver", "penalties"): ("penalties", _parse_penalties),
    ("quadrature", "n_time"): ("n_time", int),
    ("quadrature", "n_radial"): ("n_radial", int),
    ("quadrature", "n_polar"): ("n_polar", int),
}
_SECTIONS = {section for section, _ in _KEYS} | {"cones"}


def load_config(path: str | None) -> tuple[ExperimentConfig, str]:
    """Parse the INI config; returns the config and the raw text it was
    hashed from (the defaults' repr when no file is given)."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg, repr(cfg)
    raw = Path(path).read_text()
    parser = configparser.ConfigParser()
    parser.read_string(raw)
    if parser.defaults():  # configparser would copy these into every section
        raise ConfigError("unknown config section [DEFAULT]")
    updates: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        if section == "cones":
            continue
        for key, value in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            name, parse = _KEYS[section, key]
            updates[name] = parse(value)
    if parser.has_section("cones"):
        cones = []
        for key, value in parser.items("cones"):
            try:
                cones.append(_parse_cone(value))
            except ValueError as exc:  # a malformed line, named by its key
                raise ConfigError(f"[cones] {key}: {exc}") from None
        if not cones:
            raise ConfigError("[cones] must list at least one cone")
        updates["cones"] = tuple(cones)
    return dataclasses.replace(cfg, **updates), raw


# ---------------------------------------------------------------------------
# reports


@dataclass
class Verdict:
    name: str
    value: float
    target: float
    tolerance: float
    passed: bool
    note: str = ""

    @staticmethod
    def close(name, value, target, tolerance, note="") -> "Verdict":
        return Verdict(name, float(value), float(target), float(tolerance),
                       bool(abs(value - target) <= tolerance), note)

    @staticmethod
    def at_most(name, value, bound, note="") -> "Verdict":
        return Verdict(name, float(value), 0.0, float(bound),
                       bool(value <= bound), note)

    @staticmethod
    def at_least(name, value, bound, note="") -> "Verdict":
        return Verdict(name, float(value), float(bound), 0.0,
                       bool(value >= bound), note)


@dataclass
class ExperimentReport:
    """JSON-serializable record of one command run: parameters, raw numbers
    with error estimates, and recomputable pass/fail verdicts."""

    command: str
    experiment: str
    provenance: dict
    parameters: dict
    results: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)

    def add(self, verdict: Verdict):
        self.verdicts.append(verdict)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> dict:
        return {**dataclasses.asdict(self), "all_passed": self.all_passed}

    def write(self, out_dir: Path) -> Path:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{self.command.replace('-', '_')}_report.json"
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True))
        return path


def _new_report(command: str, cfg: ExperimentConfig, raw: str,
                **params) -> ExperimentReport:
    return ExperimentReport(
        command=command, experiment=cfg.name,
        provenance={"config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
                    "version": __version__},
        parameters={"lam": cfg.lam, "nu": cfg.nu, "h": cfg.h,
                    "T_end": cfg.T_end, **params})


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def _balance_dict(rep) -> dict:
    return {"e_base": rep.e_base, "e_top": rep.e_top, "flux": rep.flux,
            "balance": rep.balance, "error_estimate": rep.error_estimate}


# ---------------------------------------------------------------------------
# physics helpers


def expected_defect(lam: float, nu: float, dt: float) -> float:
    """Magnitude of the crossing-cone energy defect of the boosted map,
    nu * |s(lam)| * (t - s) / 2: the moving point charge -s(lam)/2 deposits
    its time component nu * charge per unit crossing time (the boost Jacobian
    cancels the Lorentz factor)."""
    return nu * abs(s_lambda(lam)) / 2.0 * dt


def _crossing_interval(cone: ConeSpec, field: BoostedHarmonicMap):
    """Times in the cone's truncation at which the field's singular point
    sits strictly inside the cone slice; returns None when it never does."""
    taus = np.linspace(cone.t_min, cone.t_max, 65)
    line = np.array([field.singular_point(tau) for tau in taus])
    inside = np.linalg.norm(line - cone.apex.x, axis=1) < cone.radius(taus) - 1e-12
    if not np.any(inside):
        return None
    if not np.all(inside):
        return "partial"
    return (cone.t_min, cone.t_max)


def analytic_balance(cfg: ExperimentConfig, cone: ConeSpec,
                     params: MapParams):
    """BalanceReport of the closed-form boosted map on one cone, with the
    ``_crossing_interval`` of its singular line."""
    fld = BoostedHarmonicMap(params)
    return energy_balance(fld, cone, cfg.rule()), _crossing_interval(cone, fld)


def smoothing_tolerance(cfg: ExperimentConfig, cone: ConeSpec,
                        params: MapParams, penalty_n: float) -> float:
    """Discretization tolerance for cone balances of solver output: the
    analytic energy within two smoothing lengths (max of h and the penalty
    layer width 1/n) of the singular point at the base time; zero when the
    cone does not meet the singular line."""
    fld = BoostedHarmonicMap(params)
    if _crossing_interval(cone, fld) is None:
        return 0.0
    ell = max(cfg.h, 1.0 / penalty_n if penalty_n > 0 else 0.0)
    center = fld.singular_point(cone.t_min)
    return energy_on_disk(fld, DiskSpec(cone.t_min, center, 2.0 * ell),
                          cfg.rule())


# ---------------------------------------------------------------------------
# commands


def cmd_s_table(cfg: ExperimentConfig, raw: str, out: Path) -> ExperimentReport:
    report = _new_report("s-table", cfg, raw, lambdas=list(cfg.lambdas))
    rule = cfg.rule()
    test = BumpTest(np.zeros(3), 0.9)
    psi0 = test.value_at(np.zeros(3))
    rows = []
    for lam in cfg.lambdas:
        formula = s_lambda(lam)
        J = recover_point_charge(MapParams(lam), test, rule)
        quad = float(J[2] / psi0)
        # None (null in the report, empty in the CSV) where s(lam) = 0
        reldiff = abs(quad - formula) / abs(formula) if formula != 0.0 else None
        rows.append([lam, formula, quad, reldiff])
        if lam == 1.0:
            report.add(Verdict.at_most("charge_zero_lam1", abs(quad), 1e-6))
        else:
            # measured law: the distributional charge is -s(lam)/2 (the
            # pillbox of the 0-homogeneous map); see the report ratio column
            report.add(Verdict.close(f"charge_lam{lam:g}", quad, -formula / 2.0,
                                     0.01 * abs(formula) / 2.0,
                                     note="charge vs -s(lam)/2"))
        report.add(Verdict.at_most(f"axisymmetry_lam{lam:g}",
                                   float(np.max(np.abs(J[:2]))), 1e-8 * (1 + abs(formula))))
    _write_csv(out / "s_table.csv",
               ["lam", "s_formula", "s_quadrature", "rel_diff_vs_formula"], rows)
    report.results["table"] = [dict(zip(
        ["lam", "s_formula", "s_quadrature", "rel_diff_vs_formula"], r)) for r in rows]
    report.results["quadrature_over_formula"] = [
        r[2] / r[1] if r[1] != 0.0 else None for r in rows]
    return report


def cmd_cone_balance(cfg: ExperimentConfig, raw: str, out: Path) -> ExperimentReport:
    report = _new_report("cone-balance", cfg, raw)
    params = cfg.params
    rows = []
    for i, req in enumerate(cfg.cones):
        cone = req.build()
        rep, crossing = analytic_balance(cfg, cone, params)
        entry = {"cone": dataclasses.asdict(req), "crossing": str(crossing),
                 **_balance_dict(rep)}
        report.results[f"cone_{i}"] = entry
        rows.append([i, req.base_radius, req.s, req.t, str(crossing),
                     rep.balance, rep.error_estimate])
        if crossing == (cone.t_min, cone.t_max):
            target = expected_defect(params.lam, params.nu, cone.t_max - cone.t_min)
            report.add(Verdict.close(
                f"cone_{i}_defect_magnitude", abs(rep.balance), target,
                0.02 * target + rep.error_estimate,
                note=f"measured sign {np.sign(rep.balance):+.0f}"))
        elif crossing is None:
            report.add(Verdict.at_most(f"cone_{i}_conserved", abs(rep.balance),
                                       rep.error_estimate + 1e-10))
    _write_csv(out / "cone_balance.csv",
               ["cone", "base_radius", "s", "t", "crossing", "balance",
                "error_estimate"], rows)
    return report


def cmd_nonuniq_demo(cfg: ExperimentConfig, raw: str, out: Path) -> ExperimentReport:
    report = _new_report("nonuniq-demo", cfg, raw,
                         penalties=list(cfg.penalties))
    if len(cfg.penalties) < 2:
        raise ConfigError("nonuniq-demo compares penalties: it needs at least "
                          f"two, got {len(cfg.penalties)}")
    params = cfg.params
    cone = cfg.cones[0].build()
    solver_cfg = cfg.solver_config()
    inner = trusted_region(solver_cfg, cone)  # raises if it is untrusted

    # the final slab is read on the trusted cone alone: its box is stored
    sweep = penalization_sweep(cfg.penalties, BoostedHarmonicMap(params),
                               solver_cfg, cone, read_cones=[inner])
    slab = sweep.final_slab
    n_max = float(cfg.penalties[-1])

    _write_csv(out / "constraint_violation.csv",
               ["n"] + [f"t={t:g}" for t in sweep.sample_times],
               [[n, *sweep.violations[i]] for i, n in enumerate(sweep.penalties)])
    report.results["violations"] = sweep.violations.tolist()
    report.results["pair_distances"] = sweep.pair_distances.tolist()
    final = sweep.violation_final()
    report.add(Verdict.at_most("violation_monotone_decrease",
                               float(np.max(np.diff(final))), 0.0,
                               note="successive differences in n"))

    # (a) solver output: penalized balance ~ 0, unpenalized inequality >= -tol
    tol = smoothing_tolerance(cfg, inner, params, n_max)
    pen_rep = energy_balance(slab, inner, cfg.rule(), penalty_n=n_max)
    unpen_rep = pen_rep.unpenalized
    report.results["solver_penalized"] = _balance_dict(pen_rep)
    report.results["solver_unpenalized"] = _balance_dict(unpen_rep)
    report.results["smoothing_tolerance"] = tol
    report.add(Verdict.at_most("solver_penalized_balance", abs(pen_rep.balance),
                               tol + pen_rep.error_estimate))
    report.add(Verdict.at_least("solver_energy_inequality", unpen_rep.balance,
                                -(tol + unpen_rep.error_estimate)))

    # (b) the analytic boosted map on the same cone: nonzero defect
    ana_rep, crossing = analytic_balance(cfg, cone, params)
    report.results["analytic"] = {**_balance_dict(ana_rep),
                                  "crossing": str(crossing)}
    if params.lam != 1.0 and crossing == (cone.t_min, cone.t_max):
        target = expected_defect(params.lam, params.nu, cone.t_max - cone.t_min)
        report.results["defect_expected"] = target
        report.results["defect_quoted_target"] = 2.0 * params.theta * target
        report.add(Verdict.close("analytic_defect_magnitude",
                                 abs(ana_rep.balance), target,
                                 0.02 * target + ana_rep.error_estimate))
    else:
        report.add(Verdict.at_most("analytic_conserved", abs(ana_rep.balance),
                                   ana_rep.error_estimate + max(tol, 1e-10)))

    # in-cone L2 distance solver vs analytic at the top of the inner cone
    dist, disc_est = _incone_distance(cfg, slab, params, inner)
    report.results["incone_l2_distance"] = dist
    report.results["incone_l2_estimate"] = disc_est
    if params.lam != 1.0:
        report.add(Verdict.at_least("solutions_distinct", dist, 10.0 * disc_est))
    else:
        report.add(Verdict.at_most("solutions_coincide", dist, 10.0 * disc_est))
    return report


def _incone_distance(cfg: ExperimentConfig, slab: GridField, params: MapParams,
                     cone: ConeSpec):
    """L2 distance between solver output and the analytic map over the
    ``incone_slice`` at t_max, with a discretization estimate: the same
    distance for the analytic map's own grid sampling (interpolation error
    plus the h-scale core the grid cannot carry), sampled block by block at
    only the solver cell centres that the block's nodes read."""
    scfg = cfg.solver_config()
    disk = incone_slice(scfg, cone, cone.t_max)
    fld = BoostedHarmonicMap(params)
    levels = np.array([disk.time - cfg.h, disk.time, disk.time + cfg.h])
    c = scfg.cell_centers_1d()
    shape = (3, len(c), len(c), len(c))

    def density(ts, xs):
        u_vals = slab.jets_at(ts, xs)[0]
        a_vals = fld.jets_at(ts, xs)[0]
        _, rows, weights = _slab_corners(shape, levels[0], cfg.h, scfg.origin,
                                         cfg.h, ts, xs)
        used, inverse = np.unique(rows, return_inverse=True)
        level, *cell = np.unravel_index(used, shape)
        samples = fld.jets_at(levels[level], c[np.stack(cell, axis=1)])[0]
        i_vals = _dot(weights, samples[inverse.reshape(rows.shape)])
        return [np.sum((u_vals - a_vals)**2, axis=1),
                np.sum((i_vals - a_vals)**2, axis=1)]

    dist, est = _disk_integral(disk, cfg.rule(), density, fld)
    return float(np.sqrt(dist)), float(np.sqrt(est))


def cmd_stationary_demo(cfg: ExperimentConfig, raw: str, out: Path) -> ExperimentReport:
    report = _new_report("stationary-demo", cfg, raw)
    params = cfg.params
    solver_cfg = cfg.solver_config(penalty_n=float(cfg.penalties[-1]))
    rng = np.random.default_rng(20240801)
    (ext_ts, ext_xs), (int_ts, int_xs) = _demo_samples(cfg, params, rng)
    slab, _ = run(solver_cfg, BoostedHarmonicMap(params))

    # pull the solver output back through the inverse boost and compare with
    # the stationary map
    pulled = ComposedWithBoost(slab, LorentzBoost(-params.nu).matrix)
    stationary = BoostedHarmonicMap(MapParams(params.lam, 0.0))

    u_ext = pulled.jets_at(ext_ts, ext_xs)[0]
    v_ext = stationary.jets_at(ext_ts, ext_xs)[0]
    mismatch = float(np.sqrt(np.mean(np.sum((u_ext - v_ext)**2, axis=1))))

    dt_int = pulled.jets_at(int_ts, int_xs)[1]
    time_energy = float(np.sqrt(np.mean(np.sum(dt_int**2, axis=1))))

    report.results["exterior_rms_mismatch"] = mismatch
    report.results["interior_time_derivative_rms"] = time_energy
    if params.lam == 1.0:
        report.add(Verdict.at_most("agreement_everywhere", mismatch, 5.0 * cfg.h))
        report.add(Verdict.at_most("stationary_inside", time_energy, 5.0))
    else:
        report.add(Verdict.at_most("exterior_agreement", mismatch, 5.0 * cfg.h,
                                   note="rms over exterior-of-K samples"))
        report.add(Verdict.at_least("interior_time_dependence", time_energy,
                                    10.0 * mismatch))
    return report


# Rejection-sampling draws allowed for each of stationary-demo's two sample
# sets; the default config and criterion 7's grids take 252 in all.
_DEMO_DRAWS = 10_000


def _demo_samples(cfg: ExperimentConfig, params: MapParams, rng):
    """Sample points outside / inside the light cone through the origin whose
    boosted images stay inside the solver slab and trusted region.  Reads
    only the config, so a config that leaves no room fails before the run.

    Exterior samples use a per-point evaluation time chosen so the boosted
    image sits mid-slab, which frees them to lie well away from the
    singularity; interior samples share a fixed time."""
    th, nu = params.theta, params.nu
    t_img = cfg.T_end / 2.0  # target time of the boosted image
    limit = cfg.box_half_width - 3.0 * cfg.h
    t_int = cfg.T_end * 0.4
    x3_max = min(t_int, (cfg.T_end / th - t_int)) / max(nu, 1e-12)
    r_in = min(t_int * 0.4, x3_max)
    if not r_in > 0.0:
        raise ConfigError(
            f"stationary-demo needs nu < 0.9165, got {nu:g}: its interior "
            "samples sit at t = 0.4 T_end, past the T_end / theta = "
            f"{cfg.T_end / th:g} that the boosted slab reaches")

    def exterior():
        x = rng.uniform(-0.35, 0.35, size=3)
        r = np.linalg.norm(x)
        t = t_img / th - nu * x[2]
        if not (0.15 <= r <= 0.35 and r >= abs(t) + 0.05):
            return None
        img = np.array([x[0], x[1], th * (x[2] + nu * t)])
        if np.max(np.abs(img)) + t_img > limit:
            return None
        return t, x

    def interior():
        x = rng.uniform(-r_in, r_in, size=3)
        return x if np.linalg.norm(x) <= r_in else None

    ext_ts, ext_xs = zip(*_draw_samples(
        exterior, f"exterior samples; a box of half-width "
        f"{cfg.box_half_width:g} leaves too little room for their boosted "
        f"images, which must stay 3 h + T_end / 2 = {3.0 * cfg.h + t_img:g} "
        "inside its faces"))
    int_xs = _draw_samples(interior, "interior samples")
    int_ts = np.full(len(int_xs), t_int)
    return ((np.asarray(ext_ts), np.asarray(ext_xs)),
            (int_ts, np.asarray(int_xs)))


def _draw_samples(draw, what: str) -> list:
    """64 points from ``draw``, which returns a point or None, in at most
    ``_DEMO_DRAWS`` calls."""
    points = []
    for _ in range(_DEMO_DRAWS):
        point = draw()
        if point is not None:
            points.append(point)
            if len(points) == 64:
                return points
    raise ConfigError(f"stationary-demo drew {_DEMO_DRAWS} points and found "
                      f"{len(points)} of the 64 {what}")


def cmd_identity_checks(cfg: ExperimentConfig, raw: str, out: Path) -> ExperimentReport:
    report = _new_report("identity-checks", cfg, raw)
    boost = LorentzBoost(cfg.nu)
    pt = SpacetimePoint(0.07, np.array([0.11, -0.05, 0.08]))

    suites = {
        "polynomial": QuadraticNullField(),
        "plane_wave": GeodesicPlaneWave(np.array([1.0, 0.5, -0.25])),
        "time_bump": TimeSquaredBump(center=(0.0, 0.0, 0.0), scale=1.5),
    }
    hs = (4e-2, 2e-2, 1e-2)
    rows = []
    for name, fld in suites.items():
        errs = []
        for h in hs:
            lhs, rhs = transformation_check(fld, boost, pt, h)
            errs.append(float(np.max(np.abs(lhs - rhs))) + 1e-300)
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        observed = float(np.max(orders)) if np.max(errs) > 1e-12 else 2.0
        rows.append([name, *errs, observed])
        report.results[f"transformation_{name}"] = {
            "errors": errs, "observed_order": observed}
        report.add(Verdict.at_least(f"transformation_order_{name}", observed, 1.9))
    _write_csv(out / "transformation_orders.csv",
               ["suite", *(f"err_h={h:g}" for h in hs), "observed_order"], rows)

    # cone identity: exact-zero and refinement cases
    zero = comp_identity_check(GeodesicPlaneWave(np.array([1.0, 0.0, 0.0])),
                               ConstantMap((0.0, 0.0, 0.0)), 1.0, 0.5,
                               cfg.rule())
    report.results["identity_zero"] = dataclasses.asdict(zero)
    report.add(Verdict.at_most("identity_w_zero_exact",
                               abs(zero.lhs) + abs(zero.rhs), 1e-12))

    u = TimeSquaredBump(scale=1.2, direction=(1.0, 0.0, 0.0))
    w = TimeSquaredBump(center=(0.2, 0.0, 0.0), scale=0.9,
                        direction=(1.0, 1.0, 0.0))
    res = []
    rule = ProductRule(max(4, cfg.n_time // 4), max(6, cfg.n_radial // 4),
                       max(4, cfg.n_polar // 4))
    for _ in range(3):
        r = comp_identity_check(u, w, 1.0, 0.5, rule)
        res.append(abs(r.lhs - r.rhs) + 1e-300)
        rule = rule.refine()
    order = float(np.log2(res[0] / res[-1]) / 2.0) if res[0] > 1e-13 else 2.0
    report.results["identity_refinement"] = {"residuals": res,
                                             "observed_order": order}
    report.add(Verdict.at_least("identity_order", order, 1.9))
    return report


def cmd_penalized_run(cfg: ExperimentConfig, raw: str, out: Path) -> ExperimentReport:
    n = float(cfg.penalties[-1])
    report = _new_report("penalized-run", cfg, raw, penalty_n=n)
    solver_cfg = cfg.solver_config(penalty_n=n)
    ledger = run_to_file(solver_cfg, BoostedHarmonicMap(cfg.params),
                         out / "penalized_run.npz")
    _write_csv(out / "penalized_run_ledger.csv",
               ["step", "time", "kinetic", "gradient", "penalty", "total"],
               [(*row, row[2] + row[3] + row[4]) for row in ledger.rows])
    totals = ledger.totals()
    pen = np.asarray(ledger.rows, dtype=float)[:, 4]
    report.results["total_energy_initial"] = float(totals[0])
    report.results["total_energy_final"] = float(totals[-1])
    report.results["relative_drift"] = ledger.relative_drift()
    report.results["stored_levels"] = solver_cfg.n_levels
    report.add(Verdict.at_most("penalty_term_bounded", float(np.max(pen)),
                               pen[0] + 1e-3 * abs(totals[0]) + totals[0]))
    report.add(Verdict.at_most("energy_drift", ledger.relative_drift(), 1e-2,
                               note="clamped boundary, singular data"))
    return report


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "s-table": cmd_s_table,
    "cone-balance": cmd_cone_balance,
    "nonuniq-demo": cmd_nonuniq_demo,
    "stationary-demo": cmd_stationary_demo,
    "identity-checks": cmd_identity_checks,
    "penalized-run": cmd_penalized_run,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavemaplab",
        description="Energy-accounting experiments for weak wave maps")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="INI config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--refine", type=int, default=1,
                        help="global refinement multiplier")
    args = parser.parse_args(argv)
    if args.refine < 1:
        print(f"--refine must be at least 1, got {args.refine}",
              file=sys.stderr)
        return 2

    try:
        cfg, raw = load_config(args.config)
    except (ConfigError, configparser.Error, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    cfg = cfg.refined(args.refine)
    out = Path(args.out if args.out is not None else cfg.out_dir)
    # checked, not created: a command that fails leaves no directory behind
    existing = next((p for p in (out, *out.parents) if p.exists()), out)
    if not existing.is_dir():
        print(f"output error: {existing} is not a directory", file=sys.stderr)
        return 2

    try:
        report = _COMMANDS[args.command](cfg, raw, out)
        path = report.write(out)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"[{status}] {v.name}: value={v.value:.6g} target={v.target:.6g} "
              f"tol={v.tolerance:.3g} {v.note}")
    print(f"report: {path}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
