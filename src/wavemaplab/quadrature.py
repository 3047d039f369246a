"""Quadrature over balls and lateral cone surfaces, and the energy-balance
report that decides whether the local energy inequality holds.

One resolution, ``ProductRule(n_time, n_radial, n_polar)``, sizes the disks
and the cone's side; ``_cone_slices`` builds the side's time slices.  Every
Gauss-Legendre rule on an interval comes from ``_gauss``; only the sphere's
cos(theta) rule stays on its native [-1, 1].

The energy, flux and flux-form densities are batch forms on jets
(dts (N, 3), grads (N, 3, 3)), one value per row; the disks, the cone's side
and the cone identity of ``stress_energy`` all integrate these.

Lateral surface measure: parametrizing the side by (tau, omega) with
x = p + r(tau) omega and |r'| = 1, the pullback metric gives
dsigma = sqrt(2) r(tau)^2 dtau dOmega.  Combined with the 1/(2 sqrt 2) flux
normalization this makes the flux equal to
(1/2) int int |grad u - omega (x) u_t|^2 r(tau)^2 dOmega dtau, so the flux
forms are normalized per r^2 dtau dOmega: ``flux_density`` is
(1/2) |grad u - n (x) u_t|^2 and ``flux_form_Q`` its bilinear form.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import fields
from .fields import FieldEvaluator
from .manufactured import bump_profile
from .spacetime import ConeSpec, DiskSpec


def _gauss(n: int, a: float, b: float):
    """The n-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return a + 0.5 * (b - a) * (x + 1.0), 0.5 * (b - a) * w


class SphereRule:
    """Product rule on the unit sphere: Gauss-Legendre in cos(theta) times a
    uniform (trapezoid) rule in the azimuth; weights sum to 4 pi."""

    def __init__(self, n_polar: int):
        self.n_polar = int(n_polar)
        self.nodes, self.weights = self._build(self.n_polar)

    @staticmethod
    @functools.cache
    def _build(n_polar: int):
        mu, wmu = np.polynomial.legendre.leggauss(n_polar)
        n_az = 2 * n_polar
        phi = 2.0 * np.pi * (np.arange(n_az) + 0.5) / n_az
        st = np.sqrt(1.0 - mu**2)
        nodes = np.empty((n_polar * n_az, 3))
        weights = np.empty(n_polar * n_az)
        for i in range(n_polar):
            sl = slice(i * n_az, (i + 1) * n_az)
            nodes[sl, 0] = st[i] * np.cos(phi)
            nodes[sl, 1] = st[i] * np.sin(phi)
            nodes[sl, 2] = mu[i]
            weights[sl] = wmu[i] * 2.0 * np.pi / n_az
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return nodes, weights


@dataclass(frozen=True)
class ProductRule:
    """The quadrature resolution of one truncated cone: Gauss-Legendre nodes
    in time along its side, Gauss-Legendre radial nodes in its disks, and a
    sphere rule for the angles of both.  Each count is an integer >= 1."""

    n_time: int
    n_radial: int
    n_polar: int

    def __post_init__(self):
        for name in ("n_time", "n_radial", "n_polar"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value}")

    def refine(self) -> "ProductRule":
        return ProductRule(2 * self.n_time, 2 * self.n_radial, 2 * self.n_polar)

    @property
    def sphere(self) -> SphereRule:
        return SphereRule(self.n_polar)


@dataclass(frozen=True)
class BalanceReport:
    """E(base) - E(top) - Flux with a two-level quadrature error estimate.

    A penalized report may carry ``unpenalized``: the same balance on the same
    nodes with the penalty terms dropped, i.e. the local energy inequality."""

    e_base: float
    e_top: float
    flux: float
    balance: float
    error_estimate: float
    unpenalized: BalanceReport | None = None

    @staticmethod
    def build(e_base, e_top, flux, error_estimate) -> "BalanceReport":
        return BalanceReport(e_base, e_top, flux, e_base - e_top - flux,
                             error_estimate)


def _penalty_density(values: np.ndarray, n: float) -> np.ndarray:
    return n**2 * 0.25 * (np.sum(values**2, axis=1) - 1.0)**2


def energy_form(u_dts, u_grads, w_dts, w_grads) -> np.ndarray:
    """Du . Dw per row: the Euclidean dot over all four partials and the
    three target components."""
    return np.sum(u_dts * w_dts, axis=1) + np.sum(u_grads * w_grads, axis=(1, 2))


def energy_density(dts, grads) -> np.ndarray:
    """(1/2) (|u_t|^2 + |grad u|^2) per row."""
    return 0.5 * energy_form(dts, grads, dts, grads)


def flux_form_Q(u_dts, u_grads, w_dts, w_grads, normals) -> np.ndarray:
    """(grad u - n (x) u_t) : (grad w - n (x) w_t) per row, n the row's unit
    spatial direction from ``normals`` (N, 3); per r^2 dtau dOmega of a cone's
    side, so Q(u, u) = 2 * flux_density(u)."""
    pu = u_grads - normals[:, :, None] * u_dts[:, None, :]
    pw = w_grads - normals[:, :, None] * w_dts[:, None, :]
    return np.sum(pu * pw, axis=(1, 2))


def flux_density(dts, grads, normals) -> np.ndarray:
    """(1/2) |grad u - n (x) u_t|^2 per row, per r^2 dtau dOmega."""
    return 0.5 * flux_form_Q(dts, grads, dts, grads, normals)


def _disk_nodes(disk: DiskSpec, rule: ProductRule, singular_center=None):
    """Quadrature nodes and weights (including the r^2 factor) for a ball.

    If a singular point inside the ball is supplied, spherical coordinates are
    taken about it, with the angle-dependent outer radius reaching the ball
    boundary; the radial direction then absorbs the 1/r^2 density blow-up.
    Radial nodes: ``_gauss`` on [0, 1], scaled to each direction's radius.
    """
    u, wu = _gauss(rule.n_radial, 0.0, 1.0)
    sph = rule.sphere
    if singular_center is None:
        c = np.asarray(disk.center, dtype=float)
        rmax = np.full(len(sph.nodes), disk.radius)
    else:
        c = np.asarray(singular_center, dtype=float)
        off = c - np.asarray(disk.center, dtype=float)
        if np.linalg.norm(off) >= disk.radius:
            raise ValueError("singular point outside the disk")
        proj = fields._dot(off, sph.nodes.T)
        rmax = -proj + np.sqrt(proj**2 + disk.radius**2
                               - float(fields._dot(off, off)))
    r = rmax[None, :] * u[:, None]                      # (K, M)
    w = (wu[:, None] * rmax[None, :] * sph.weights[None, :]) * r**2
    xs = c[None, None, :] + r[:, :, None] * sph.nodes[None, :, :]
    return xs.reshape(-1, 3), w.reshape(-1)


def _singular_center(field: FieldEvaluator, disk: DiskSpec):
    """The point the quadrature of ``disk`` grades toward: the field's
    singular point at the disk's time if it lies strictly inside the disk,
    else None."""
    c = field.singular_point(disk.time)
    if c is None or np.linalg.norm(c - disk.center) >= disk.radius:
        return None
    return c


def _disk_energies(field: FieldEvaluator, disk: DiskSpec, rule: ProductRule,
                   penalties) -> list[float]:
    """``energy_on_disk`` for each penalty in ``penalties`` (None: no
    penalty), all from one evaluation of the nodes.

    The nodes are evaluated block by block, one ``jets_at`` call of at most
    ``fields._BLOCK`` nodes each, so the scratch memory does not grow with
    the disk.  Each block writes its densities into one (penalties, N) array,
    and each energy is still one ``fields._dot`` over the whole disk."""
    xs, w = _disk_nodes(disk, rule, _singular_center(field, disk))
    dens = np.empty((len(penalties), len(xs)))
    for lo in range(0, len(xs), fields._BLOCK):
        part = slice(lo, lo + fields._BLOCK)
        xb = xs[part]
        values, dts, grads = field.jets_at(np.full(len(xb), disk.time), xb)
        dens0 = energy_density(dts, grads)
        for k, n in enumerate(penalties):
            dens[k, part] = dens0 if n is None else \
                dens0 + _penalty_density(values, n)
    return [float(fields._dot(w, d)) for d in dens]


def energy_on_disk(field: FieldEvaluator, disk: DiskSpec, rule: ProductRule,
                   *, penalty_n: float | None = None) -> float:
    """(1/2) int (|u_t|^2 + |grad u|^2) over the ball, optionally plus the
    penalty density n^2 F(u), F = (|u|^2 - 1)^2 / 4."""
    return _disk_energies(field, disk, rule, (penalty_n,))[0]


def _cone_slices(cone: ConeSpec, rule: ProductRule):
    """Gauss-Legendre time slices of the cone's side over its truncation
    [t_min, t_max]: yields (tau, weight, radius, nodes), the nodes being the
    sphere rule's scaled to the slice's radius about the apex."""
    taus, wtau = _gauss(rule.n_time, cone.t_min, cone.t_max)
    sph = rule.sphere
    for tau, wk in zip(taus, wtau):
        r = cone.radius(tau)
        yield tau, wk, r, cone.apex.x[None, :] + r * sph.nodes


def _cone_fluxes(field: FieldEvaluator, cone: ConeSpec, rule: ProductRule,
                 penalties) -> list[float]:
    """``flux_on_cone`` for each penalty in ``penalties`` (None: no penalty),
    all from one evaluation of the nodes."""
    sph = rule.sphere
    totals = [0.0] * len(penalties)
    for tau, wk, r, xs in _cone_slices(cone, rule):
        values, dts, grads = field.jets_at(np.full(len(xs), tau), xs)
        dens0 = flux_density(dts, grads, sph.nodes)
        for k, n in enumerate(penalties):
            dens = dens0 if n is None else dens0 + _penalty_density(values, n)
            totals[k] += wk * r**2 * float(fields._dot(sph.weights, dens))
    return totals


def flux_on_cone(field: FieldEvaluator, cone: ConeSpec, rule: ProductRule,
                 penalty_n: float | None = None) -> float:
    """(1/(2 sqrt 2)) int |grad u - n u_t|^2 dsigma over the lateral surface
    between the cone's truncation times t_min and t_max; with a penalty, the
    density 2 n^2 F(u) is added under the same measure so that the penalized
    local balance is exact for solutions of the penalized equation."""
    return _cone_fluxes(field, cone, rule, (penalty_n,))[0]


def energy_balance(field: FieldEvaluator, cone: ConeSpec, rule: ProductRule,
                   penalty_n: float | None = None) -> BalanceReport:
    """BalanceReport for E(D_s) - E(D_t) - Flux(M_s^t), [s, t] the cone's
    truncation, with the error estimate taken as the difference between the
    given rule and one refinement.  Each disk quadrature grades toward the
    field's singular point when that point lies inside the disk.

    With ``penalty_n`` the report is the penalized balance, and its
    ``unpenalized`` field holds the balance without the penalty terms, taken
    from the same evaluation of every node."""
    penalties = (None,) if penalty_n is None else (penalty_n, None)

    def energies(at, r: ProductRule):
        return _disk_energies(field, DiskSpec(at, cone.apex.x, cone.radius(at)),
                              r, penalties)

    def compute(r: ProductRule):
        """(e_base, e_top, flux) for each of ``penalties``."""
        return list(zip(energies(cone.t_min, r), energies(cone.t_max, r),
                        _cone_fluxes(field, cone, r, penalties)))

    coarse = compute(rule)
    fine = compute(rule.refine())
    reports = []
    for c, f in zip(coarse, fine):
        bal_coarse = c[0] - c[1] - c[2]
        bal_fine = f[0] - f[1] - f[2]
        reports.append(BalanceReport.build(*f, abs(bal_fine - bal_coarse)))
    if penalty_n is None:
        return reports[0]
    return dataclasses.replace(reports[0], unpenalized=reports[1])


@functools.cache
def _bump_norm(dim: int) -> float:
    """1 / integral of the unit bump over the unit ball in `dim` dimensions."""
    areas = {1: 2.0, 3: 4.0 * np.pi, 4: 2.0 * np.pi**2}
    r, w = _gauss(80, 0.0, 1.0)
    vals = bump_profile(r**2)
    return 1.0 / (areas[dim] * float(fields._dot(w, vals * r**(dim - 1))))

