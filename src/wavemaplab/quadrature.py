"""Quadrature over balls and lateral cone surfaces, and the energy-balance
report that decides whether the local energy inequality holds.

One resolution, ``ProductRule(n_time, n_radial, n_polar)``, sizes the disks
and the cone's side.  Every Gauss-Legendre rule on an interval comes from
``_gauss``; only the sphere's cos(theta) rule stays on [-1, 1].  Every ball
integral is a density handed to ``_disk_integral``, every side integral one
handed to ``_side_integral``: a density maps a block of nodes to one row of
values per integral.  The energy, flux and flux-form densities are batch
forms on jets (dts (N, 3), grads (N, 3, 3)).

Lateral surface measure: with x = p + r(tau) omega and |r'| = 1 the side has
dsigma = sqrt(2) r(tau)^2 dtau dOmega, which the 1/(2 sqrt 2) flux
normalization cancels, so the flux forms are per r^2 dtau dOmega:
``flux_density`` is (1/2) |grad u - n (x) u_t|^2, ``flux_form_Q`` its
bilinear form.
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


def _penalized(dens0, values, penalties) -> list:
    """``dens0`` per n of ``penalties``, plus n^2 F(u) where n is not None."""
    return [dens0 if n is None
            else dens0 + n**2 * 0.25 * (np.sum(values**2, axis=1) - 1.0)**2
            for n in penalties]


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
    inside = c is not None and np.linalg.norm(c - disk.center) < disk.radius
    return c if inside else None


def _cone_slices(cone: ConeSpec, rule: ProductRule):
    """Gauss-Legendre time slices of the cone's side over its truncation
    [t_min, t_max]: yields (tau, weight, radius, nodes), the nodes being the
    sphere rule's scaled to the slice's radius about the apex."""
    taus, wtau = _gauss(rule.n_time, cone.t_min, cone.t_max)
    sph = rule.sphere
    for tau, wk in zip(taus, wtau):
        r = cone.radius(tau)
        yield tau, wk, r, cone.apex.x[None, :] + r * sph.nodes


def _rows(density, t: float, xs, *args) -> np.ndarray:
    """``density(ts, xs, *args)`` at time ``t`` as one (rows, N) array, in
    blocks of at most ``fields._BLOCK`` nodes so that its scratch is bounded."""
    out = None
    for lo in range(0, len(xs), fields._BLOCK):
        part = slice(lo, lo + fields._BLOCK)
        block = density(np.full(len(xs[part]), t), xs[part],
                        *(a[part] for a in args))
        if out is None:
            out = np.empty((len(block), len(xs)))
        out[:, part] = block
    return out


def _disk_integral(disk: DiskSpec, rule: ProductRule, density,
                   field: FieldEvaluator) -> list[float]:
    """Each row of ``density(ts, xs)`` integrated over ``disk``, graded toward
    ``field``'s singular point, as one ``fields._dot`` over the whole ball."""
    xs, w = _disk_nodes(disk, rule, _singular_center(field, disk))
    return [float(fields._dot(w, row)) for row in _rows(density, disk.time, xs)]


def _side_integral(cone: ConeSpec, rule: ProductRule, density) -> list[float]:
    """Each row of ``density(ts, xs, normals)`` integrated over the cone's
    side per r^2 dtau dOmega, summed in slice order."""
    sph = rule.sphere
    parts = [[wk * r**2 * float(fields._dot(sph.weights, row))
              for row in _rows(density, tau, xs, sph.nodes)]
             for tau, wk, r, xs in _cone_slices(cone, rule)]
    return [sum(col) for col in zip(*parts)]


def _energies(field: FieldEvaluator, penalties, ts, xs):
    """The disk density of ``energy_on_disk`` for each of ``penalties``."""
    values, dts, grads = field.jets_at(ts, xs)
    return _penalized(energy_density(dts, grads), values, penalties)


def _fluxes(field: FieldEvaluator, penalties, ts, xs, normals):
    """The side density of ``flux_on_cone`` for each of ``penalties``."""
    values, dts, grads = field.jets_at(ts, xs)
    return _penalized(flux_density(dts, grads, normals), values, penalties)


def energy_on_disk(field: FieldEvaluator, disk: DiskSpec, rule: ProductRule,
                   *, penalty_n: float | None = None) -> float:
    """(1/2) int (|u_t|^2 + |grad u|^2) over the ball, optionally plus the
    penalty density n^2 F(u), F = (|u|^2 - 1)^2 / 4."""
    return _disk_integral(disk, rule, functools.partial(
        _energies, field, (penalty_n,)), field)[0]


def flux_on_cone(field: FieldEvaluator, cone: ConeSpec, rule: ProductRule,
                 penalty_n: float | None = None) -> float:
    """(1/(2 sqrt 2)) int |grad u - n u_t|^2 dsigma over the lateral surface
    between the cone's truncation times t_min and t_max; with a penalty, the
    density 2 n^2 F(u) is added under the same measure so that the penalized
    local balance is exact for solutions of the penalized equation."""
    return _side_integral(cone, rule,
                          functools.partial(_fluxes, field, (penalty_n,)))[0]


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
    energy = functools.partial(_energies, field, penalties)
    flux = functools.partial(_fluxes, field, penalties)

    def compute(r: ProductRule):
        """(e_base, e_top, flux) for each of ``penalties``."""
        disks = [DiskSpec(at, cone.apex.x, cone.radius(at))
                 for at in (cone.t_min, cone.t_max)]
        return list(zip(*(_disk_integral(d, r, energy, field) for d in disks),
                        _side_integral(cone, r, flux)))

    reports = [BalanceReport.build(*f, abs((f[0] - f[1] - f[2])
                                           - (c[0] - c[1] - c[2])))
               for c, f in zip(compute(rule), compute(rule.refine()))]
    return reports[0] if penalty_n is None else \
        dataclasses.replace(reports[0], unpenalized=reports[1])


@functools.cache
def _bump_norm(dim: int) -> float:
    """1 / integral of the unit bump over the unit ball in `dim` dimensions."""
    areas = {1: 2.0, 3: 4.0 * np.pi, 4: 2.0 * np.pi**2}
    r, w = _gauss(80, 0.0, 1.0)
    vals = bump_profile(r**2)
    return 1.0 / (areas[dim] * float(fields._dot(w, vals * r**(dim - 1))))

