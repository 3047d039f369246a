"""The stress-energy tensor, its divergence and boost transformation law,
weak-equation residuals, the point-charge pairing, and the cone
integration-by-parts identity.  Every ball and side integral, the point
charge's too, is a density on ``stress_tensor`` or the batch forms of
``quadrature``, handed to its integrators.

Sign conventions, fixed project-wide: signature (-,+,+,+), so the Lagrangian
density is d_a u . d^a u = |grad u|^2 - |u_t|^2, the strong equation used
numerically is u_tt = Lap(u) + (|grad u|^2 - |u_t|^2) u, and the box operator
in the cone identity is box = d_tt - Lap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import BoostedHarmonicMap, FieldEvaluator, MapParams
from .manufactured import ComposedWithBoost, bump_profile, bump_profile_ds
from .quadrature import (ProductRule, _bump_norm, _cone_slices, _disk_integral,
                         _disk_nodes, _gauss, _row_dot, _rows,
                         _side_integral, energy_form, flux_form_Q)
from .spacetime import ETA, ConeSpec, DiskSpec, LorentzBoost, SpacetimePoint


def stress_tensor(dts: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """T_ab = 1/2 eta_ab (d^c u . d_c u) - d_a u . d_b u per row, indices
    down: a stack of symmetric (4, 4) arrays, one per jet."""
    D = np.concatenate([dts[:, None, :], grads], axis=1)  # D[:, a] = d_a u
    lag = np.sum(grads**2, axis=(1, 2)) - np.sum(dts**2, axis=1)
    return 0.5 * ETA * lag[:, None, None] - np.einsum("nac,nbc->nab", D, D)


def divergence_T(field: FieldEvaluator, pt: SpacetimePoint, h: float) -> np.ndarray:
    """d^a T_ab by second-order central differences, from one ``jets_at``
    call at the 8 points pt +- h e_a; the caller guarantees smoothness of the
    field in an h-neighborhood."""
    nodes = np.tile(pt.as_vector(), (8, 1))
    for a in range(4):
        nodes[2 * a, a] += h
        nodes[2 * a + 1, a] -= h
    _, dts, grads = field.jets_at(nodes[:, 0], nodes[:, 1:])
    T = stress_tensor(dts, grads)
    # d^0 = -d_t
    div = -(T[0][0] - T[1][0]) / (2.0 * h)
    for i in range(3):
        div += (T[2 * i + 2][i + 1] - T[2 * i + 3][i + 1]) / (2.0 * h)
    return div


def transformation_check(field: FieldEvaluator, boost: LorentzBoost,
                         pt: SpacetimePoint, h: float):
    """Both sides of the boost law for the stress-tensor divergence.

    lhs: divergence of the stress tensor of f o L at pt.
    rhs: L-contraction of the divergence of the stress tensor of f at L pt.
    """
    composed = ComposedWithBoost(field, boost.matrix)
    lhs = divergence_T(composed, pt, h)
    image = SpacetimePoint.from_vector(boost.matrix @ pt.as_vector())
    rhs = boost.matrix.T @ divergence_T(field, image, h)
    return lhs, rhs


@dataclass(frozen=True)
class BumpTest:
    """Smooth radial bump exp(-1/(1-r^2)) scaled to a given support radius.

    ``center`` may be a SpacetimePoint (spacetime bump, 4-D radial) or a
    3-vector (spatial bump).  The profile is numerically normalized so the
    bump integrates to one over its support.
    """

    center: object
    scale: float

    def _split(self):
        if isinstance(self.center, SpacetimePoint):
            return self.center.as_vector(), 4
        return np.asarray(self.center, dtype=float), 3

    @property
    def dim(self) -> int:
        return self._split()[1]

    @property
    def norm_const(self) -> float:
        return _bump_norm(self.dim) / self.scale**self.dim

    def value_at(self, coords) -> float:
        """psi at one point of shape (dim,)."""
        return float(self.batch(np.asarray(coords, dtype=float)[None, :])[0][0])

    def batch(self, coords: np.ndarray):
        """Vectorized (psi, D psi) at coords of shape (N, dim)."""
        c, _ = self._split()
        y = [x - ck for x, ck in zip(np.asarray(coords, dtype=float).T, c)]
        s = sum(yk**2 for yk in y) / self.scale**2
        b = bump_profile(s)
        gb = (self.norm_const * 2.0 / self.scale**2) * bump_profile_ds(s, b)
        return self.norm_const * b, np.stack([gb * yk for yk in y], axis=1)


def weak_residual(field: FieldEvaluator, test: BumpTest,
                  rule: ProductRule) -> np.ndarray:
    """Distributional residual of the wave-map equation against a scalar
    spacetime bump: per target component,

        int [ u_t d_t(psi) - grad u : grad psi + (|grad u|^2 - |u_t|^2) u psi ].

    Zero (in the quadrature-refinement limit) for weak solutions whose
    singular set avoids the bump's support.
    """
    if test.dim != 4:
        raise ValueError("weak_residual needs a spacetime bump")
    c = test.center.as_vector()
    t0, x0, sigma = c[0], c[1:], test.scale

    def density(ts, xs):
        values, dts, grads = field.jets_at(ts, xs)
        psi, dpsi = test.batch(np.column_stack([ts, xs]))
        lag = np.sum(grads**2, axis=(1, 2)) - np.sum(dts**2, axis=1)
        return (dts * dpsi[:, 0][:, None]
                - np.einsum("nij,ni->nj", grads, dpsi[:, 1:])
                + (lag * psi)[:, None] * values).T

    res = np.zeros(3)
    for t, wt in zip(*_gauss(rule.n_time, t0 - sigma, t0 + sigma)):
        rho = np.sqrt(max(sigma**2 - (t - t0)**2, 0.0))
        if rho > 0.0:
            res += wt * np.array(_disk_integral(DiskSpec(t, x0, rho), rule,
                                                density, field))
    return res


def recover_point_charge(params: MapParams, test: BumpTest,
                         rule: ProductRule) -> np.ndarray:
    """Distributional divergence of the spatial stress S, the spatial block
    of ``stress_tensor``, of ``BoostedHarmonicMap(params)`` at t = 0 paired
    with a spatial test bump; at nu = 0, the dilated hedgehog,

        J_j = - int S_ij d_i(psi) dx  ->  (0, 0, -s(lambda) psi(0) / 2).

    The ball grades toward the map's singular point, where the rule's r^2
    weight absorbs the 1/r^2 of S."""
    if test.dim != 3:
        raise ValueError("recover_point_charge needs a spatial bump")
    field = BoostedHarmonicMap(params)

    def density(ts, xs):
        S = stress_tensor(*field.jets_at(ts, xs)[1:])[:, 1:, 1:]
        return (-np.einsum("nij,ni->nj", S, test.batch(xs)[1])).T

    return np.array(_disk_integral(DiskSpec(0.0, test.center, test.scale),
                                   rule, density, field))


@dataclass(frozen=True)
class CompIdentityResult:
    lhs: float
    rhs: float
    dw0_norm: float  # size of Dw on the base; nonzero flags a missing term


def comp_identity_check(u: FieldEvaluator, w: FieldEvaluator, R: float,
                        T: float, rule: ProductRule) -> CompIdentityResult:
    """Both sides of the cone integration-by-parts identity for smooth fields
    on the truncated backward cone of base radius R and height T < R, centered
    at the spatial origin with base at t = 0:

        int_{D_{R-T}} Du . Dw
          = int_0^T int_{D_{R-t}} (box u . w_t + box w . u_t)
            - int_0^T int_{S^2} Q(u, w) (R - t)^2 dOmega dt,

    with Du . Dw the Euclidean dot over all four partials (``energy_form``),
    Q the flux form per r^2 dtau dOmega of the side (``flux_form_Q``) and
    box = d_tt - Lap.  The identity requires Dw = 0 on the base; a violation
    is reported through ``dw0_norm`` rather than raised.
    """
    if not 0.0 < T < R:
        raise ValueError("need 0 < T < R")
    cone = ConeSpec.from_base(np.zeros(3), R, 0.0, T)

    def top(ts, xs):
        return [energy_form(*u.jets_at(ts, xs)[1:], *w.jets_at(ts, xs)[1:])]

    def box_terms(ts, xs):
        return [_row_dot(u.box_at(ts, xs), w.jets_at(ts, xs)[1])
                + _row_dot(w.box_at(ts, xs), u.jets_at(ts, xs)[1])]

    def side(ts, xs, normals):
        return [flux_form_Q(*u.jets_at(ts, xs)[1:], *w.jets_at(ts, xs)[1:],
                            normals)]

    lhs, = _disk_integral(DiskSpec(T, np.zeros(3), R - T), rule, top, u)
    bulk = sum(wk * _disk_integral(DiskSpec(tk, np.zeros(3), rt), rule,
                                   box_terms, u)[0]
               for tk, wk, rt, _ in _cone_slices(cone, rule))
    lateral, = _side_integral(cone, rule, side)

    # Dw . Dw on the base, sampled at its nodes: a max, not an integral
    xs, _ = _disk_nodes(DiskSpec(0.0, np.zeros(3), R), rule)
    dw2 = _rows(lambda ts, xs: [energy_form(*w.jets_at(ts, xs)[1:] * 2)],
                0.0, xs)
    dw0 = float(np.sqrt(np.max(dw2)))

    return CompIdentityResult(lhs, bulk - lateral, dw0)
