"""Closed-form fields used as test oracles: exact wave-map solutions,
polynomials, and smooth compactly supported manufactured fields."""

from __future__ import annotations

import numpy as np

from .fields import FieldEvaluator, JetSample
from .spacetime import SpacetimePoint


class ConstantMap(FieldEvaluator):
    def __init__(self, value=(0.0, 0.0, 1.0)):
        self._value = np.asarray(value, dtype=float)

    def jet(self, pt: SpacetimePoint) -> JetSample:
        return JetSample(self._value, np.zeros(3), np.zeros((3, 3)))

    def jets_at(self, ts, xs):
        n = len(ts)
        return (np.tile(self._value, (n, 1)), np.zeros((n, 3)),
                np.zeros((n, 3, 3)))

    def box(self, pt: SpacetimePoint) -> np.ndarray:
        return np.zeros(3)

    def box_at(self, ts, xs) -> np.ndarray:
        return np.zeros((len(ts), 3))


class GeodesicPlaneWave(FieldEvaluator):
    """u = (cos(w*t + k.x + c), sin(w*t + k.x + c), 0): an exact sphere-valued
    wave map for any (w, k), and an exact solution of the penalized equation
    when w = |k| (the phase then solves the linear wave equation)."""

    def __init__(self, k, omega=None, phase: float = 0.0):
        self.k = np.asarray(k, dtype=float)
        self.omega = float(np.linalg.norm(self.k)) if omega is None else float(omega)
        self.phase = float(phase)

    def _theta(self, pt: SpacetimePoint) -> float:
        return self.omega * pt.t + float(np.dot(self.k, pt.x)) + self.phase

    def jet(self, pt: SpacetimePoint) -> JetSample:
        th = self._theta(pt)
        c, s = np.cos(th), np.sin(th)
        value = np.array([c, s, 0.0])
        tangent = np.array([-s, c, 0.0])
        dt = self.omega * tangent
        grad = np.outer(self.k, tangent)
        return JetSample(value, dt, grad)

    def jets_at(self, ts, xs):
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        th = self.omega * ts + xs @ self.k + self.phase
        c, s = np.cos(th), np.sin(th)
        values = np.stack([c, s, np.zeros_like(c)], axis=1)
        tangent = np.stack([-s, c, np.zeros_like(c)], axis=1)
        dts = self.omega * tangent
        grads = self.k[None, :, None] * tangent[:, None, :]
        return values, dts, grads

    def box(self, pt: SpacetimePoint) -> np.ndarray:
        # u_tt - Lap(u) = (|k|^2 - w^2) * u
        th = self._theta(pt)
        return (float(np.dot(self.k, self.k)) - self.omega**2) * np.array(
            [np.cos(th), np.sin(th), 0.0])

    def box_at(self, ts, xs):
        values, _, _ = self.jets_at(ts, xs)
        return (float(np.dot(self.k, self.k)) - self.omega**2) * values


def bump_profile(s: float) -> float:
    """exp(-1/(1-s)) for s < 1, else 0; here s plays the role of |x|^2."""
    if s >= 1.0:
        return 0.0
    return float(np.exp(-1.0 / (1.0 - s)))


def bump_profile_ds(s: float) -> float:
    """d/ds of the profile."""
    if s >= 1.0:
        return 0.0
    return bump_profile(s) * (-1.0 / (1.0 - s)**2)


def bump_profile_d2s(s: float) -> float:
    if s >= 1.0:
        return 0.0
    g = 1.0 / (1.0 - s)
    return bump_profile(s) * (g**4 - 2.0 * g**3)


def bump_profile_arr(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = s < 1.0
    out[m] = np.exp(-1.0 / (1.0 - s[m]))
    return out


def bump_profile_ds_arr(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = s < 1.0
    out[m] = np.exp(-1.0 / (1.0 - s[m])) * (-1.0 / (1.0 - s[m])**2)
    return out


def bump_value(x, center, scale: float) -> float:
    """Radial bump exp(-1/(1 - |x-center|^2/scale^2)), supported in the ball
    of the given radius; works for vectors of any dimension."""
    r2 = float(np.sum((np.asarray(x, float) - np.asarray(center, float))**2))
    return bump_profile(r2 / scale**2)


def bump_gradient(x, center, scale: float) -> np.ndarray:
    y = np.asarray(x, float) - np.asarray(center, float)
    s = float(np.dot(y, y)) / scale**2
    return (2.0 / scale**2) * bump_profile_ds(s) * y


def bump_laplacian(x, center, scale: float) -> float:
    """Laplacian of the radial bump in len(x) dimensions."""
    y = np.asarray(x, float) - np.asarray(center, float)
    n = y.size
    s = float(np.dot(y, y)) / scale**2
    return (2.0 * n / scale**2) * bump_profile_ds(s) \
        + (4.0 * s / scale**2) * bump_profile_d2s(s)


class TimeSquaredBump(FieldEvaluator):
    """u(t, x) = t^2 * b(x) * e, with b a spatial bump; Du(0) = 0 on the
    initial slice, which is what the cone-identity checks require."""

    def __init__(self, center=(0.0, 0.0, 0.0), scale: float = 1.0,
                 direction=(1.0, 0.0, 0.0)):
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.e = np.asarray(direction, dtype=float)

    def jet(self, pt: SpacetimePoint) -> JetSample:
        b = bump_value(pt.x, self.center, self.scale)
        gb = bump_gradient(pt.x, self.center, self.scale)
        value = pt.t**2 * b * self.e
        dt = 2.0 * pt.t * b * self.e
        grad = pt.t**2 * np.outer(gb, self.e)
        return JetSample(value, dt, grad)

    def box(self, pt: SpacetimePoint) -> np.ndarray:
        b = bump_value(pt.x, self.center, self.scale)
        lb = bump_laplacian(pt.x, self.center, self.scale)
        return (2.0 * b - pt.t**2 * lb) * self.e

    def _bumps(self, xs: np.ndarray):
        y = np.asarray(xs, float) - self.center
        s = np.sum(y**2, axis=1) / self.scale**2
        return y, s, bump_profile_arr(s), bump_profile_ds_arr(s)

    def jets_at(self, ts, xs):
        ts = np.asarray(ts, dtype=float)
        y, s, b, bs = self._bumps(xs)
        gb = (2.0 / self.scale**2) * bs[:, None] * y
        values = (ts**2 * b)[:, None] * self.e[None, :]
        dts = (2.0 * ts * b)[:, None] * self.e[None, :]
        grads = (ts**2)[:, None, None] * gb[:, :, None] * self.e[None, None, :]
        return values, dts, grads

    def box_at(self, ts, xs):
        ts = np.asarray(ts, dtype=float)
        _, s, b, bs = self._bumps(xs)
        m = s < 1.0
        b2 = np.zeros_like(s)
        g = 1.0 / (1.0 - s[m])
        b2[m] = b[m] * (g**4 - 2.0 * g**3)
        lap = (6.0 / self.scale**2) * bs + (4.0 * s / self.scale**2) * b2
        return (2.0 * b - ts**2 * lap)[:, None] * self.e[None, :]


class QuadraticNullField(FieldEvaluator):
    """Scalar polynomial t^2 - |x|^2 embedded in the first target component;
    all derivatives are exact, convenient for stencil-order checks."""

    def jet(self, pt: SpacetimePoint) -> JetSample:
        value = np.array([pt.t**2 - float(np.dot(pt.x, pt.x)), 0.0, 0.0])
        dt = np.array([2.0 * pt.t, 0.0, 0.0])
        grad = np.zeros((3, 3))
        grad[:, 0] = -2.0 * pt.x
        return JetSample(value, dt, grad)

    def box(self, pt: SpacetimePoint) -> np.ndarray:
        return np.array([8.0, 0.0, 0.0])  # u_tt - Lap = 2 - (-6)

    def jets_at(self, ts, xs):
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        values = np.zeros((len(ts), 3))
        values[:, 0] = ts**2 - np.sum(xs**2, axis=1)
        dts = np.zeros((len(ts), 3))
        dts[:, 0] = 2.0 * ts
        grads = np.zeros((len(ts), 3, 3))
        grads[:, :, 0] = -2.0 * xs
        return values, dts, grads

    def box_at(self, ts, xs):
        out = np.zeros((len(ts), 3))
        out[:, 0] = 8.0
        return out


class ComposedWithBoost(FieldEvaluator):
    """f composed with a linear spacetime map: jets by the chain rule."""

    def __init__(self, base: FieldEvaluator, matrix: np.ndarray):
        self.base = base
        self.matrix = np.asarray(matrix, dtype=float)

    def _image(self, pt: SpacetimePoint) -> SpacetimePoint:
        return SpacetimePoint.from_vector(self.matrix @ pt.as_vector())

    def in_domain(self, pt: SpacetimePoint) -> bool:
        return self.base.in_domain(self._image(pt))

    def jet(self, pt: SpacetimePoint) -> JetSample:
        inner = self.base.jet(self._image(pt))
        # D[mu] holds the derivative of the base field along axis mu
        D = np.vstack([inner.dt, inner.grad])  # (4, 3)
        Dnew = self.matrix.T @ D
        return JetSample(inner.value, Dnew[0], Dnew[1:])

    def jets_at(self, ts, xs):
        pts = np.column_stack([ts, xs]) @ self.matrix.T
        values, dts, grads = self.base.jets_at(pts[:, 0], pts[:, 1:])
        D = np.concatenate([dts[:, None, :], grads], axis=1)  # (N, 4, 3)
        Dnew = np.einsum("ma,nac->nmc", self.matrix.T, D)
        return values, Dnew[:, 0], Dnew[:, 1:]
