"""Closed-form fields used as test oracles: exact wave-map solutions,
polynomials, and smooth compactly supported manufactured fields."""

from __future__ import annotations

import numpy as np

from .fields import FieldEvaluator, _dot


class ConstantMap(FieldEvaluator):
    def __init__(self, value=(0.0, 0.0, 1.0)):
        self._value = np.asarray(value, dtype=float)

    def jets_at(self, ts, xs):
        n = len(ts)
        return (np.tile(self._value, (n, 1)), np.zeros((n, 3)),
                np.zeros((n, 3, 3)))

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

    def jets_at(self, ts, xs):
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        th = self.omega * ts + _dot(self.k, xs.T) + self.phase
        c, s = np.cos(th), np.sin(th)
        tangent = (-s, c, np.zeros_like(c))
        values = np.stack([c, s, tangent[2]], axis=1)
        dts = np.stack([self.omega * a for a in tangent], axis=1)
        grads = np.stack([k * a for k in self.k for a in tangent], axis=1)
        return values, dts, grads.reshape(-1, 3, 3)

    def box_at(self, ts, xs):
        values, _, _ = self.jets_at(ts, xs)
        return (float(_dot(self.k, self.k)) - self.omega**2) * values


def bump_profile(s: np.ndarray) -> np.ndarray:
    """exp(-1/(1-s)) where s < 1, else 0, elementwise; here s plays the role
    of |x|^2."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = s < 1.0
    out[m] = np.exp(-1.0 / (1.0 - s[m]))
    return out


def bump_profile_ds(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d/ds of the profile, elementwise, from s and b = bump_profile(s)."""
    s = np.asarray(s, dtype=float)
    out = np.array(b, dtype=float)
    m = s < 1.0
    out[m] *= -1.0 / (1.0 - s[m])**2
    return out


class TimeSquaredBump(FieldEvaluator):
    """u(t, x) = t^2 * b(x) * e, with b a spatial bump; Du(0) = 0 on the
    initial slice, which is what the cone-identity checks require."""

    def __init__(self, center=(0.0, 0.0, 0.0), scale: float = 1.0,
                 direction=(1.0, 0.0, 0.0)):
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.e = np.asarray(direction, dtype=float)

    def _bumps(self, xs: np.ndarray):
        y = [x - c for x, c in zip(np.asarray(xs, float).T, self.center)]
        s = (y[0]**2 + y[1]**2 + y[2]**2) / self.scale**2
        b = bump_profile(s)
        return y, s, b, bump_profile_ds(s, b)

    def jets_at(self, ts, xs):
        ts = np.asarray(ts, dtype=float)
        y, s, b, bs = self._bumps(xs)
        t2 = ts**2
        gb = (2.0 / self.scale**2) * bs
        cols = [f * ej for f in [t2 * b, 2.0 * ts * b]
                + [t2 * (gb * yi) for yi in y] for ej in self.e]
        return (np.stack(cols[:3], axis=1), np.stack(cols[3:6], axis=1),
                np.stack(cols[6:], axis=1).reshape(-1, 3, 3))

    def box_at(self, ts, xs):
        ts = np.asarray(ts, dtype=float)
        _, s, b, bs = self._bumps(xs)
        m = s < 1.0
        b2 = np.zeros_like(s)
        g = 1.0 / (1.0 - s[m])
        b2[m] = b[m] * (g**4 - 2.0 * g**3)
        lap = (6.0 / self.scale**2) * bs + (4.0 * s / self.scale**2) * b2
        f = 2.0 * b - ts**2 * lap
        return np.stack([f * ej for ej in self.e], axis=1)


class QuadraticNullField(FieldEvaluator):
    """Scalar polynomial t^2 - |x|^2 embedded in the first target component;
    all derivatives are exact, convenient for stencil-order checks."""

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

    def jets_at(self, ts, xs):
        # einsum, not a matmul: BLAS rounds a large batch differently from a
        # small one, and a node's jet must not depend on its batch
        pts = np.einsum("ma,na->nm", self.matrix, np.column_stack([ts, xs]))
        values, dts, grads = self.base.jets_at(pts[:, 0], pts[:, 1:])
        D = np.concatenate([dts[:, None, :], grads], axis=1)  # (N, 4, 3)
        Dnew = np.einsum("ma,nac->nmc", self.matrix.T, D)
        return values, Dnew[:, 0], Dnew[:, 1:]
