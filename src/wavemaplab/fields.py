"""Field abstraction (first-order jets) and the closed-form sphere-valued maps:
stereographic projection, the dilated hedgehog harmonic maps, their boosted
wave-map cousins, the point-charge strength s(lambda), and grid-sampled fields.

Jet convention: ``grad[i, j]`` holds the spatial derivative d_i u^j, so each
row of ``grad`` is the derivative of the target vector along one space axis,
and tangency to the sphere reads ``grad @ value == 0``.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .spacetime import SpacetimePoint

# Exclusion radius around the singular point/line of the analytic maps:
# |grad| ~ 1/r is square-integrable but pointwise infinite, so evaluation
# closer than this raises instead of returning garbage.
ANALYTIC_EXCLUSION = 1e-8


@dataclass(frozen=True)
class JetSample:
    """Value and first derivatives of an R^3-valued field at one point."""

    value: np.ndarray  # (3,)
    dt: np.ndarray     # (3,)
    grad: np.ndarray   # (3, 3), grad[i, j] = d_i u^j

    def __post_init__(self):
        object.__setattr__(self, "value", np.asarray(self.value, dtype=float))
        object.__setattr__(self, "dt", np.asarray(self.dt, dtype=float))
        object.__setattr__(self, "grad", np.asarray(self.grad, dtype=float))

    @staticmethod
    def zero() -> "JetSample":
        return JetSample(np.zeros(3), np.zeros(3), np.zeros((3, 3)))


class FieldEvaluator(ABC):
    """A field on (a subdomain of) spacetime, evaluable to first-order jets.

    Evaluators are immutable after construction and safe to share across
    threads.
    """

    @abstractmethod
    def jet(self, pt: SpacetimePoint) -> JetSample:
        ...

    def jets_at(self, ts: np.ndarray, xs: np.ndarray):
        """Batch jets: (values (N,3), dts (N,3), grads (N,3,3)).

        The default loops over ``jet``; hot evaluators override with a
        vectorized version.
        """
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        n = len(ts)
        values = np.empty((n, 3))
        dts = np.empty((n, 3))
        grads = np.empty((n, 3, 3))
        for i in range(n):
            j = self.jet(SpacetimePoint(ts[i], xs[i]))
            values[i], dts[i], grads[i] = j.value, j.dt, j.grad
        return values, dts, grads

    def in_domain(self, pt: SpacetimePoint) -> bool:
        return True

    def box(self, pt: SpacetimePoint) -> np.ndarray:
        """d'Alembertian u_tt - Lap(u).

        The default is a second-order central second difference of the field
        value with step 1e-4; evaluators with closed-form second derivatives
        override it.
        """
        h = 1e-4
        c = self.jet(pt).value
        out = (self.jet(SpacetimePoint(pt.t + h, pt.x)).value - 2.0 * c
               + self.jet(SpacetimePoint(pt.t - h, pt.x)).value) / h**2
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            out -= (self.jet(SpacetimePoint(pt.t, pt.x + e)).value - 2.0 * c
                    + self.jet(SpacetimePoint(pt.t, pt.x - e)).value) / h**2
        return out

    def box_at(self, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        return np.stack([self.box(SpacetimePoint(t, x))
                         for t, x in zip(ts, xs)])


@dataclass(frozen=True)
class MapParams:
    """Dilation lambda > 0 and boost speed nu in [0, 1)."""

    lam: float
    nu: float = 0.0

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("lambda must be positive")
        if not 0.0 <= self.nu < 1.0:
            raise ValueError("boost speed must lie in [0, 1)")

    @property
    def theta(self) -> float:
        return 1.0 / np.sqrt(1.0 - self.nu**2)


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


def harmonic_v_jet(params: MapParams, x) -> JetSample:
    """Value and analytic spatial gradient of the dilated hedgehog; dt = 0
    (the map is used as a stationary wave map)."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    _check_off_singularity(r)
    w = x / r
    if 1.0 + w[2] <= 0.0:
        raise ValueError("jet undefined on the south-pole ray")

    # x -> w = x/|x|:  J_w[i, b] = d w_b / d x_i
    J_w = (np.eye(3) - np.outer(w, w)) / r

    # w -> y = sigma(w):  J_s[b, a] = d y_a / d w_b
    d = 1.0 + w[2]
    J_s = np.zeros((3, 2))
    J_s[0, 0] = 1.0 / d
    J_s[1, 1] = 1.0 / d
    J_s[2, 0] = -w[0] / d**2
    J_s[2, 1] = -w[1] / d**2

    # z = lam * y -> u = sigma^{-1}(z):  J_i[a, j] = d u_j / d z_a
    z = params.lam * (w[:2] / d)
    s = float(np.dot(z, z))
    dd = 1.0 + s
    J_i = np.array([
        [2.0 / dd - 4.0 * z[0]**2 / dd**2, -4.0 * z[0] * z[1] / dd**2,
         -4.0 * z[0] / dd**2],
        [-4.0 * z[0] * z[1] / dd**2, 2.0 / dd - 4.0 * z[1]**2 / dd**2,
         -4.0 * z[1] / dd**2],
    ])

    grad = J_w @ (params.lam * J_s) @ J_i
    value = stereographic_inv(z)
    return JetSample(value, np.zeros(3), grad)


def harmonic_v_jet_batch(params: MapParams, xs: np.ndarray):
    """Vectorized values and gradients of the dilated hedgehog at xs (N, 3).

    Points within the exclusion radius of the origin or on the south-pole ray
    get the limiting value with a zero gradient (both are measure-zero sets
    that quadrature nodes are not expected to hit).
    """
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


def boosted_phi_jet(params: MapParams, pt: SpacetimePoint) -> JetSample:
    """Jet of the boosted map phi(t, x) = v(x1, x2, Theta*(x3 - nu*t)).

    Singular on the moving line x1 = x2 = 0, x3 = nu*t; evaluation within the
    exclusion radius of that line raises.
    """
    th, nu = params.theta, params.nu
    xi = np.array([pt.x[0], pt.x[1], th * (pt.x[2] - nu * pt.t)])
    base = harmonic_v_jet(params, xi)
    grad = np.empty((3, 3))
    grad[0] = base.grad[0]
    grad[1] = base.grad[1]
    grad[2] = th * base.grad[2]
    dt = -th * nu * base.grad[2]
    return JetSample(base.value, dt, grad)


# Taylor coefficients of s(1 + eps) in eps; used when the closed form would
# divide the eps^3-small numerator by the eps^2-small (lam^2-1)^2.
_S_TAYLOR = (-16.0 * np.pi / 3.0, 8.0 * np.pi / 3.0,
             -16.0 * np.pi / 15.0, 4.0 * np.pi / 15.0)


def s_lambda(lam: float) -> float:
    """Point-charge strength of the dilated hedgehog:
    -8*pi/(lam^2-1)^2 * (lam^4 - 4*lam^2*log(lam) - 1), zero iff lam = 1,
    with a series switch near lam = 1 for numerical stability."""
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    eps = lam - 1.0
    if abs(eps) < 1e-3:
        return float(sum(c * eps**(k + 1) for k, c in enumerate(_S_TAYLOR)))
    num = lam**4 - 4.0 * lam**2 * np.log(lam) - 1.0
    return float(-8.0 * np.pi / (lam**2 - 1.0)**2 * num)


class BoostedHarmonicMap(FieldEvaluator):
    """The boosted hedgehog as a spacetime field; nu = 0 gives the stationary
    harmonic map."""

    def __init__(self, params: MapParams, exclusion: float = ANALYTIC_EXCLUSION):
        self.params = params
        self.exclusion = exclusion

    def _xi_norm(self, pt: SpacetimePoint) -> float:
        th, nu = self.params.theta, self.params.nu
        return float(np.sqrt(pt.x[0]**2 + pt.x[1]**2
                             + (th * (pt.x[2] - nu * pt.t))**2))

    def in_domain(self, pt: SpacetimePoint) -> bool:
        return self._xi_norm(pt) >= self.exclusion

    def jet(self, pt: SpacetimePoint) -> JetSample:
        if not self.in_domain(pt):
            raise ValueError("point too close to the singular line")
        return boosted_phi_jet(self.params, pt)

    def jets_at(self, ts, xs):
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        th, nu = self.params.theta, self.params.nu
        xi = xs.copy()
        xi[:, 2] = th * (xs[:, 2] - nu * ts)
        values, g = harmonic_v_jet_batch(self.params, xi)
        grads = g.copy()
        grads[:, 2, :] = th * g[:, 2, :]
        dts = -th * nu * g[:, 2, :]
        return values, dts, grads


class SpatialField:
    """Time-slice data: a map R^3 -> R^3 with an optional Jacobian and an
    optional vectorized evaluator (``batch``, xs of shape (N, 3))."""

    def __init__(self, value_fn, jacobian_fn=None, batch_fn=None):
        self._value = value_fn
        self._jac = jacobian_fn
        self._batch = batch_fn

    def __call__(self, x) -> np.ndarray:
        return self._value(np.asarray(x, dtype=float))

    def jacobian(self, x) -> np.ndarray:
        if self._jac is None:
            raise NotImplementedError
        return self._jac(np.asarray(x, dtype=float))

    @property
    def batch(self):
        return self._batch


def constant_spatial_field(value) -> SpatialField:
    value = np.asarray(value, dtype=float)
    return SpatialField(lambda x: value.copy(),
                        jacobian_fn=lambda x: np.zeros((3, 3)),
                        batch_fn=lambda xs: np.tile(value, (len(xs), 1)))


def initial_data(params: MapParams) -> tuple[SpatialField, SpatialField]:
    """Cauchy data of the boosted map at t = 0:
    f(x) = v(x1, x2, Theta*x3),  g(x) = -Theta*nu*(d3 v)(x1, x2, Theta*x3).

    |f| = 1 and f.g = 0 wherever defined; evaluation at the origin raises.

    Both batch functions need the same jets, so ``f``'s batch leaves its
    samples of ``g`` for ``g``'s next batch call, which takes them (and so
    frees them) and uses them if its points are the same.
    """
    def jet_at(x):
        return boosted_phi_jet(params, SpacetimePoint(0.0, x))

    def scaled(xs):
        xi = np.array(xs, dtype=float)
        xi[:, 2] = params.theta * xi[:, 2]
        return xi

    def jets(xi):
        values, grads = harmonic_v_jet_batch(params, xi)
        return values, -params.theta * params.nu * grads[:, 2, :]

    handoff = {}

    def f_batch(xs):
        xi = scaled(xs)
        values, g_values = jets(xi)
        handoff["g"] = (xi, g_values)
        return values

    def g_batch(xs):
        xi = scaled(xs)
        left = handoff.pop("g", None)
        if left is not None and np.array_equal(xi, left[0]):
            return left[1]
        return jets(xi)[1]

    f = SpatialField(lambda x: jet_at(x).value, lambda x: jet_at(x).grad,
                     batch_fn=f_batch)
    g = SpatialField(lambda x: jet_at(x).dt, batch_fn=g_batch)
    return f, g


def _gradient(f: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """``np.gradient(f, spacing, axis=axis, edge_order=2)``, bit for bit, but
    the interior difference goes straight into the result instead of through
    a temporary the size of ``f``."""
    if f.shape[axis] < 3:
        raise ValueError("Shape of array too small to calculate a numerical "
                         "gradient, at least (edge_order + 1) elements are "
                         "required.")
    out = np.empty_like(f)
    a, o = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(a[2:], a[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * spacing
    # three-point one-sided formulas at the two ends
    o[0] = -1.5 / spacing * a[0] + 2.0 / spacing * a[1] - 0.5 / spacing * a[2]
    o[-1] = 0.5 / spacing * a[-3] - 2.0 / spacing * a[-2] + 1.5 / spacing * a[-1]
    return out


class GridField(FieldEvaluator):
    """Uniform space-time slab of R^3-valued samples with jet interpolation.

    Values are interpolated trilinearly in space and linearly in time.
    Derivatives are formed by central differences on the stored grids and then
    interpolated the same way, which is second order in h and in the stored
    time spacing on smooth fields.  Write-once: filled by the solver, then
    read-only.

    Every query goes through one batch kernel.  A node at fractional grid
    coordinates (ft, fx, fy, fz) reads the 16 corners of its cell, corner c
    taking bit b of c as its offset along axis b (bit 0 is time, so time
    varies fastest).  Corner c has the weight ``1 * w_t * w_x * w_y * w_z``,
    multiplied in that order, with w = 1 - frac for offset 0 and frac for
    offset 1; each interpolated array is the sum of ``weight * corner`` over
    c = 0..15, added in that order to zeros.  The weights are formed once per
    query and shared by the values and the four derivative grids.
    """

    def __init__(self, t0: float, dt: float, origin, h: float, data: np.ndarray):
        # C order, so that the kernel reads the slab as flat rows of 3
        data = np.ascontiguousarray(data, dtype=float)
        if data.ndim != 5 or data.shape[-1] != 3:
            raise ValueError("data must have shape (nt, nx, ny, nz, 3)")
        self.t0 = float(t0)
        self.dt = float(dt)
        self.origin = np.asarray(origin, dtype=float)  # coords of cell (0,0,0)
        self.h = float(h)
        self.data = data
        self.data.setflags(write=False)
        self._derivs = None

    @property
    def shape(self):
        return self.data.shape[:4]

    @property
    def t_max(self) -> float:
        return self.t0 + (self.data.shape[0] - 1) * self.dt

    def _deriv_grids(self):
        if self._derivs is None:
            axes = []
            for ax, sp in ((0, self.dt), (1, self.h), (2, self.h), (3, self.h)):
                g = _gradient(self.data, sp, ax)
                g.setflags(write=False)
                axes.append(g)
            self._derivs = axes
        return self._derivs

    def _corners(self, ts, xs):
        """Flat row of each of the 16 corners of every node's cell in
        ``arr.reshape(-1, 3)``, and the 16 corner weights (class docstring)."""
        dims = np.array(self.shape)
        fr = np.empty((len(ts), 4))
        fr[:, 0] = (np.asarray(ts, float) - self.t0) / self.dt
        fr[:, 1:] = (np.asarray(xs, float) - self.origin) / self.h
        if np.any(fr < -1e-9) or np.any(fr > dims - 1 + 1e-9):
            raise ValueError("point outside the grid slab (with margin)")
        idx = np.clip(np.floor(fr).astype(np.intp), 0, dims - 2)
        w = fr - idx
        strides = np.array([dims[1] * dims[2] * dims[3], dims[2] * dims[3],
                            dims[3], 1])
        flat = idx @ strides
        lo_hi = [(1.0 - w[:, ax], w[:, ax]) for ax in range(4)]
        rows, weights = [], []
        for corner in range(16):
            bits = [(corner >> b) & 1 for b in range(4)]
            wgt = np.ones(len(fr))
            for ax, bit in enumerate(bits):
                wgt *= lo_hi[ax][bit]
            rows.append(flat + int(np.dot(bits, strides)))
            weights.append(wgt[:, None])
        return rows, weights

    @staticmethod
    def _interp(arr, rows, weights, out):
        """Into ``out`` (N, 3): the weighted sum of the corners of ``arr``."""
        flat = arr.reshape(-1, 3)
        out[...] = 0.0
        buf = np.empty(out.shape)
        for row, wgt in zip(rows, weights):
            np.take(flat, row, axis=0, out=buf)
            buf *= wgt
            out += buf
        return out

    def jets_at(self, ts, xs):
        rows, weights = self._corners(ts, xs)
        n = len(rows[0])
        values = self._interp(self.data, rows, weights, np.empty((n, 3)))
        dgrids = self._deriv_grids()
        dts = self._interp(dgrids[0], rows, weights, np.empty((n, 3)))
        grads = np.empty((n, 3, 3))
        for i in range(3):
            self._interp(dgrids[1 + i], rows, weights, grads[:, i, :])
        return values, dts, grads

    def in_domain(self, pt: SpacetimePoint) -> bool:
        try:
            self._corners([pt.t], [pt.x])
        except ValueError:
            return False
        return True

    def value(self, pt: SpacetimePoint) -> np.ndarray:
        rows, weights = self._corners([pt.t], [pt.x])
        return self._interp(self.data, rows, weights, np.empty((1, 3)))[0]

    def jet(self, pt: SpacetimePoint) -> JetSample:
        values, dts, grads = self.jets_at([pt.t], [pt.x])
        return JetSample(values[0], dts[0], grads[0])

    # Binary container: magic, version, dims (4 x u64), h, dt, t0, origin (3),
    # then the payload as little-endian float64, level-major, within each level
    # component-major, then z, y, x with x fastest.
    _MAGIC = b"WMGF"
    _VERSION = 1

    def save(self, path):
        nt, nx, ny, nz = self.shape
        header = self._MAGIC + struct.pack(
            "<I4Q6d", self._VERSION, nt, nx, ny, nz,
            self.h, self.dt, self.t0, *self.origin)
        with open(path, "wb") as fh:
            fh.write(header)
            for level in self.data:  # one level's copy at a time
                fh.write(np.ascontiguousarray(level.transpose(3, 2, 1, 0),
                                              dtype="<f8"))

    @classmethod
    def load(cls, path) -> "GridField":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != cls._MAGIC:
                raise ValueError("not a grid-field container")
            version, nt, nx, ny, nz, h, dt, t0, ox, oy, oz = struct.unpack(
                "<I4Q6d", fh.read(struct.calcsize("<I4Q6d")))
            if version != cls._VERSION:
                raise ValueError(f"unsupported container version {version}")
            raw = np.frombuffer(fh.read(), dtype="<f8")
        data = raw.reshape(nt, 3, nz, ny, nx).transpose(0, 4, 3, 2, 1)
        return cls(t0, dt, (ox, oy, oz), h, np.ascontiguousarray(data))


def grid_jet(field: GridField, pt: SpacetimePoint) -> JetSample:
    """Interpolated jet of a grid field; raises outside the stored slab.
    Derivatives fall back to one-sided differences on the slab faces."""
    return field.jet(pt)
