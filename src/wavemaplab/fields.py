"""Field abstraction (first-order jets) and the closed-form sphere-valued maps:
the dilated hedgehog harmonic maps, evaluated in batches through their
stereographic form, their boosted wave-map cousins, the point-charge strength
s(lambda), and grid-sampled fields.

Jet convention: ``grad[i, j]`` holds the spatial derivative d_i u^j, so each
row of ``grad`` is the derivative of the target vector along one space axis,
and tangency to the sphere reads ``grad @ value == 0``.
"""

from __future__ import annotations

import contextlib
import os
import zipfile
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Exclusion radius around the singular point/line of the analytic maps:
# |grad| ~ 1/r is square-integrable but pointwise infinite, so closer than
# this the jet kernels return the limiting value with a zero gradient.
ANALYTIC_EXCLUSION = 1e-8

# Batch kernels work through their nodes in blocks of this many, so that
# their scratch memory does not grow with the query: harmonic_v_jet_batch,
# GridField.jets_at and the densities of every quadrature integral.  The
# closed-form kernels compute on 1-D (N,) arrays, one per component, since a
# broadcast over (N, 3) or (N, 3, 3) runs numpy's innermost loop, over the
# last axis, once per node; those shapes are only the interface.
_BLOCK = 2048


class FieldEvaluator(ABC):
    """A field on (a subdomain of) spacetime, evaluable to first-order jets.

    An evaluator implements ``jets_at`` and, when it has a closed-form
    d'Alembertian, ``box_at``; both take times ``ts`` (N,) and positions
    ``xs`` (N, 3).  Evaluators are immutable after construction and safe to
    share across threads.
    """

    @abstractmethod
    def jets_at(self, ts: np.ndarray, xs: np.ndarray):
        """Batch jets: (values (N,3), dts (N,3), grads (N,3,3))."""

    def box_at(self, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """d'Alembertian u_tt - Lap(u) at each node, shape (N, 3)."""
        raise NotImplementedError(f"{type(self).__name__} has no box_at")

    def singular_point(self, t: float) -> np.ndarray | None:
        """The field's singular point in the slice at time ``t``, toward
        which disk quadratures grade; None for a field that has none."""
        return None


@dataclass(frozen=True)
class MapParams:
    """Dilation lambda > 0, finite, and boost speed nu in [0, 1)."""

    lam: float
    nu: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(
                f"lambda must be finite and positive, got {self.lam}")
        if not 0.0 <= self.nu < 1.0:
            raise ValueError("boost speed must lie in [0, 1)")

    @property
    def theta(self) -> float:
        return 1.0 / np.sqrt(1.0 - self.nu**2)


def harmonic_v_jet_batch(params: MapParams, xs: np.ndarray):
    """Vectorized values and gradients of the dilated hedgehog at xs (N, 3).

    With w = x/r, d = 1 + w_3 and z = lambda (w_1, w_2) / d, the value is the
    inverse stereographic image of z; J_i (2, 3) is the Jacobian of that
    inverse at z.  The gradient is formed elementwise, with no matrix
    products: M = lambda J_s J_i (J_s the projection's Jacobian) has the
    rows lambda/d J_i[0], lambda/d J_i[1] and
    -lambda/d^2 (w_1 J_i[0] + w_2 J_i[1]), and its part tangent to the
    sphere at w, divided by r, is grad = (M - w (x) (w^T M)) / r.

    The nodes go through in blocks of ``_BLOCK``, so the scratch memory does
    not grow with N; no node's arithmetic depends on its block, so the
    result is the same bit for bit wherever the blocks meet.

    Points within the exclusion radius of the origin or on the south-pole ray
    get the limiting value with a zero gradient (both are measure-zero sets
    that quadrature nodes are not expected to hit).
    """
    xs = np.asarray(xs, dtype=float)
    values = np.empty((len(xs), 3))
    grads = np.empty((len(xs), 3, 3))
    for lo in range(0, len(xs), _BLOCK):
        part = slice(lo, lo + _BLOCK)
        _hedgehog_block(params.lam, xs[part], values[part], grads[part])
    return values, grads


def _hedgehog_block(lam: float, xs, values, grads):
    """``harmonic_v_jet_batch`` on one block, written into values / grads;
    the norm and w^T M add their three terms in order, as np.sum does."""
    x0, x1, x2 = xs.T
    r = np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    safe = r >= ANALYTIC_EXCLUSION
    r_s = np.where(safe, r, 1.0)
    w = (x0 / r_s, x1 / r_s, x2 / r_s)
    d = 1.0 + w[2]
    polar = d <= ANALYTIC_EXCLUSION
    d_s = np.where(polar, 1.0, d)

    z0, z1 = lam * w[0] / d_s, lam * w[1] / d_s
    s = z0 * z0 + z1 * z1
    dd = 1.0 + s
    dd2 = dd**2

    values.T[:] = 2.0 * z0 / dd, 2.0 * z1 / dd, (1.0 - s) / dd

    # the rows of J_i, and of M with its third row from them
    j01 = -4.0 * z0 * z1 / dd2
    J0 = (2.0 / dd - 4.0 * z0**2 / dd2, j01, -4.0 * z0 / dd2)
    J1 = (j01, 2.0 / dd - 4.0 * z1**2 / dd2, -4.0 * z1 / dd2)
    scale = lam / d_s
    tilt = -(scale / d_s)
    M = ([scale * a for a in J0], [scale * b for b in J1],
         [tilt * (w[0] * a + w[1] * b) for a, b in zip(J0, J1)])
    for j in range(3):
        wM = w[0] * M[0][j] + w[1] * M[1][j] + w[2] * M[2][j]
        for i in range(3):
            np.divide(M[i][j] - w[i] * wM, r_s, out=grads[:, i, j])

    bad = ~safe | polar
    if np.any(bad):
        values[bad] = np.array([0.0, 0.0, -1.0])
        grads[bad] = 0.0


# Taylor coefficients of s(1 + eps) in eps; used when the closed form would
# divide the eps^3-small numerator by the eps^2-small (lam^2-1)^2.
_S_TAYLOR = (-16.0 * np.pi / 3.0, 8.0 * np.pi / 3.0,
             -16.0 * np.pi / 15.0, 4.0 * np.pi / 15.0)


def s_lambda(lam: float) -> float:
    """Point-charge strength of the dilated hedgehog:
    -8*pi/(lam^2-1)^2 * (lam^4 - 4*lam^2*log(lam) - 1), zero iff lam = 1,
    with a series switch near lam = 1 for numerical stability."""
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    eps = lam - 1.0
    if abs(eps) < 1e-3:
        return float(sum(c * eps**(k + 1) for k, c in enumerate(_S_TAYLOR)))
    num = lam**4 - 4.0 * lam**2 * np.log(lam) - 1.0
    return float(-8.0 * np.pi / (lam**2 - 1.0)**2 * num)


class BoostedHarmonicMap(FieldEvaluator):
    """The boosted hedgehog as a spacetime field; nu = 0 gives the stationary
    harmonic map."""

    def __init__(self, params: MapParams):
        self.params = params

    def jets_at(self, ts, xs):
        """Jets of the hedgehog at the boosted points
        xi = (x_1, x_2, theta (x_3 - nu t)).  A node with |xi| below
        ``ANALYTIC_EXCLUSION``, near the singular line (0, 0, nu t), gets the
        limiting value (0, 0, -1) with zero ``dts`` and ``grads``, as does
        one on the south-pole ray of ``harmonic_v_jet_batch``."""
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        th, nu = self.params.theta, self.params.nu
        xi = xs.copy()
        xi[:, 2] = th * (xs[:, 2] - nu * ts)
        values, grads = harmonic_v_jet_batch(self.params, xi)
        dts = np.stack([-th * nu * g for g in grads[:, 2, :].T], axis=1)
        for g in grads[:, 2, :].T:
            g *= th
        return values, dts, grads

    def singular_point(self, t):
        """The point (0, 0, nu t) of the singular line."""
        return np.array([0.0, 0.0, self.params.nu * t])


# np.gradient(edge_order=2) writes its interior difference as
# (f[k+1] - f[k-1]) / (2 sp) and its two ends as these three-point formulas
_FACE_LO = (-1.5, 2.0, -0.5)   # d f[0] from f[0], f[1], f[2]
_FACE_HI = (0.5, -2.0, 1.5)    # d f[-1] from f[-3], f[-2], f[-1]
# bit b of corner c: its offset along axis b (0 = time)
_CORNER_BITS = (np.arange(16)[:, None] >> np.arange(4)) & 1


def _slab_corners(shape, t0: float, dt: float, origin, h: float, ts, xs):
    """Locate nodes in a uniform slab of ``shape`` (nt, nx, ny, nz).

    Returns the cell of each node (N, 4), the flat row of each of its 16
    corners in ``data.reshape(-1, 3)`` (16, N) and the 16 corner weights,
    repeated for the 3 components (16, N, 3), in the order and arithmetic of
    the ``GridField`` docstring.
    """
    dims = np.array(shape)
    fr = np.empty((len(ts), 4))
    fr[:, 0] = (np.asarray(ts, float) - float(t0)) / float(dt)
    fr[:, 1:] = (np.asarray(xs, float) - np.asarray(origin, float)) / float(h)
    if np.any(fr < -1e-9) or np.any(fr > dims - 1 + 1e-9):
        top = np.concatenate(([t0], origin)) + (dims - 1) * np.array(
            [dt, h, h, h])
        box = " x ".join(f"[{a:g}, {b:g}]" for a, b in zip(origin, top[1:]))
        raise ValueError(
            f"point outside the grid slab (with margin): it holds t in "
            f"[{t0:g}, {top[0]:g}] and x in {box}")
    idx = np.clip(np.floor(fr).astype(np.intp), 0, dims - 2)
    w = fr - idx
    strides = _strides(dims)
    rows = (idx @ strides)[None, :] + (_CORNER_BITS @ strides)[:, None]
    f = np.stack([1.0 - w.T, w.T])  # f[bit, axis]: factor of that offset
    wgt = f[:, 0]
    for ax in range(1, 4):  # axis ax is index 3 - ax of (b3, b2, b1, b0)
        wgt = f[(slice(None),) + (None,) * ax + (ax,)] * wgt
    # one copy per component, so that _dot's einsum runs over whole rows:
    # 44-57 us per (16, 2048, 3) corner sum, 161-222 us with a (16, N)
    # weight (numpy 2.4.6, 2 vCPU)
    weights = np.empty((16, len(fr), 3))
    for k in range(3):
        weights[:, :, k] = wgt.reshape(16, -1)
    return idx, rows, weights


def _strides(dims) -> np.ndarray:
    return np.array([dims[1] * dims[2] * dims[3], dims[2] * dims[3],
                     dims[3], 1])


def _dot(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Sum of ``w[n] * a[n]`` over the first axis, the one weighted sum of
    the package: over quadrature nodes, slab corners and grid cells.
    einsum's own loop, in an order fixed by the shapes alone: np.dot and
    ``@`` hand a long sum to BLAS, which splits it across its threads, so
    the last bits would follow the thread count.  ``w`` is (n,) for a node
    sum, or shaped like ``a`` for the corner sums of ``GridField``."""
    return np.einsum("n...,n...->...", w, a)


class GridField(FieldEvaluator):
    """Uniform space-time slab of R^3-valued samples with jet interpolation.

    Values are interpolated trilinearly in space and linearly in time.
    Derivatives are formed at the corners from the stored levels, with the
    arithmetic of ``np.gradient(edge_order=2)``: central differences inside
    the slab and three-point one-sided formulas on its faces.  They are then
    interpolated the same way, which is second order in h and in the stored
    time spacing on smooth fields.  No derivative grid is stored, so the field
    holds only its samples.  Write-once: filled by the solver, then read-only.
    The field shares memory with a C-contiguous float ``data``, so that no
    slab is copied: ``grid.data`` is a read-only view of the caller's array,
    which stays writeable, and a write to it shows in the field.

    Every query, values alone included, goes through one batch kernel,
    ``jets_at``.  A node at fractional grid coordinates (ft, fx, fy, fz)
    reads the 16 corners of its cell, corner c taking bit b of c as its
    offset along axis b (bit 0 is time, so time varies fastest).  Corner c
    has the weight ``1 * w_t * w_x * w_y * w_z``, multiplied in that order,
    with w = 1 - frac for offset 0 and frac for offset 1; each interpolated
    array is the sum of ``weight * corner`` over c = 0..15, formed by
    ``_dot``, whose order ``test_grid_field_jets_bit_identical_to_reference``
    guards.  The weights are formed once per node and shared by the values
    and the four derivatives.  For each axis the derivatives also read the
    samples one step below and one step above the cell.  A query works
    through its nodes in blocks of ``_BLOCK``, so its scratch memory does
    not grow with the number of nodes.
    """

    def __init__(self, t0: float, dt: float, origin, h: float, data: np.ndarray):
        # C order, so that the kernel reads the slab as flat rows of 3
        data = np.ascontiguousarray(data, dtype=float)
        if data.ndim != 5 or data.shape[-1] != 3:
            raise ValueError("data must have shape (nt, nx, ny, nz, 3)")
        self.t0 = float(t0)
        self.dt = float(dt)
        # coords of cell (0,0,0); a copy, so the caller's array cannot move it
        self.origin = np.array(origin, dtype=float)
        self.h = float(h)
        if not (np.isfinite([self.t0, self.dt, self.h]).all()
                and self.dt > 0.0 and self.h > 0.0):
            raise ValueError("t0 must be finite, dt and h finite and positive")
        if self.origin.shape != (3,) or not np.isfinite(self.origin).all():
            raise ValueError("origin must be a finite 3-vector")
        self.data = data.view()
        self.data.setflags(write=False)
        self.origin.setflags(write=False)

    @property
    def shape(self):
        return self.data.shape[:4]

    @property
    def t_max(self) -> float:
        return self.t0 + (self.data.shape[0] - 1) * self.dt

    def jets_at(self, ts, xs):
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        n = len(ts)
        values, dts = np.empty((n, 3)), np.empty((n, 3))
        grads = np.empty((n, 3, 3))
        for lo in range(0, max(n, 1), _BLOCK):
            part = slice(lo, lo + _BLOCK)
            self._jets_block(ts[part], xs[part], values[part], dts[part],
                             grads[part])
        return values, dts, grads

    def _jets_block(self, ts, xs, values, dts, grads):
        # np.take(axis=0), numpy 2.4.6 on 2 vCPU: a (16, 2048) gather from an
        # 18x72^3 slab 458 us, through a 24-byte void view of the rows 474 us;
        # jets_at on 200,000 nodes 0.838 s against 0.821 s, within the spread
        idx, rows, weights = _slab_corners(self.shape, self.t0, self.dt,
                                           self.origin, self.h, ts, xs)
        if min(self.shape) < 3:
            raise ValueError("Shape of array too small to calculate a numerical "
                             "gradient, at least (edge_order + 1) elements are "
                             "required.")
        table = self.data.reshape(-1, 3)
        corners = np.take(table, rows, axis=0)
        values[...] = _dot(weights, corners)
        strides = _strides(self.shape)
        for ax, sp in enumerate((self.dt, self.h, self.h, self.h)):
            d = self._corner_derivs(table, rows, corners, idx[:, ax] == 0,
                                    idx[:, ax] == self.shape[ax] - 2,
                                    strides[ax], ax, sp)
            out = dts if ax == 0 else grads[:, ax - 1, :]
            out[...] = _dot(weights, d)

    @staticmethod
    def _corner_derivs(table, rows, corners, first, last, stride, ax, sp):
        """Derivative along axis ``ax`` at each of the 16 corners (16, N, 3),
        as ``np.gradient(edge_order=2)`` forms it at that grid point.
        ``first`` / ``last`` mark the nodes whose cell is the first / last
        along the axis."""
        def split(a):
            # (corners with offset 0 along ax, those with offset 1), as views
            v = np.moveaxis(a.reshape((2, 2, 2, 2) + a.shape[1:]), 3 - ax, 0)
            return v[0], v[1]

        rows_lo, rows_hi = split(rows)
        f_lo, f_hi = split(corners)
        # one step below / above the cell; on a face any row of the slab
        # does, since the one-sided formula replaces the difference there
        below = np.take(table, rows_lo - stride * ~first, axis=0)
        above = np.take(table, rows_hi + stride * ~last, axis=0)
        out = np.empty_like(corners)
        d_lo, d_hi = split(out)
        np.subtract(f_hi, below, out=d_lo)
        np.subtract(above, f_lo, out=d_hi)
        out /= 2.0 * sp
        if first.any():
            a, b, c = (k / sp for k in _FACE_LO)
            d_lo[..., first, :] = (a * f_lo[..., first, :]
                                   + b * f_hi[..., first, :]
                                   + c * above[..., first, :])
        if last.any():
            a, b, c = (k / sp for k in _FACE_HI)
            d_hi[..., last, :] = (a * below[..., last, :]
                                  + b * f_lo[..., last, :]
                                  + c * f_hi[..., last, :])
        return out

    def save(self, path):
        """Write the slab and its grid to ``path`` as an uncompressed ``.npz``
        with the keys data, t0, dt, origin and h (see ``_slab_writer``), at
        exactly the path given: nothing is appended to it."""
        with _slab_writer(path, self.data.shape, self.t0, self.dt,
                         self.origin, self.h) as append:
            for level in self.data:
                append(level)

    @classmethod
    def load(cls, path) -> "GridField":
        """Read a slab that ``save`` wrote.  Anything else is a ``ValueError``:
        a lone ``.npy`` array, an archive lacking one of the five keys, or
        object arrays, since ``np.load`` does not unpickle by default."""
        f = np.load(path)
        if not isinstance(f, np.lib.npyio.NpzFile):
            raise ValueError(f"{path} holds one array, not an .npz slab")
        with f:
            missing = sorted({"data", "t0", "dt", "origin", "h"} - set(f.files))
            if missing:
                raise ValueError(f"{path} lacks the slab keys {missing}")
            return cls(f["t0"], f["dt"], f["origin"], f["h"], f["data"])


@contextlib.contextmanager
def _slab_writer(path, shape, t0: float, dt: float, origin, h: float):
    """Write a slab of ``shape`` (nt, nx, ny, nz, 3) to ``path`` one level at
    a time, as the uncompressed ``.npz`` that ``np.savez`` writes, byte for
    byte, from data=slab, t0, dt, origin and h.  Yields ``append(level)``,
    which writes the next (nx, ny, nz, 3) level from its own memory; the
    with block must append all nt of them.  The archive is written to a
    ``.part`` sibling of ``path`` in its directory, which the writer creates,
    and moved into place once complete; on any exception, in the block or
    in the writer, the ``.part`` is removed and ``path`` left as it was."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    shape = tuple(int(k) for k in shape)
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(float)),
              "fortran_order": False, "shape": shape}
    written = 0

    def append(level):
        nonlocal written
        level = np.ascontiguousarray(level, dtype=float)
        if written == shape[0] or level.shape != shape[1:]:
            raise ValueError(f"level {written} of shape {level.shape} does "
                             f"not fit a slab of shape {shape}")
        data.write(memoryview(level).cast("B"))
        written += 1

    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        # np.savez's members, in its order, each forced to zip64 as it does
        with zipfile.ZipFile(part, "w", zipfile.ZIP_STORED) as zf:
            with zf.open("data.npy", "w", force_zip64=True) as data:
                np.lib.format.write_array_header_1_0(data, header)
                yield append
                if written != shape[0]:
                    raise ValueError(f"{written} of the {shape[0]} levels "
                                     "were written")
            for name, value in (("t0", t0), ("dt", dt), ("origin", origin),
                                ("h", h)):
                with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, np.asanyarray(value))
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
