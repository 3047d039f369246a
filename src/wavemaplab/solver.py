"""Explicit leapfrog solver for the penalized Cauchy problem

    u_tt = Lap(u) - n^2 (|u|^2 - 1) u

on a cell-centered 3-D box, with a per-step discrete energy ledger, composite
CFL control (the penalty adds a linearized frequency ~ n sqrt(2) near the
sphere), and domain-of-dependence guards.

The grid is cell-centered so data derived from the singular analytic maps are
never sampled at their singular point; the effective smoothing scale of such
data is the grid spacing h.

Data.  ``run``, ``run_to_file`` and ``penalization_sweep`` start from any
``FieldEvaluator``: its value and time derivative at t = 0 on the cell
centres, sampled with one ``jets_at`` call per x-plane, are the Cauchy data
(u^0, g^0), which no step writes.  Sampling holds u^0, g^0 and one plane's
jets, within the five grids that the pre-flight counts.

Buffers.  One in-place kernel, ``_advance``, takes a block of x-planes one
step: it forms Lap(u) - n^2 (|u|^2 - 1) u there with the arithmetic of the
plain formula, so every level is bit-identical to it, then the leapfrog
update, the clamp and the finiteness check, and, when a ledger is kept, the
block's parts of the kinetic, gradient and penalty sums.  The leapfrog state
is two arrays, the previous and the current level.  ``_integrate`` steps every
level in one loop, whose step 0 is the second-order start from (u^0, g^0),
into three preallocated rotating buffers with one ``_Work``, which owns the
block plan, holds one block's scratch per worker and no full grid, and
returns each step's ledger row, and hands every level to its caller's
``read`` hook.  Storing is the reader's job: ``_slab`` preallocates the
stored levels of the box of cells its caller reads, which ``cell_box`` maps
from the cones read, in one (n_levels, wx, wy, wz, 3) array, and returns the
hook that copies the box out of each stored level.  It first checks that
this box and the run's working grids fit in memory (``_check_memory``, which
counts, allocating nothing, the scratch of a ``_Work`` built as the run
builds it).  ``run`` stores the whole grid, sampling u^0 into slot 0 and
stepping from it; the sweep's strongest run stores the read cones' box, its
weaker runs none.  ``run_to_file`` holds no slab: its hook appends each
stored level of the whole grid to an ``.npz`` on disk as it is stepped, so
it holds only the five working grids (u^0, g^0 and the three buffers) and
the scratch, which it checks against memory, and first checks the file
against the free disk (``_check_disk``).  A clamped step copies the box
faces from the previous level: every level shares the faces of u^0.

Threads.  ``_Work`` cuts a clamped box into blocks of whole x-planes, each
``_BLOCK_BYTES`` (512 KiB) of (planes, N, N, 3) or less but at least one
plane, a partition fixed by the grid alone; a periodic box, whose stencil
wraps across x, is one block.  ``_integrate`` opens one thread pool, as wide
as the process's CPU affinity mask, for the length of the run.  Every step gives
each worker one contiguous run of blocks, which it steps block by block in
its own block-sized scratch, so that each pass over a block stays in cache
(numpy's element-wise loops release the GIL); it runs in a copy of the
caller's context, so under its ``np.errstate``.  ``_Work.advance`` adds the
blocks' sums of a ledger row in block order, so it does not depend on the
number of threads; the levels do not either, being element-wise.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import FieldEvaluator, GridField, _dot, _slab_writer
from .spacetime import ConeSpec, DiskSpec


@dataclass(frozen=True)
class SolverConfig:
    """Grid, time span, penalty and boundary of one solver run.

    The run plan is derived once, at construction, and cannot be set:
    ``n_cells`` per axis, ``n_steps`` of ``dt_effective`` to ``T_end``, and
    every ``stride``-th level stored, ``n_levels`` in all (see
    ``_step_plan``)."""

    box_half_width: float
    h: float
    T_end: float
    penalty_n: float = 0.0
    dt: float | None = None
    boundary: str = "clamped"       # "clamped" (to initial data) or "periodic"
    store_stride: int | None = None  # None: auto, about 12 stored intervals
    n_cells: int = field(init=False)
    n_steps: int = field(init=False)
    stride: int = field(init=False)
    n_levels: int = field(init=False)
    dt_effective: float = field(init=False)

    def __post_init__(self):
        for name in ("box_half_width", "h", "T_end", "dt"):
            value = getattr(self, name)
            if name == "dt" and value is None:
                continue
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value}")
        if self.store_stride is not None and not (
                isinstance(self.store_stride, (int, np.integer))
                and self.store_stride >= 1):
            raise ValueError(
                f"store_stride must be an integer >= 1, got {self.store_stride}")
        if self.boundary not in ("clamped", "periodic"):
            raise ValueError("boundary must be 'clamped' or 'periodic'")
        # the force is n^2, the CFL bound 1/n
        if not (np.isfinite(self.penalty_n) and self.penalty_n >= 0.0):
            raise ValueError(
                f"penalty_n must be >= 0 and finite, got {self.penalty_n}")
        n_cells = round(2.0 * self.box_half_width / self.h)
        if abs(n_cells * self.h - 2.0 * self.box_half_width) > 1e-9 * self.h:
            raise ValueError("h must divide the box width")
        if self.dt is not None and self.dt > self.cfl_limit * (1.0 + 1e-12):
            raise ValueError(
                f"dt={self.dt} violates the stability bound {self.cfl_limit}")
        n_steps, stride = _step_plan(self)
        for name, value in (("n_cells", n_cells), ("n_steps", n_steps),
                            ("stride", stride),
                            ("n_levels", n_steps // stride + 1),
                            ("dt_effective", self.T_end / n_steps)):
            object.__setattr__(self, name, value)

    @property
    def cfl_limit(self) -> float:
        bounds = [self.h / np.sqrt(3.0)]
        if self.penalty_n > 0.0:
            bounds.append(1.0 / self.penalty_n)
        return 0.5 * min(bounds)  # Courant number 1/2

    @property
    def origin(self) -> np.ndarray:
        return np.full(3, -self.box_half_width + 0.5 * self.h)

    def cell_centers_1d(self) -> np.ndarray:
        return self.origin[0] + self.h * np.arange(self.n_cells)


@dataclass
class EnergyLedger:
    """Per-step discrete energies.

    Kinetic uses the midpoint velocity (u^{k+1} - u^{k-1}) / (2 dt) collocated
    with level k; the gradient term uses one-sided differences matching the
    Laplacian stencil so the discrete balance telescopes.
    """

    rows: list = field(default_factory=list)  # (step, time, kin, grad, pen)

    def add(self, step, time, kinetic, gradient, penalty):
        self.rows.append((step, time, kinetic, gradient, penalty))

    def totals(self) -> np.ndarray:
        a = np.asarray(self.rows, dtype=float)
        return a[:, 2] + a[:, 3] + a[:, 4]

    def relative_drift(self) -> float:
        tot = self.totals()
        if tot[0] == 0.0:
            return float(np.max(np.abs(tot)))
        return float(np.max(np.abs(tot - tot[0])) / abs(tot[0]))


def _step_plan(cfg: SolverConfig) -> tuple[int, int]:
    """Step count and stored-level stride.  The stride divides the step count
    so stored levels stay uniform in time: it is the largest divisor of the
    step count dt asks for between half the target stride and the target
    (``store_stride``, or about 12 stored intervals).  When there is none,
    the step count rounds up to a multiple of the target, which only shrinks
    dt."""
    dt = cfg.dt if cfg.dt is not None else cfg.cfl_limit
    n_steps = max(1, int(np.ceil(cfg.T_end / dt - 1e-12)))
    target = cfg.store_stride or max(1, int(np.ceil(n_steps / 12)))
    for stride in range(target, (target - 1) // 2, -1):
        if n_steps % stride == 0:
            return n_steps, stride
    return -(-n_steps // target) * target, target


def _cauchy_data(field: FieldEvaluator,
                 cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """The value and time derivative of ``field`` at t = 0 on the cell
    centres, each of shape (N, N, N, 3), from one ``jets_at`` call per
    x-plane of N^2 centres written into its plane of both, so that sampling
    holds the two and one plane's jets, within the five grids that
    ``_check_memory`` counts.  Raises ValueError, before any step, when
    either is not finite at some cell."""
    n = cfg.n_cells
    c = cfg.cell_centers_1d()
    u0, g0 = np.empty((n, n, n, 3)), np.empty((n, n, n, 3))
    yz = np.stack([np.repeat(c, n), np.tile(c, n)], axis=1)
    for i, x in enumerate(c):
        xs = np.concatenate([np.full((n * n, 1), x), yz], axis=1)
        values, dts, _ = field.jets_at(np.zeros(n * n), xs)
        u0[i], g0[i] = values.reshape(n, n, 3), dts.reshape(n, n, 3)
    for name, a in (("value", u0), ("time derivative", g0)):
        if not np.all(np.isfinite(a)):
            raise ValueError(
                f"the Cauchy data's {name} is not finite at some cell centre")
    return u0, g0


# bytes of the (planes, N, N, 3) scratch of one x-plane block of a clamped
# step: whole planes, at least one, so the grid alone fixes the partition and
# every ledger sum adds its block parts in one order on every machine
_BLOCK_BYTES = 512 * 1024


class _Scratch:
    """The scratch of one block, reused by every block its worker steps."""

    def __init__(self, shapes):
        arrays = map(np.empty, shapes)
        self.accel, self.tmp, self.constraint, self.scalar = arrays


class _Work:
    """The x-plane blocks [i0, i1) of a step, one contiguous run of them for
    each of at most ``workers`` workers with one block's ``_Scratch`` each,
    made on first use, the pool that runs the runs and whether a step sums
    its ledger row.  A clamped box is cut into blocks of ``_BLOCK_BYTES``, a
    periodic one, whose stencil wraps across x, is one."""

    def __init__(self, cfg: SolverConfig, pool, workers: int, ledger: bool):
        n = planes = cfg.n_cells
        if cfg.boundary == "clamped":
            planes = min(n, max(1, _BLOCK_BYTES // (n * n * 3 * 8)))
        self.blocks = [(i0, min(i0 + planes, n)) for i0 in range(0, n, planes)]
        k = min(workers, len(self.blocks))
        edges = [len(self.blocks) * w // k for w in range(k + 1)]
        self.runs = [self.blocks[b0:b1] for b0, b1 in zip(edges, edges[1:])]
        # a _Scratch: accel, tmp, constraint (|u|^2 - 1) and scalar
        self.shapes = [(planes, n, n, 3)] * 2 + [(planes, n, n)] * 2
        self.pool, self.ledger = pool, ledger

    @functools.cached_property
    def scratch(self) -> list:
        return [_Scratch(self.shapes) for _ in self.runs]

    def advance(self, u_prev, u, out, cfg: SolverConfig, g0):
        """``_advance`` on every block, each worker's run block after block
        in a copy of the caller's context, so under its ``np.errstate``.
        Every worker finishes before an error of any block is raised.
        Returns the kinetic, gradient and penalty energies of the ledger row
        of ``u``, its blocks' sums added in block order; None without one."""
        args = (u_prev, u, out, cfg, g0, self.ledger)
        futures = [self.pool.submit(contextvars.copy_context().run,
                                    _advance_run, r, s, *args)
                   for r, s in zip(self.runs, self.scratch)]
        for f in futures:
            f.exception()  # waits for the run, raising nothing
        parts = [f.result() for f in futures]
        if not self.ledger:
            return None
        kin, grad, pen = (sum(col) for col in zip(*(p for run in parts
                                                     for p in run)))
        return (0.5 * kin * cfg.h**3,
                0.5 * grad * cfg.h,  # (h^3 cells) * (1/h^2 differences)
                cfg.penalty_n**2 * 0.25 * pen * cfg.h**3)


def _advance_run(blocks, scratch: _Scratch, *args) -> list:
    """``_advance`` on each block of ``blocks`` in turn, in ``scratch``."""
    return [_advance(i0, i1, *args, scratch) for i0, i1 in blocks]


def _accel(u: np.ndarray, cfg: SolverConfig, s: _Scratch, i0: int,
           i1: int) -> tuple[int, int]:
    """Lap(u) - n^2 (|u|^2 - 1) u and |u|^2 - 1 on the x-planes [i0, i1),
    operation for operation as the textbook formula, into ``s.accel`` and
    ``s.constraint``, whose plane 0 is plane i0.  A clamped box skips its two
    x-faces, which the clamp overwrites; returns the planes [j0, j1) of the
    grid whose acceleration is written."""
    a, t = s.accel, s.tmp
    n = u.shape[0]
    if cfg.boundary == "periodic":  # one block, the whole box
        # -6u + (u[i-1] + u[i+1]) per axis, the order of the np.roll form
        np.multiply(u, -6.0, out=a)
        for ax in range(3):
            src, dst = np.moveaxis(u, ax, 0), np.moveaxis(t, ax, 0)
            np.add(src[:-2], src[2:], out=dst[1:-1])
            np.add(src[-1], src[1], out=dst[0])
            np.add(src[-2], src[0], out=dst[-1])
            a += t
        a /= cfg.h**2
        j0, j1 = 0, n
    else:
        # The six neighbours of flat index p sit at p +- 3N^2, 3N, 3, so each
        # term is one contiguous slice.  Cells on the y- and z-faces get
        # wrapped-around sums; the clamp overwrites them.
        j0, j1 = max(i0, 1), min(i1, n - 1)
        v = u.reshape(-1)
        o_in = a[j0 - i0:j1 - i0].reshape(-1)
        w_in = t[j0 - i0:j1 - i0].reshape(-1)
        d0, d1, d2 = 3 * n * n, 3 * n, 3
        lo, hi = j0 * d0, j1 * d0
        np.add(v[lo + d0:hi + d0], v[lo - d0:hi - d0], out=o_in)
        o_in += v[lo + d1:hi + d1]
        o_in += v[lo - d1:hi - d1]
        o_in += v[lo + d2:hi + d2]
        o_in += v[lo - d2:hi - d2]
        np.multiply(v[lo:hi], 6.0, out=w_in)
        o_in -= w_in
        o_in /= cfg.h**2
    _constraint(u[i0:i1], s.constraint[:i1 - i0], s.scalar[:i1 - i0])
    if cfg.penalty_n != 0.0:
        k0, k1 = j0 - i0, j1 - i0
        w = s.scalar[k0:k1]
        np.multiply(s.constraint[k0:k1], cfg.penalty_n**2, out=w)
        np.multiply(w[..., None], u[j0:j1], out=t[k0:k1])
        a[k0:k1] -= t[k0:k1]
    return j0, j1


def _constraint(u: np.ndarray, out: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|u|^2 - 1 into ``out``, with ``w`` of its shape as scratch: the three
    squared components added in order, bit for bit as
    ``np.sum(u**2, axis=-1) - 1.0`` but with no (..., 3) temporary."""
    np.multiply(u[..., 0], u[..., 0], out=out)
    np.multiply(u[..., 1], u[..., 1], out=w)
    out += w
    np.multiply(u[..., 2], u[..., 2], out=w)
    out += w
    out -= 1.0
    return out


def _advance(i0: int, i1: int, u_prev: np.ndarray | None, u: np.ndarray,
             out: np.ndarray, cfg: SolverConfig, g0: np.ndarray,
             ledger: bool, s: _Scratch):
    """The x-planes [i0, i1) of the level after ``u``, written into ``out``
    with scratch ``s``: the leapfrog step from ``u_prev`` or, when ``u_prev``
    is None, the second-order start from u^0 = ``u`` with time derivative
    ``g0``.  A clamped box copies its faces from ``u_prev`` (or u^0).  With
    ``ledger``, returns the block's kinetic, gradient and penalty sums of the
    ledger row of ``u``, whose velocity is ``g0`` at the start."""
    dt = cfg.dt_effective
    start = u_prev is None
    j0, j1 = _accel(u, cfg, s, i0, i1)
    a, new = s.accel[j0 - i0:j1 - i0], out[j0:j1]
    if start:
        a *= 0.5 * dt**2
        np.multiply(g0[j0:j1], dt, out=new)
        new += u[j0:j1]
        u_prev = u  # the faces of u^0
    else:
        a *= dt**2
        np.multiply(u[j0:j1], 2.0, out=new)
        new -= u_prev[j0:j1]
    new += a
    if cfg.boundary == "clamped":
        _apply_clamp(out, u_prev, i0, i1)
    if not np.all(np.isfinite(out[i0:i1])):
        raise FloatingPointError(
            "solver blow-up: check dt <= 0.5 * min(h/sqrt(3), 1/n) "
            f"(limit {cfg.cfl_limit}, dt {dt})")
    if not ledger:
        return None
    if start:
        vel = g0[i0:i1]
    else:  # midpoint velocity, summed before the gradient reuses s.tmp
        vel = np.subtract(out[i0:i1], u_prev[i0:i1], out=s.tmp[:i1 - i0])
        vel /= 2.0 * dt
    return (_sumsq(vel), _grad_energy(u, cfg, s.tmp, i0, i1),
            _sumsq(s.constraint[:i1 - i0]))


def _apply_clamp(u: np.ndarray, u0: np.ndarray, i0: int, i1: int) -> None:
    """The box faces of ``u0`` into ``u``, on the x-planes [i0, i1)."""
    for i in (0, u.shape[0] - 1):
        if i0 <= i < i1:
            u[i] = u0[i]
    ub, u0b = u[i0:i1], u0[i0:i1]
    ub[:, 0], ub[:, -1] = u0b[:, 0], u0b[:, -1]
    ub[:, :, 0], ub[:, :, -1] = u0b[:, :, 0], u0b[:, :, -1]


def _sumsq(a: np.ndarray) -> float:
    flat = a.reshape(-1)
    return float(_dot(flat, flat))


def _grad_energy(u: np.ndarray, cfg: SolverConfig, scratch: np.ndarray,
                 i0: int, i1: int) -> float:
    """Sum of the squared one-sided differences from the x-planes [i0, i1)
    along each axis, wrapping when periodic (one whole-box block), formed in
    the block-sized ``scratch``; the gradient energy is h/2 times its sum
    over the blocks."""
    n = u.shape[0]
    ub, sb = u[i0:i1], scratch[:i1 - i0]
    v, s = u.reshape(-1), sb.reshape(-1)
    b0, b1 = i0 * 3 * n * n, i1 * 3 * n * n
    total = 0.0
    for ax, d in enumerate((3 * n * n, 3 * n, 3)):
        # Flat neighbours d apart are neighbours along ``ax`` except where
        # they wrap across the last face; that face of the block holds
        # exactly those pairs plus the tail the subtraction leaves unset.
        e = min(b1, v.size - d)
        np.subtract(v[b0 + d:e + d], v[b0:e], out=s[:e - b0])
        if ax > 0 or i1 == n:
            last = (slice(None),) * ax + (-1,)
            if cfg.boundary == "periodic":
                first = (slice(None),) * ax + (0,)
                np.subtract(ub[first], ub[last], out=sb[last])
            else:
                sb[last] = 0.0
        total += _sumsq(sb)
    return total


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf here
        return None


def _cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks here
        return os.cpu_count() or 1


def _check_memory(cfg: SolverConfig, box, read_bytes: int = 0) -> None:
    """Raises ValueError when the stored slab plus the run's working grids
    would exceed physical memory: the ``box`` of cells (see ``cell_box``) of
    every stored level, five (N, N, N, 3) grids (u0, g0 and three rotating
    levels), which also bound sampling's u0, g0 and one plane's jets, the
    scratch of a ``_Work`` built as the run builds it, counted from its plan
    without allocating it, and the ``read_bytes`` its read hook allocates.
    A ``box`` of None is a run that holds no slab and writes its levels to
    disk (``run_to_file``), whose refusal names the bytes it would write."""
    n = cfg.n_cells
    work = _Work(cfg, None, _cores(), ledger=False)
    grids = 5 * n**3 * 3 * 8 + read_bytes + len(work.runs) * sum(
        8 * int(np.prod(s)) for s in work.shapes)
    if box is None:
        slab, cells = 0, "all"
    else:
        dims = [s.stop - s.start for s in box]
        slab = cfg.n_levels * int(np.prod(dims)) * 3 * 8
        cells = " x ".join(map(str, dims))
    plan = (f"{cfg.n_levels} levels of {cells} of the {n}^3 cells, stride "
            f"{cfg.stride} over {cfg.n_steps} steps")
    held = (f"no stored slab, writing {_file_bytes(cfg) / 2**30:.1f} GiB to "
            f"disk ({plan})" if box is None else
            f"a stored slab of {slab / 2**30:.1f} GiB ({plan})")
    ram = _physical_memory()
    if ram is not None and slab + grids > ram:
        raise ValueError(
            f"the run would need {(slab + grids) / 2**30:.1f} GiB: {held} and "
            f"{grids / 2**30:.1f} GiB of working grids, more than the "
            f"{ram / 2**30:.1f} GiB of physical memory")


# bytes of a slab archive beside its levels, at most: its zip and .npy
# headers and its four scalars, 1,260 bytes at the default grid
_ARCHIVE_BYTES = 4096


def _file_bytes(cfg: SolverConfig) -> int:
    """Bytes of the ``.npz`` that ``run_to_file`` writes, at most: every
    stored level of the whole grid, and ``_ARCHIVE_BYTES``."""
    return cfg.n_levels * cfg.n_cells**3 * 3 * 8 + _ARCHIVE_BYTES


def _check_disk(cfg: SolverConfig, path: Path) -> None:
    """Raises ValueError when the file system of the nearest existing
    directory on the way to ``path`` has fewer free bytes than
    ``run_to_file`` would write there."""
    where = next(p for p in path.parents if p.exists())
    need, free = _file_bytes(cfg), shutil.disk_usage(where).free
    if free < need:
        raise ValueError(
            f"{path.name} would need {need / 2**30:.2f} GiB on disk, more "
            f"than the {free / 2**30:.2f} GiB free at {where}")


def cell_box(cfg: SolverConfig, cones=None) -> tuple[slice, slice, slice]:
    """The box of cells, as slices of the (N, N, N) grid, that holds every
    node a reader of ``cones`` queries and the cells its derivatives read.

    A cone's widest slice is its base disk at t_min.  The box is the union
    over ``cones`` of that disk's bounding box, widened so that the cell of
    every node inside it has one more cell on each side inside the box: a
    ``GridField`` on the box then takes each derivative with the central
    difference it takes on the whole grid, never its face formula, and a
    node within rounding of a cell edge changes nothing.  Clipped to the
    grid, where both take the face formula; empty when ``cones`` is, and
    the whole grid when it is None."""
    n = cfg.n_cells
    if cones is None:
        return (slice(0, n),) * 3
    lo, hi = np.full(3, n), np.zeros(3, dtype=int)
    for cone in cones:
        r = cone.radius(cone.t_min)
        fr_lo = (cone.apex.x - r - cfg.origin) / cfg.h
        fr_hi = (cone.apex.x + r - cfg.origin) / cfg.h
        # a node in cell i reads cells i - 1 to i + 2; hi is exclusive
        lo = np.minimum(lo, np.floor(fr_lo - 1e-9).astype(int) - 1)
        hi = np.maximum(hi, np.floor(fr_hi + 1e-9).astype(int) + 3)
    lo, hi = np.clip(lo, 0, n), np.clip(hi, 0, n)
    return tuple(slice(int(a), int(max(a, b))) for a, b in zip(lo, hi))


def _slab(cfg: SolverConfig, box, read_bytes: int = 0):
    """The slab of the ``box`` of cells (see ``cell_box``) of every stored
    level, its origin at the box's first cell, and the ``read`` hook of
    ``_integrate`` that copies the box out of every stride-th level into it;
    None, and a hook that stores nothing, when the box is empty.  Checks
    the memory first (``_check_memory``), so that a caller building it before
    sampling fails on an oversized run before any sampling."""
    _check_memory(cfg, box, read_bytes)
    dims = tuple(s.stop - s.start for s in box)
    if not all(dims):
        return None, lambda k, level: None
    levels = np.empty((cfg.n_levels,) + dims + (3,))
    lo = np.array([s.start for s in box])
    slab = GridField(t0=0.0, dt=cfg.stride * cfg.dt_effective,
                     origin=cfg.origin + cfg.h * lo, h=cfg.h, data=levels)

    def store(k, level):
        slot, skip = divmod(k, cfg.stride)
        if not skip:
            levels[slot] = level[box]

    return slab, store


def run(cfg: SolverConfig, field: FieldEvaluator):
    """Integrate from the Cauchy data of ``field``, its value and time
    derivative at t = 0, to T_end; returns the (possibly strided) space-time
    slab of the whole grid and the energy ledger.  Raises ValueError before
    sampling when the slab and the working grids would not fit in memory."""
    slab, store = _slab(cfg, cell_box(cfg))  # checked before any sampling
    u0, g0 = _cauchy_data(field, cfg)
    store(0, u0)
    u0 = slab.data[0]  # step from slot 0, so that the sampled copy is freed
    return slab, _integrate(cfg, u0, g0, store)


def run_to_file(cfg: SolverConfig, field: FieldEvaluator, path):
    """``run``, writing its stored levels of the whole grid to ``path`` as
    they are stepped, as the ``.npz`` that ``GridField.save`` writes of
    ``run``'s slab, and holding no slab; returns the energy ledger.  Raises
    ValueError before sampling when the working grids would not fit in
    memory or the file on its disk.  ``path``'s directory is created once
    the data is sampled, and a failed run leaves no file at ``path``."""
    path = Path(path)
    _check_memory(cfg, None)
    _check_disk(cfg, path)
    u0, g0 = _cauchy_data(field, cfg)
    shape = (cfg.n_levels,) + (cfg.n_cells,) * 3 + (3,)
    with _slab_writer(path, shape, 0.0, cfg.stride * cfg.dt_effective,
                      cfg.origin, cfg.h) as append:
        def write(k, level):
            if k % cfg.stride == 0:
                append(level)

        return _integrate(cfg, u0, g0, write)


def _integrate(cfg: SolverConfig, u0: np.ndarray, g0: np.ndarray, read,
               ledger: bool = True):
    """Step from the Cauchy data ``u0``, ``g0``, not written, to T_end in one
    loop, ``_check_memory`` having checked the memory: step 0 is the
    second-order start, step k the leapfrog from levels k - 1 and k into
    buffer (k + 1) % 3.  ``read(k, level)`` sees every level k = 0 ...
    n_steps in order; a level is unchanged until the ``read`` of the level
    two after it returns, so ``read(k + 1)`` may use levels k - 1 and k.
    Storing a level is the reader's job (``_slab``, ``run_to_file``).
    Returns the ledger, None without ``ledger``."""
    # imported here, so that commands which run no solver do not pay the
    # import (and its logging module) in start-up time and memory
    from concurrent.futures import ThreadPoolExecutor

    dt, cores = cfg.dt_effective, _cores()
    rows = EnergyLedger() if ledger else None
    bufs = [np.empty_like(u0) for _ in range(3)]
    read(0, u0)
    with ThreadPoolExecutor(cores) as pool:
        work = _Work(cfg, pool, cores, ledger)
        prev, cur, t = None, u0, 0.0
        for k in range(cfg.n_steps):
            # cur is level k, at time t (dt summed k times)
            out = bufs[(k + 1) % 3]
            # the ledger row of level k needs level k + 1 for its velocity
            row = work.advance(prev, cur, out, cfg, g0)
            if ledger:
                rows.add(k, t, *row)
            read(k + 1, out)
            prev, cur, t = cur, out, t + dt
    return rows


@dataclass(frozen=True)
class SweepReport:
    """What ``penalization_sweep`` measured, row i for ``penalties[i]``,
    which strictly ascend: the last run, whose slab is kept, has the
    strongest penalty.  ``pair_distances[i]`` compares runs i and i + 1 over
    the cells of ``_cone_mask`` at T_end.  ``final_slab`` holds every level
    of that run in the ``cell_box`` of the cones the sweep was told would be
    read, or is None if none; a query outside the box raises ValueError."""

    penalties: list
    sample_times: list            # times of the two levels read, every run
    violations: np.ndarray        # (n_penalties, n_times): int (|u|^2-1)^2 dx
    pair_distances: np.ndarray    # (n_penalties - 1,): in-cone L2 distances
    final_slab: GridField = None  # the strongest run's stored cell box

    def violation_final(self) -> np.ndarray:
        return self.violations[:, -1]


def constraint_violation(u: np.ndarray, cfg: SolverConfig) -> float:
    """int (|u|^2 - 1)^2 dx over the cells of the level ``u``, formed in two
    (N, N, N) arrays."""
    c = np.empty(u.shape[:-1])
    return _sumsq(_constraint(u, c, np.empty_like(c))) * cfg.h**3


def incone_slice(cfg: SolverConfig, cone: ConeSpec, t: float) -> DiskSpec:
    """The disk of ``cone``'s slice at time t on which solver output is
    compared, by the sweep's mask and the in-cone distance: less 2 h.
    Raises ValueError when the margin leaves none of it."""
    radius = cone.radius(t) - 2.0 * cfg.h
    if not radius > 0.0:
        raise ValueError(
            f"the in-cone slice at t = {t:g} is empty: the cone's slice "
            f"there has radius {cone.radius(t):g}, not more than the "
            f"2 h = {2.0 * cfg.h:g} stencil margin")
    return DiskSpec(t, cone.apex.x, radius)


def _cone_mask(cfg: SolverConfig, cone: ConeSpec, t: float) -> np.ndarray:
    """The (N, N, N) cells whose centres lie in the ``incone_slice``."""
    disk = incone_slice(cfg, cone, t)
    dx, dy, dz = ((cfg.cell_centers_1d() - x0)**2 for x0 in disk.center)
    r = dx[:, None, None] + dy[None, :, None] + dz
    return np.sqrt(r, out=r) <= disk.radius


def penalization_sweep(schedule, field: FieldEvaluator,
                       cfg_template: SolverConfig, cone: ConeSpec,
                       read_cones=None) -> SweepReport:
    """Run the solver from the Cauchy data of ``field`` for each penalty on
    a shared grid, every run with the strongest penalty's CFL step so that
    all store the same levels, and no ledger.  Reports the constraint
    violations on the stored levels nearest T_end / 2 and T_end (at times
    ``sample_times``) and the L2 distances of consecutive runs over
    ``_cone_mask`` at T_end, formed after the last run from the in-cone
    cells that each run's ``read`` hook keeps.  Both are fixed by the shared
    plan before sampling and read by the hook, so that only the strongest
    run stores a slab: ``_slab`` builds every run's, checking its memory,
    before sampling, the strongest the ``cell_box`` of ``read_cones``, the
    cones its caller will read of ``final_slab`` (the whole grid when None),
    the others none.  Raises ValueError before sampling unless ``schedule``
    strictly ascends, so that its last run is its strongest, when a run
    would not fit in memory, or when no cell lies in the in-cone slice at
    T_end."""
    if len(schedule) == 0 or any(
            a >= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError("penalties must be non-empty and strictly ascend, "
                         f"got {tuple(schedule)!r}")
    dt = dataclasses.replace(cfg_template, penalty_n=float(schedule[-1]),
                             dt=None).cfl_limit
    cfgs = [dataclasses.replace(cfg_template, penalty_n=float(n), dt=dt)
            for n in schedule]
    # the weaker runs store no level, the strongest the box read of it; each
    # run's memory and constraint_violation's two (N, N, N) arrays are checked
    # here, before sampling, the strongest's first: a refusal names its slab
    violation = 2 * cfg_template.n_cells**3 * 8
    strongest = _slab(cfgs[-1], cell_box(cfg_template, read_cones), violation)
    slabs = [_slab(cfg, cell_box(cfg_template, ()), violation)
             for cfg in cfgs[:-1]] + [strongest]
    t_end = cfg_template.T_end
    mask = _cone_mask(cfg_template, cone, t_end)
    if not mask.any():
        raise ValueError(
            f"no cell centre lies in the in-cone slice at T_end = {t_end:g}: "
            f"the cone's slice there has radius {cone.radius(t_end):g}, "
            f"less 2 h = {2.0 * cfg_template.h:g}")
    level_dt = cfgs[0].stride * cfgs[0].dt_effective  # every run's slab.dt
    nearest = [int(round(t / level_dt)) for t in (t_end / 2.0, t_end)]
    # the Cauchy data is the same for every penalty: sample it once
    u0, g0 = _cauchy_data(field, cfg_template)
    violations = np.zeros((len(schedule), len(nearest)))
    kept = []  # each run's in-cone cells at T_end
    for i, (cfg, (_, store)) in enumerate(zip(cfgs, slabs)):
        def read(k, level):
            store(k, level)
            for j, lvl in enumerate(nearest):
                if k == lvl * cfg.stride:
                    violations[i, j] = constraint_violation(level, cfg)
            if k == cfg.n_steps:
                kept.append(level[mask])

        _integrate(cfg, u0, g0, read, ledger=False)
    dists = np.array([np.sqrt(_sumsq(a - b) * cfg_template.h**3)
                      for a, b in zip(kept, kept[1:])], dtype=float)
    return SweepReport(list(schedule), [lvl * level_dt for lvl in nearest],
                       violations, dists, final_slab=slabs[-1][0])


def trusted_region(cfg: SolverConfig, cone: ConeSpec) -> ConeSpec:
    """The cone that cone-energy evaluations of solver output may use: its
    truncation narrowed to [T_end/10, 9 T_end/10], inside the stored slab.
    Raises if that is empty, or unless the unit-speed backward domain of
    dependence of every point of the cone stays inside the box, one stencil
    margin (2 h) away from its faces.  A point (s, x) of the cone has
    |x - apex.x| <= apex.t - s, so its domain of dependence reaches
    max|x| + s <= max|apex.x| + apex.t; that is the bound checked."""
    if np.max(np.abs(cone.apex.x)) + cone.apex.t \
            > cfg.box_half_width - 2.0 * cfg.h:
        raise ValueError("cone base does not fit inside the box")
    margin = cfg.T_end / 10.0
    s = max(cone.t_min, margin)
    t = min(cone.t_max, cfg.T_end - margin)
    if not s < t:
        raise ValueError("cone interval too short for the solver slab")
    return ConeSpec(cone.apex, s, t)
