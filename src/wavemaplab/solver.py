"""Explicit leapfrog solver for the penalized Cauchy problem

    u_tt = Lap(u) - n^2 (|u|^2 - 1) u

on a cell-centered 3-D box, with a per-step discrete energy ledger, composite
CFL control (the penalty adds a linearized frequency ~ n sqrt(2) near the
sphere), and domain-of-dependence guards.

The grid is cell-centered so data derived from the singular analytic maps are
never sampled at their singular point; the effective smoothing scale of such
data is the grid spacing h.

Data.  ``run`` and ``penalization_sweep`` start from any ``FieldEvaluator``:
its value and time derivative at t = 0 on the cell centres, sampled with one
``jets_at`` call, are the Cauchy data (u^0, g^0), which no step writes.

Buffers.  One in-place kernel, ``_advance``, takes a block of x-planes one
step: it forms Lap(u) - n^2 (|u|^2 - 1) u there with the arithmetic of the
plain formula, so every level is bit-identical to it, then the leapfrog
update, the clamp and the finiteness check, and, when a ledger is kept, the
block's parts of the kinetic, gradient and penalty sums.  The leapfrog state
is two arrays, the previous and the current level.  ``_integrate`` steps
every level in one loop, whose step 0 is the second-order start from
(u^0, g^0), and preallocates everything: three rotating buffers, one
``_Work``, whose scratch is one block's per worker and no full grid, and the
stored levels in one (n_levels, wx, wy, wz, 3) array.  It stores only the
box of cells its caller reads, which ``cell_box`` maps from the cones read.
``run`` stores the whole grid, and steps each stored level straight into
its slot; any other box is copied out of the rotating buffer a level is
stepped into, and an empty one stores nothing.  A caller that reads a
whole level, as the sweep's weaker runs do, reads it through a hook as it
is stepped.  A clamped step copies the box faces from the previous level:
every level shares the faces of u^0.

Threads.  A clamped box is cut into blocks of whole x-planes, each
``_BLOCK_BYTES`` (512 KiB) of (planes, N, N, 3) or less but at least one
plane, a partition fixed by the grid alone; a periodic box, whose stencil
wraps across x, is one block.  ``run`` opens one thread pool, as wide as the
process's CPU affinity mask, for the length of the run.  Every step gives
each worker one contiguous run of blocks, which it steps block by block in
its own block-sized scratch, so that each pass over a block stays in cache
(numpy's element-wise loops release the GIL); it runs in a copy of the
caller's context, so under its ``np.errstate``.  A ledger row adds the
blocks' sums in block order, so it does not depend on the number of threads;
the levels do not either, being element-wise.
"""

from __future__ import annotations

import contextvars
import dataclasses
import os
from dataclasses import dataclass, field

import numpy as np

from .fields import FieldEvaluator, GridField, _dot
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


def _cell_centres(cfg: SolverConfig) -> np.ndarray:
    """The cell centres of the grid, shape (N**3, 3), in C order of the
    (N, N, N) cells."""
    c = cfg.cell_centers_1d()
    X, Y, Z = np.meshgrid(c, c, c, indexing="ij")
    return np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)


def _cauchy_data(field: FieldEvaluator,
                 cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """The value and time derivative of ``field`` at t = 0 on the cell
    centres, each of shape (N, N, N, 3), from one ``jets_at`` call.  Raises
    ValueError, before any step, when either is not finite at some cell."""
    n = cfg.n_cells
    values, dts, _ = field.jets_at(np.zeros(n**3), _cell_centres(cfg))
    for name, a in (("value", values), ("time derivative", dts)):
        if not np.all(np.isfinite(a)):
            raise ValueError(
                f"the Cauchy data's {name} is not finite at some cell centre")
    return values.reshape(n, n, n, 3), dts.reshape(n, n, n, 3)


# bytes of the (planes, N, N, 3) scratch of one x-plane block of a clamped
# step: whole planes, at least one, so the grid alone fixes the partition and
# every ledger sum adds its block parts in one order on every machine
_BLOCK_BYTES = 512 * 1024


class _Scratch:
    """The scratch of one block, reused by every block its worker steps."""

    def __init__(self, planes: int, n: int):
        self.accel = np.empty((planes, n, n, 3))
        self.tmp = np.empty((planes, n, n, 3))
        self.constraint = np.empty((planes, n, n))  # |u|^2 - 1
        self.scalar = np.empty((planes, n, n))


def _partition(cfg: SolverConfig, workers: int):
    """The planes of a block, the x-plane blocks [i0, i1) of a step and the
    contiguous run of blocks of each of at most ``workers`` workers.  A
    clamped box is cut into blocks of ``_BLOCK_BYTES``; a periodic one, whose
    stencil wraps across x, is one block."""
    n = cfg.n_cells
    planes = n
    if cfg.boundary == "clamped":
        planes = min(n, max(1, _BLOCK_BYTES // (n * n * 3 * 8)))
    blocks = [(i0, min(i0 + planes, n)) for i0 in range(0, n, planes)]
    k = min(workers, len(blocks))
    edges = [len(blocks) * w // k for w in range(k + 1)]
    return planes, blocks, [blocks[b0:b1] for b0, b1 in zip(edges, edges[1:])]


class _Work:
    """The x-plane blocks a step runs in, one contiguous run of them per
    worker with one block's ``_Scratch`` each, the pool that runs the runs
    and whether a step sums its ledger row.  No array of it spans more than
    one block's planes."""

    def __init__(self, cfg: SolverConfig, pool, workers: int, ledger: bool):
        planes, self.blocks, self.runs = _partition(cfg, workers)
        self.scratch = [_Scratch(planes, cfg.n_cells) for _ in self.runs]
        self.pool, self.ledger = pool, ledger
        self.sums = None  # kinetic, gradient and penalty sums of a ledger row

    def advance(self, u_prev, u, out, cfg: SolverConfig, g) -> None:
        """``_advance`` on every block, each worker's run block after block
        in a copy of the caller's context, so under its ``np.errstate``.
        Every worker finishes before an error of any block is raised; with a
        ledger, ``sums`` adds the blocks' sums in block order."""
        args = (u_prev, u, out, cfg, g, self.ledger)
        futures = [self.pool.submit(contextvars.copy_context().run,
                                    _advance_run, r, s, *args)
                   for r, s in zip(self.runs, self.scratch)]
        for f in futures:
            f.exception()  # waits for the run, raising nothing
        parts = [f.result() for f in futures]
        if self.ledger:
            self.sums = [sum(col) for col in zip(*(p for run in parts
                                                   for p in run))]


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
    ub, c, w = u[i0:i1], s.constraint[:i1 - i0], s.scalar[:i1 - i0]
    np.multiply(ub[..., 0], ub[..., 0], out=c)
    np.multiply(ub[..., 1], ub[..., 1], out=w)
    c += w
    np.multiply(ub[..., 2], ub[..., 2], out=w)
    c += w
    c -= 1.0
    if cfg.penalty_n != 0.0:
        k0, k1 = j0 - i0, j1 - i0
        w = s.scalar[k0:k1]
        np.multiply(s.constraint[k0:k1], cfg.penalty_n**2, out=w)
        np.multiply(w[..., None], u[j0:j1], out=t[k0:k1])
        a[k0:k1] -= t[k0:k1]
    return j0, j1


def _advance(i0: int, i1: int, u_prev: np.ndarray | None, u: np.ndarray,
             out: np.ndarray, cfg: SolverConfig, g: np.ndarray | None,
             ledger: bool, s: _Scratch):
    """The x-planes [i0, i1) of the level after ``u``, written into ``out``
    with scratch ``s``: the leapfrog step from ``u_prev`` or, when ``u_prev``
    is None, the second-order start from u^0 = ``u`` with time derivative
    ``g``.  A clamped box copies its faces from ``u_prev`` (or u^0).  With
    ``ledger``, returns the block's kinetic, gradient and penalty sums of the
    ledger row of ``u``."""
    dt = cfg.dt_effective
    j0, j1 = _accel(u, cfg, s, i0, i1)
    a, new = s.accel[j0 - i0:j1 - i0], out[j0:j1]
    if u_prev is None:
        a *= 0.5 * dt**2
        np.multiply(g[j0:j1], dt, out=new)
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
    if g is not None:
        vel = g[i0:i1]
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


def _ledger_row(sums, cfg: SolverConfig) -> tuple[float, float, float]:
    """Kinetic, gradient and penalty energies from a step's ledger sums."""
    kin, grad, pen = sums
    return (0.5 * kin * cfg.h**3,
            0.5 * grad * cfg.h,  # (h^3 cells) * (1/h^2 differences)
            cfg.penalty_n**2 * 0.25 * pen * cfg.h**3)


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


def _check_memory(cfg: SolverConfig, box=None) -> None:
    """Raises ValueError when the stored slab plus the run's working grids
    would exceed physical memory: the ``box`` of cells (see ``cell_box``;
    None: the whole grid) of every stored level, five (N, N, N, 3) grids
    (u0, g0 and three rotating levels) and the scratch of each worker, one
    block of two (planes, N, N, 3) and two (planes, N, N) arrays (see
    ``_partition``)."""
    n = cfg.n_cells
    dims = [s.stop - s.start for s in box or cell_box(cfg)]
    planes, _, runs = _partition(cfg, _cores())
    slab = cfg.n_levels * int(np.prod(dims)) * 3 * 8
    grids = (5 * n * 3 + len(runs) * planes * (3 + 3 + 1 + 1)) * n * n * 8
    ram = _physical_memory()
    if ram is not None and slab + grids > ram:
        raise ValueError(
            f"the run would need {(slab + grids) / 2**30:.1f} GiB: a stored "
            f"slab of {slab / 2**30:.1f} GiB ({cfg.n_levels} levels of "
            f"{' x '.join(map(str, dims))} of the {n}^3 cells, stride "
            f"{cfg.stride} over {cfg.n_steps} steps) and "
            f"{grids / 2**30:.1f} GiB of working grids, more than the "
            f"{ram / 2**30:.1f} GiB of physical memory")


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


def run(cfg: SolverConfig, field: FieldEvaluator):
    """Integrate from the Cauchy data of ``field``, its value and time
    derivative at t = 0, to T_end; returns the (possibly strided) space-time
    slab and the energy ledger."""
    _check_memory(cfg)  # fail on an oversized run before any sampling
    return _integrate(cfg, *_cauchy_data(field, cfg))


def _integrate(cfg: SolverConfig, u0: np.ndarray, g0: np.ndarray,
               ledger: bool = True, box=None, read=None):
    """``run`` from the sampled Cauchy data ``u0``, ``g0``, which are not
    written; the caller has checked the memory.  Every level is stepped in
    one loop: step 0 is the second-order start from ``u0`` and ``g0``, step
    k >= 1 the leapfrog from levels k - 1 and k.  Without ``ledger`` no
    energy is summed and the ledger returned is None.

    Each stored level keeps the ``box`` of cells of ``cell_box``, the whole
    grid when None, in a slab whose origin is that box's first cell; an
    empty box stores nothing and the slab returned is None.  ``read(slot,
    level)``, when given, sees every stored level whole, slot 0 (``u0``)
    included, as soon as it is stepped and before it is overwritten."""
    # imported here, so that commands which run no solver do not pay the
    # import (and its logging module) in start-up time and memory
    from concurrent.futures import ThreadPoolExecutor

    dt, stride, cores = cfg.dt_effective, cfg.stride, _cores()
    rows = EnergyLedger() if ledger else None
    whole = cell_box(cfg)
    box = box or whole
    dims = tuple(s.stop - s.start for s in box)
    levels = np.empty((cfg.n_levels,) + dims + (3,)) if all(dims) else None
    if levels is not None:
        levels[0] = u0[box]
    if read is not None:
        read(0, u0)
    # over the whole grid a stored level k + 1 is stepped straight into its
    # slot of ``levels``; any other level goes into bufs[(k + 1) % 3], out
    # of which a stored level's box is copied; u0 is never written
    in_slots = box == whole
    bufs = [np.empty_like(u0) for _ in range(3)]
    with ThreadPoolExecutor(cores) as pool:
        work = _Work(cfg, pool, cores, ledger)
        prev, cur, t = None, u0, 0.0
        for k in range(cfg.n_steps):
            # cur is level k, at time t (dt summed k times)
            slot, skip = divmod(k + 1, stride)
            out = levels[slot] if in_slots and not skip \
                else bufs[(k + 1) % 3]
            # the ledger row of level k needs level k + 1 for its velocity
            work.advance(prev, cur, out, cfg, g0 if k == 0 else None)
            if ledger:
                rows.add(k, t, *_ledger_row(work.sums, cfg))
            if not skip:
                if not in_slots and levels is not None:
                    levels[slot] = out[box]
                if read is not None:
                    read(slot, out)
            prev, cur, t = cur, out, t + dt

    if levels is None:
        return None, rows
    lo = np.array([s.start for s in box])
    slab = GridField(t0=0.0, dt=stride * dt, origin=cfg.origin + cfg.h * lo,
                     h=cfg.h, data=levels)
    return slab, rows


@dataclass(frozen=True)
class SweepReport:
    """What ``penalization_sweep`` measured, row i for ``penalties[i]``,
    which strictly ascend: the last run, whose slab is kept, has the
    strongest penalty.  ``pair_distances[i]`` compares runs i and i + 1 over
    the cells of ``_cone_mask`` at T_end.  ``final_slab`` holds every level
    of that run but only the cells of the ``cell_box`` of the cones the
    sweep was told would be read; a query outside it raises ValueError."""

    penalties: list
    sample_times: list            # times of the two levels read, every run
    violations: np.ndarray        # (n_penalties, n_times): int (|u|^2-1)^2 dx
    pair_distances: np.ndarray    # (n_penalties - 1,): in-cone L2 distances
    final_slab: GridField = None  # the strongest run's stored cell box

    def violation_final(self) -> np.ndarray:
        return self.violations[:, -1]


def constraint_violation(u: np.ndarray, cfg: SolverConfig) -> float:
    return _sumsq(np.sum(u**2, axis=-1) - 1.0) * cfg.h**3


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
    ``_cone_mask`` at T_end, both fixed by the shared plan before sampling
    and read from each level as it is stepped, so that only the strongest
    run stores a slab: the ``cell_box`` of ``read_cones``, the cones its
    caller will read of ``final_slab``, or the whole grid when None.
    Raises ValueError before sampling unless ``schedule`` strictly ascends,
    so that its last run is its strongest, or when no cell lies in the
    in-cone slice at T_end."""
    if len(schedule) == 0 or any(
            a >= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError("penalties must be non-empty and strictly ascend, "
                         f"got {tuple(schedule)!r}")
    dt = dataclasses.replace(cfg_template, penalty_n=float(schedule[-1]),
                             dt=None).cfl_limit
    cfgs = [dataclasses.replace(cfg_template, penalty_n=float(n), dt=dt)
            for n in schedule]
    # the weaker runs store no level, the strongest the box read of it
    boxes = [cell_box(cfg_template, ())] * (len(cfgs) - 1) \
        + [cell_box(cfg_template, read_cones)]
    for cfg, box in zip(cfgs, boxes):
        _check_memory(cfg, box)  # fail on an oversized run before sampling
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
    dists = np.zeros(len(schedule) - 1)
    for i, (cfg, box) in enumerate(zip(cfgs, boxes)):
        last = []  # only the in-cone cells at T_end carry over

        def read(slot, level):
            for j, lvl in enumerate(nearest):
                if slot == lvl:
                    violations[i, j] = constraint_violation(level, cfg)
            if slot == nearest[-1]:
                last.append(level[mask])

        slab, _ = _integrate(cfg, u0, g0, ledger=False, box=box, read=read)
        cur, = last
        if i:
            dists[i - 1] = np.sqrt(_sumsq(ref - cur) * cfg_template.h**3)
        ref = cur
    return SweepReport(list(schedule), [lvl * level_dt for lvl in nearest],
                       violations, dists, final_slab=slab)


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
