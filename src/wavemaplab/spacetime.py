"""Minkowski geometry: points, boosts along x3, backward light cones and their
time-slice disks.

Signature convention is (-,+,+,+) throughout the package.  Cones are stored
apex-based with backward orientation (radius shrinks toward the apex); all
energy accounting elsewhere is phrased over these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class SpacetimePoint:
    t: float
    x: np.ndarray  # shape (3,)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.x.shape != (3,):
            raise ValueError("spatial position must be a 3-vector")
        if not (np.isfinite(self.t) and np.all(np.isfinite(self.x))):
            raise ValueError("non-finite spacetime point")

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.t], self.x))

    @staticmethod
    def from_vector(v) -> "SpacetimePoint":
        v = np.asarray(v, dtype=float)
        return SpacetimePoint(float(v[0]), v[1:4].copy())


@dataclass(frozen=True)
class LorentzBoost:
    """Boost along the x3 axis with speed nu, |nu| < 1."""

    nu: float
    theta: float = field(init=False)
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        if not abs(self.nu) < 1.0:
            raise ValueError(f"boost speed must satisfy |nu| < 1, got {self.nu}")
        theta = 1.0 / np.sqrt(1.0 - self.nu**2)
        m = np.eye(4)
        m[0, 0] = m[3, 3] = theta
        m[0, 3] = m[3, 0] = -self.nu * theta
        m.setflags(write=False)
        object.__setattr__(self, "theta", float(theta))
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class DiskSpec:
    """A ball {|x - center| < radius} in the time slice {t = time}."""

    time: float
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0.0:
            raise ValueError("disk radius must be positive")


@dataclass(frozen=True)
class ConeSpec:
    """Backward light cone through an apex, truncated to a time interval.

    The slice at time s < apex.t is the disk of radius apex.t - s centered at
    the apex's spatial position.
    """

    apex: SpacetimePoint
    t_min: float
    t_max: float

    def __post_init__(self):
        if not self.t_min < self.t_max <= self.apex.t:
            raise ValueError("truncation must satisfy t_min < t_max <= apex time")

    def radius(self, s: float) -> float:
        return self.apex.t - s

    @staticmethod
    def from_base(base_center, base_radius: float, base_time: float,
                  height: float) -> "ConeSpec":
        """Cone whose base disk (radius base_radius) sits at base_time, truncated
        at base_time + height."""
        if not 0.0 < height < base_radius:
            raise ValueError("height must lie in (0, base_radius)")
        apex = SpacetimePoint(base_time + base_radius, base_center)
        return ConeSpec(apex, base_time, base_time + height)
