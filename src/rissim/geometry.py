"""Panel layout, coordinate conversions, and exact element-to-point distances.

Conventions: the panel lies in the x-y plane with its geometric center at
the origin. The polar angle ``theta`` is measured from the +z axis (panel
normal) and the azimuth ``phi`` in the x-y plane from +x. Element (m, n)
sits at (delta_m * dx, delta_n * dy, 0) with delta_m = m - (Nx - 1) / 2,
so even-sized panels have half-integer offsets and no center element.

A point (the feed, a link endpoint) is reached along its exact distance to
each element; a steer direction has no distance and is phased as a plane
wave where it is used.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError

_POSE_RTOL = 1e-9


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array: element counts and spacings in meters."""

    num_x: int
    num_y: int
    spacing_x: float = 4.9e-3
    spacing_y: float = 4.9e-3

    def __post_init__(self):
        for name in ("num_x", "num_y"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
        for name in ("spacing_x", "spacing_y"):
            spacing = getattr(self, name)
            if not (math.isfinite(spacing) and spacing > 0):
                raise ValueError(f"{name} must be finite and positive, got {spacing}")
        grid = np.meshgrid(self.offsets_x() * self.spacing_x, self.offsets_y() * self.spacing_y,
                           indexing="ij")
        for coordinates in grid:
            coordinates.flags.writeable = False
        object.__setattr__(self, "_grid", tuple(grid))

    @property
    def num_elements(self) -> int:
        return self.num_x * self.num_y

    def offsets_x(self) -> np.ndarray:
        """Index offsets delta_m, symmetric about zero."""
        return np.arange(self.num_x) - (self.num_x - 1) / 2.0

    def offsets_y(self) -> np.ndarray:
        return np.arange(self.num_y) - (self.num_y - 1) / 2.0

    def element_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(Nx, Ny) meshgrids of element x and y coordinates in meters.

        Built once with the geometry and shared by every caller, so read-only.
        """
        return self._grid

    @property
    def aperture_area(self) -> float:
        return (self.num_x * self.spacing_x) * (self.num_y * self.spacing_y)


@dataclass(frozen=True)
class Pose:
    """A point relative to the panel center, in both Cartesian and spherical form.

    Both representations are stored and must agree; use :meth:`from_cartesian`
    or :meth:`from_spherical` rather than filling all six fields by hand.
    """

    x: float
    y: float
    z: float
    range: float
    polar: float
    azimuth: float

    def __post_init__(self):
        _require_finite(x=self.x, y=self.y, z=self.z)
        ex, ey, ez = spherical_to_cartesian(self.range, self.polar, self.azimuth)
        tol = _POSE_RTOL * max(self.range, 1e-30)
        if abs(self.x - ex) > tol or abs(self.y - ey) > tol or abs(self.z - ez) > tol:
            raise ValueError(
                "inconsistent pose: cartesian "
                f"({self.x}, {self.y}, {self.z}) vs spherical "
                f"(d={self.range}, theta={self.polar}, phi={self.azimuth})"
            )

    @classmethod
    def from_cartesian(cls, x: float, y: float, z: float) -> "Pose":
        d, theta, phi = cartesian_to_spherical(x, y, z)
        return cls(x=x, y=y, z=z, range=d, polar=theta, azimuth=phi)

    @classmethod
    def from_spherical(cls, range_m: float, polar: float, azimuth: float) -> "Pose":
        x, y, z = spherical_to_cartesian(range_m, polar, azimuth)
        return cls(x=x, y=y, z=z, range=range_m, polar=polar, azimuth=azimuth)


def spherical_to_cartesian(range_m: float, polar: float, azimuth: float) -> tuple[float, float, float]:
    """(d, theta, phi) -> (d sin(theta) cos(phi), d sin(theta) sin(phi), d cos(theta))."""
    _require_finite(range=range_m, polar=polar, azimuth=azimuth)
    if range_m < 0:
        raise ValueError(f"range must be non-negative, got {range_m}")
    st = math.sin(polar)
    return (
        range_m * st * math.cos(azimuth),
        range_m * st * math.sin(azimuth),
        range_m * math.cos(polar),
    )


def cartesian_to_spherical(x: float, y: float, z: float) -> tuple[float, float, float]:
    """Inverse of :func:`spherical_to_cartesian`; angles are 0 where undefined."""
    d = math.sqrt(x * x + y * y + z * z)
    rho = math.hypot(x, y)
    theta = math.atan2(rho, z) if d > 0 else 0.0
    phi = math.atan2(y, x) if rho > 0 else 0.0
    return d, theta, phi


def _weight_grid(weights: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """W as a complex (Nx, Ny) array, checked against the panel."""
    weights = np.asarray(weights, dtype=complex)
    if weights.shape != (geom.num_x, geom.num_y):
        raise ValueError(f"weight grid shape {weights.shape} does not match panel "
                         f"({geom.num_x}, {geom.num_y})")
    return weights


def exact_distances(point: Pose, geom: ArrayGeometry) -> np.ndarray:
    """(Nx, Ny) array of spherical-wave distances from every element to the point.

    Raises :class:`DegenerateGeometryError` if the point coincides with an element.
    """
    xe, ye = geom.element_grid()
    # separable: the same operands, summed in the same order, as on the full grids
    d = np.sqrt(np.add.outer((point.x - xe[:, 0]) ** 2, (point.y - ye[0]) ** 2) + point.z**2)
    if not d.all():  # on d itself: z**2 underflows to 0 for a tiny z
        raise DegenerateGeometryError("point lies on the panel surface at an element")
    return d
