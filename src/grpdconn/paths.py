"""Closed-form curves in a space, with closed-form derivatives."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .geometry import Point, Space, Tangent


@dataclass(frozen=True)
class BasePath:
    """A curve [0,1] -> space given by closed-form point and velocity maps.

    ``velocity_coeffs(t)`` returns the coefficients of the velocity at
    ``point(t)``; :meth:`velocity` pairs them with that point.
    """

    space: Space
    point: Callable[[float], Point]
    velocity_coeffs: Callable[[float], tuple]
    is_loop: bool = False
    label: str = ""

    def velocity(self, t: float) -> Tangent:
        return Tangent(self.point(t), self.velocity_coeffs(t))

    def reversed(self) -> "BasePath":
        # Open-interval style reparametrization t -> 1 - t, derivative negated.
        return BasePath(
            self.space,
            lambda t: self.point(1.0 - t),
            lambda t: tuple(-1.0 * c for c in self.velocity_coeffs(1.0 - t)),
            is_loop=self.is_loop,
            label=self.label + "~rev",
        )


def constant_path(p: Point, label: str = "const") -> BasePath:
    zero = (0.0,) * p.patch.dim
    return BasePath(p.space, lambda t: p, lambda t: zero, is_loop=True, label=label)


def coordinate_path(
    space: Space,
    patch_index: int,
    coords_fn: Callable[[float], tuple],
    deriv_fn: Callable[[float], tuple],
    is_loop: bool = False,
    label: str = "",
) -> BasePath:
    def point(t: float) -> Point:
        return Point.raw(space, patch_index, coords_fn(t))

    def coeffs(t: float) -> tuple:
        return tuple(float(d) for d in deriv_fn(t))

    return BasePath(space, point, coeffs, is_loop=is_loop, label=label)

def subpath(path: BasePath, t0: float, t1: float) -> BasePath:
    """Restriction to [t0, t1] reparametrized over [0, 1] (chain rule)."""
    span = t1 - t0

    def point(t: float) -> Point:
        return path.point(t0 + span * t)

    def coeffs(t: float) -> tuple:
        return tuple(span * c for c in path.velocity_coeffs(t0 + span * t))

    return BasePath(path.space, point, coeffs, label=f"{path.label}[{t0},{t1}]")
