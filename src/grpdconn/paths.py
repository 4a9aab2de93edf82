"""Closed-form curves in a space, with closed-form derivatives."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .geometry import Point, Space, Tangent


@dataclass(frozen=True)
class BasePath:
    """A curve [0,1] -> space given by closed-form point and velocity maps.

    ``velocity_coeffs``, when given, returns ``velocity(t).coeffs`` without
    building the velocity's base point.
    """

    space: Space
    point: Callable[[float], Point]
    velocity: Callable[[float], Tangent]
    is_loop: bool = False
    label: str = ""
    velocity_coeffs: Optional[Callable[[float], tuple]] = None

    def reversed(self) -> "BasePath":
        # Open-interval style reparametrization t -> 1 - t, derivative negated
        # (as Tangent.__rmul__ negates it, in velocity_coeffs too).
        coeffs = self.velocity_coeffs
        return BasePath(
            self.space,
            lambda t: self.point(1.0 - t),
            lambda t: -1.0 * self.velocity(1.0 - t),
            is_loop=self.is_loop,
            label=self.label + "~rev",
            velocity_coeffs=None if coeffs is None
            else lambda t: tuple(-1.0 * c for c in coeffs(1.0 - t)),
        )


def constant_path(p: Point, label: str = "const") -> BasePath:
    zero = Tangent(p, (0.0,) * p.patch.dim)
    return BasePath(
        p.space,
        lambda t: p,
        lambda t: zero,
        is_loop=True,
        label=label,
    )


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

    def velocity(t: float) -> Tangent:
        return Tangent(point(t), coeffs(t))

    return BasePath(space, point, velocity, is_loop=is_loop, label=label,
                    velocity_coeffs=coeffs)

def subpath(path: BasePath, t0: float, t1: float) -> BasePath:
    """Restriction to [t0, t1] reparametrized over [0, 1] (chain rule)."""
    span = t1 - t0

    def point(t: float) -> Point:
        return path.point(t0 + span * t)

    def velocity(t: float) -> Tangent:
        return span * path.velocity(t0 + span * t)

    return BasePath(path.space, point, velocity, label=f"{path.label}[{t0},{t1}]")
