"""Coordinate maps between spaces and their differentiation.

A :class:`SmoothMap` evaluates pointwise and declares its Jacobian; a map
built without one is refused. A Jacobian wrapped in :class:`PatchJacobian` is
declared to depend only on the patches of its arguments and is computed once
per patch. :func:`fd_jacobian` is a central finite-difference reference with
wraparound on angle coordinates, against which the declared Jacobians are
tested.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationOutsideDomain
from .geometry import Point, Space, wrap_difference


class PatchJacobian:
    """A Jacobian, or a pair of ``mul`` partials, declared to depend only on
    the patches of its arguments; so does the image patch of the map.

    ``fn`` is called once per tuple of argument patch indices; later calls
    return the same read-only arrays. The declaration is the type: code that
    relies on it checks ``isinstance(map.jac, PatchJacobian)``.
    """

    __slots__ = ("fn", "_memo")

    def __init__(self, fn: Callable):
        self.fn = fn
        self._memo: dict = {}

    def __call__(self, *args: Point):
        key = tuple([p.patch_index for p in args])
        hit = self._memo.get(key)
        if hit is None:
            out = self.fn(*args)
            hit = tuple(map(_frozen, out)) if isinstance(out, tuple) else _frozen(out)
            self._memo[key] = hit
        return hit


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SmoothMap:
    """A map of spaces. ``cut`` is set on coordinate cuts (identities, factor
    projections, maps to a point): ``cut(p, C)`` takes a ``(k, n)`` block of
    rows on patch ``p`` to its image patch and image rows, by column slices.
    A cut is linear in the coordinates, so the same call pushes tangent rows
    forward."""

    domain: Space
    codomain: Space
    eval: Callable[[Point], Point]
    jac: Callable[[Point], np.ndarray]
    name: str = ""
    cut: Optional[Callable[[int, np.ndarray], tuple[int, np.ndarray]]] = None

    def __call__(self, p: Point) -> Point:
        return self.eval(p)


def identity_map(space: Space, name: str = "id") -> SmoothMap:
    return SmoothMap(space, space, lambda p: p,
                     PatchJacobian(lambda p: np.eye(space.dim)), name, lambda p, C: (p, C))


def fd_jacobian(map_: Callable[[Point], Point], p: Point, step: float) -> np.ndarray:
    """Central finite-difference Jacobian of any map of points (a
    :class:`SmoothMap` or a plain function) at ``p``, with angle wraparound;
    it refuses a probe that hits an exclusion or jumps image patches."""
    center = map_(p)
    cols = []
    for i in range(p.patch.dim):
        probes = []
        for sign in (1.0, -1.0):
            coords = list(p.coords)
            coords[i] += sign * step
            try:
                probes.append(map_(Point.raw(p.space, p.patch_index, tuple(coords))))
            except EvaluationOutsideDomain as exc:
                name = getattr(map_, "name", "") or "map"
                raise EvaluationOutsideDomain(
                    f"finite-difference probe of {name} hit an exclusion") from exc
        plus, minus = probes
        if not plus.patch_index == minus.patch_index == center.patch_index:
            raise EvaluationOutsideDomain(
                "finite-difference probe jumped patches; map is not smooth here")
        cols.append([(wrap_difference(a, b) if center.patch.is_circ(j) else a - b) / (2.0 * step)
                     for j, (a, b) in enumerate(zip(plus.coords, minus.coords))])
    return np.asarray(cols, dtype=float).T if cols else np.zeros((center.patch.dim, 0))


def jacobian(map_: SmoothMap, p: Point) -> np.ndarray:
    """The declared Jacobian matrix of ``map_`` at ``p``."""
    return np.asarray(map_.jac(p), dtype=float)


@dataclass(frozen=True)
class PairMap:
    """A map of two arguments (used for groupoid multiplication).

    ``eval2(g, h)`` returns the image point; ``jac2(g, h)`` returns the pair
    of partial Jacobians (d/dg, d/dh). Every catalog multiplication passes a
    :class:`PatchJacobian`, so its partials are computed once per patch pair.
    """

    left: Space
    right: Space
    codomain: Space
    eval2: Callable[[Point, Point], Point]
    jac2: Callable[[Point, Point], tuple[np.ndarray, np.ndarray]]
    name: str = ""

    def __call__(self, g: Point, h: Point) -> Point:
        return self.eval2(g, h)

    def partials(self, g: Point, h: Point):
        A, B = self.jac2(g, h)
        return np.asarray(A, dtype=float), np.asarray(B, dtype=float)
