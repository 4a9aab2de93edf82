"""Coordinate maps between spaces and their differentiation.

A :class:`SmoothMap` evaluates pointwise and optionally carries an analytic
Jacobian. :func:`jacobian` falls back to central finite differences with
wraparound handling on angle coordinates in both domain and codomain. A
Jacobian wrapped in :class:`PatchJacobian` is declared to depend only on the
patches of its arguments and is computed once per patch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT, Config
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
    jac: Optional[Callable[[Point], np.ndarray]] = None
    name: str = ""
    cut: Optional[Callable[[int, np.ndarray], tuple[int, np.ndarray]]] = None

    def __call__(self, p: Point) -> Point:
        return self.eval(p)


def identity_map(space: Space, name: str = "id") -> SmoothMap:
    return SmoothMap(space, space, lambda p: p,
                     PatchJacobian(lambda p: np.eye(space.dim)), name, lambda p, C: (p, C))


def fd_jacobian(map_: SmoothMap, p: Point, step: float) -> np.ndarray:
    """Central finite-difference Jacobian with angle wraparound."""
    patch = p.patch
    base = np.asarray(p.coords, dtype=float)
    center_image = map_.eval(p)
    out_patch = center_image.patch
    cols = []
    for i in range(patch.dim):
        plus = base.copy()
        minus = base.copy()
        plus[i] += step
        minus[i] -= step
        try:
            f_plus = map_.eval(Point.raw(p.space, p.patch_index, tuple(plus)))
            f_minus = map_.eval(Point.raw(p.space, p.patch_index, tuple(minus)))
        except EvaluationOutsideDomain as exc:
            raise EvaluationOutsideDomain(
                f"finite-difference probe of {map_.name or 'map'} hit an exclusion"
            ) from exc
        if f_plus.patch_index != center_image.patch_index or (
            f_minus.patch_index != center_image.patch_index
        ):
            raise EvaluationOutsideDomain(
                "finite-difference probe jumped patches; map is not smooth here"
            )
        col = []
        for j in range(out_patch.dim):
            if out_patch.is_circ(j):
                d = wrap_difference(f_plus.coords[j], f_minus.coords[j])
            else:
                d = f_plus.coords[j] - f_minus.coords[j]
            col.append(d / (2.0 * step))
        cols.append(col)
    if not cols:
        return np.zeros((out_patch.dim, 0))
    return np.asarray(cols, dtype=float).T


def jacobian(map_: SmoothMap, p: Point, cfg: Config = DEFAULT) -> np.ndarray:
    """Jacobian matrix of ``map_`` at ``p`` (analytic when supplied)."""
    if map_.jac is not None:
        return np.asarray(map_.jac(p), dtype=float)
    return fd_jacobian(map_, p, cfg.numeric_fd_step)


@dataclass(frozen=True)
class PairMap:
    """A map of two arguments (used for groupoid multiplication).

    ``eval2(g, h)`` returns the image point; ``jac2(g, h)`` returns the pair
    of partial Jacobians (d/dg, d/dh). Every catalog multiplication passes a
    :class:`PatchJacobian`, so its partials are computed once per patch pair.
    When ``jac2`` is missing, partials are taken by holding the other slot
    fixed; the evaluation itself is expected to snap near-composable inputs,
    so off-diagonal probes remain valid.
    """

    left: Space
    right: Space
    codomain: Space
    eval2: Callable[[Point, Point], Point]
    jac2: Optional[Callable[[Point, Point], tuple[np.ndarray, np.ndarray]]] = None
    name: str = ""

    def __call__(self, g: Point, h: Point) -> Point:
        return self.eval2(g, h)

    def partials(self, g: Point, h: Point, cfg: Config = DEFAULT):
        if self.jac2 is not None:
            A, B = self.jac2(g, h)
            return np.asarray(A, dtype=float), np.asarray(B, dtype=float)
        left_frozen = SmoothMap(self.left, self.codomain, lambda q: self.eval2(q, h))
        right_frozen = SmoothMap(self.right, self.codomain, lambda q: self.eval2(g, q))
        return (
            fd_jacobian(left_frozen, g, cfg.numeric_fd_step),
            fd_jacobian(right_frozen, h, cfg.numeric_fd_step),
        )
