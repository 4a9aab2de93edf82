"""Coordinate model of manifolds: finite disjoint unions of R^a x (S^1)^b patches.

A :class:`Space` is an ordered list of patches. Each patch carries ``lin_count``
real-line coordinates followed by ``circ_count`` angle coordinates (radians,
normalized to [0, 2pi)), plus a finite set of excluded points with exclusion
radii. Zero-dimensional patches model discrete components (finite groups);
their identity is the ``component_label``.

Points and tangent vectors are attached to a patch. All distances are taken
in the flat patch metric, with wraparound on angle coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as _np

from .errors import EvaluationOutsideDomain

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Reduce an angle to [0, 2pi). Idempotent in floating point."""
    r = theta % TWO_PI
    # x % TWO_PI can round up to TWO_PI itself for tiny negative x.
    if r >= TWO_PI:
        return 0.0
    return r


def angle_gap(a: float, b: float) -> float:
    """Shortest signed-magnitude distance between two angles."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def wrap_difference(a: float, b: float) -> float:
    """Signed angle difference a - b reduced to (-pi, pi]."""
    d = (a - b) % TWO_PI
    if d > math.pi:
        d -= TWO_PI
    return d


@dataclass(frozen=True)
class Patch:
    """One R^lin x (S^1)^circ component of a Space."""

    lin_count: int
    circ_count: int
    component_label: str = ""
    excluded_points: tuple[tuple[tuple[float, ...], float], ...] = ()

    def __post_init__(self):
        if self.lin_count < 0 or self.circ_count < 0:
            raise ValueError("coordinate counts must be nonnegative")
        normalized = []
        for coords, radius in self.excluded_points:
            if len(coords) != self.dim:
                raise ValueError("excluded point has wrong dimension")
            if radius <= 0:
                raise ValueError("exclusion radius must be positive")
            normalized.append((self._normalize(tuple(float(c) for c in coords)), float(radius)))
        object.__setattr__(self, "excluded_points", tuple(normalized))

    @property
    def dim(self) -> int:
        return self.lin_count + self.circ_count

    def is_circ(self, i: int) -> bool:
        return i >= self.lin_count

    def _normalize(self, coords: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(
            normalize_angle(c) if self.is_circ(i) else c for i, c in enumerate(coords)
        )

    def coord_distance(self, a: tuple[float, ...], b: tuple[float, ...]) -> float:
        acc = 0.0
        for i in range(self.dim):
            d = angle_gap(a[i], b[i]) if self.is_circ(i) else a[i] - b[i]
            acc += d * d
        return math.sqrt(acc)

    def exclusion_violation(self, coords: tuple[float, ...]) -> float | None:
        """Distance shortfall to the nearest excluded ball, or None if clear."""
        for center, radius in self.excluded_points:
            if self.coord_distance(coords, center) < radius:
                return radius - self.coord_distance(coords, center)
        return None


@dataclass(frozen=True)
class Space:
    patches: tuple[Patch, ...]
    name: str = ""

    def __post_init__(self):
        labels = [p.component_label for p in self.patches]
        if len(set(labels)) != len(labels):
            raise ValueError("component labels must be unique")

    @property
    def dim(self) -> int:
        # Patch dimensions may differ across components only via excluded
        # structure; continuous dimension is per-patch.
        return self.patches[0].dim if self.patches else 0

    def patch(self, index: int) -> Patch:
        return self.patches[index]


@dataclass(frozen=True, slots=True)
class Point:
    """A point of a Space: patch index plus patch coordinates."""

    space: Space
    patch_index: int
    coords: tuple[float, ...]

    @classmethod
    def make(cls, space: Space, patch_index: int, coords) -> "Point":
        patch = space.patches[patch_index]
        coords = patch._normalize(tuple(float(c) for c in coords))
        if len(coords) != patch.dim:
            raise ValueError(
                f"expected {patch.dim} coordinates on patch {patch_index}, got {len(coords)}"
            )
        shortfall = patch.exclusion_violation(coords)
        if shortfall is not None:
            raise EvaluationOutsideDomain(
                f"point {coords} lies inside an excluded ball of patch "
                f"{patch.component_label or patch_index}"
            )
        return cls(space, patch_index, coords)

    @classmethod
    def raw(cls, space: Space, patch_index: int, coords) -> "Point":
        """Unchecked constructor for integrator internals (universal cover)."""
        return cls(space, patch_index, tuple(map(float, coords)))

    @property
    def patch(self) -> Patch:
        return self.space.patches[self.patch_index]

    def normalized(self) -> "Point":
        return Point(self.space, self.patch_index, self.patch._normalize(self.coords))


def distance(p: Point, q: Point) -> float:
    """Flat patch distance; +inf across distinct patches."""
    if p.space is not q.space and p.space != q.space:
        raise ValueError("points of different spaces")
    if p.patch_index != q.patch_index:
        return math.inf
    return p.patch.coord_distance(p.coords, q.coords)


@dataclass(frozen=True, slots=True)
class Tangent:
    """Tangent vector at a base point, in patch coordinates."""

    base: Point
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.base.coords):
            raise ValueError("tangent coefficient count must match the patch dimension")

    def __add__(self, other: "Tangent") -> "Tangent":
        return Tangent(self.base, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar: float) -> "Tangent":
        return Tangent(self.base, tuple(scalar * a for a in self.coeffs))

    @property
    def norm(self) -> float:
        return math.sqrt(sum(a * a for a in self.coeffs))


# ---------------------------------------------------------------------------
# products of spaces


@dataclass(frozen=True)
class ProductSpace:
    """Product of two Spaces with coordinate packing (linA, linB, circA, circB).

    Patches are all pairs (patchA, patchB). A factor patch's excluded balls
    carry over to a packed patch only when the partner patch is
    zero-dimensional: against a positive-dimensional partner the excluded set
    would be a cylinder, which a finite set of balls cannot describe, so
    construction raises ``ValueError`` instead.

    This class owns the packing: ``split``/``join`` move points and tangent
    coefficients between the product and its factors, ``split_rows``/
    ``join_rows`` do the same for blocks of coordinate rows, ``selectors``
    pick each factor's coordinates out of a packed patch, and
    ``factorwise_jacobian`` places the Jacobians of a factor-by-factor map
    into packed coordinates.
    """

    left: Space
    right: Space
    space: Space = field(init=False)
    # per packed patch: (left indices, right indices, left selector, right selector)
    _layout: tuple = field(init=False, repr=False, compare=False)
    # per packed patch: (left patch, right patch, la, la + lb, la + lb + ca), the
    # factor patch indices and the cuts of the packed coordinates
    # (linA | linB | circA | circB), la, lb being the factor patches' lin_count
    # and ca the left one's circ_count
    _cuts: tuple = field(init=False, repr=False, compare=False)
    # per packed patch: the left and the right factor's columns, each a slice
    # or, when they are not contiguous, a pair of slices
    _columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        patches, layout, cuts, columns = [], [], [], []
        for ia, pa in enumerate(self.left.patches):
            for ib, pb in enumerate(self.right.patches):
                if (pa.excluded_points and pb.dim) or (pb.excluded_points and pa.dim):
                    raise ValueError(
                        f"{self.left.name}x{self.right.name}: excluded balls of a factor "
                        "patch need a zero-dimensional partner patch")
                excl = pa.excluded_points + pb.excluded_points
                label = f"{pa.component_label}|{pb.component_label}"
                patches.append(
                    Patch(
                        pa.lin_count + pb.lin_count,
                        pa.circ_count + pb.circ_count,
                        label,
                        excl,
                    )
                )
                la, lb, ca, dim = pa.lin_count, pb.lin_count, pa.circ_count, pa.dim + pb.dim
                left = _np.array([*range(la), *range(la + lb, la + lb + ca)], dtype=_np.intp)
                right = _np.array([*range(la, la + lb), *range(la + lb + ca, dim)], dtype=_np.intp)
                sel_left, sel_right = _np.eye(dim)[left], _np.eye(dim)[right]
                sel_left.setflags(write=False)
                sel_right.setflags(write=False)
                layout.append((left, right, sel_left, sel_right))
                cuts.append((ia, ib, la, la + lb, la + lb + ca))
                columns.append((_slices(0, la, la + lb, la + lb + ca),
                                _slices(la, la + lb, la + lb + ca, dim)))
        object.__setattr__(
            self,
            "space",
            Space(tuple(patches), name=f"{self.left.name}x{self.right.name}"),
        )
        object.__setattr__(self, "_layout", tuple(layout))
        object.__setattr__(self, "_cuts", tuple(cuts))
        object.__setattr__(self, "_columns", tuple(columns))

    def unpack_index(self, packed_index: int) -> tuple[int, int]:
        nb = len(self.right.patches)
        return packed_index // nb, packed_index % nb

    def pack_index(self, ia: int, ib: int) -> int:
        return ia * len(self.right.patches) + ib

    def selectors(self, packed_index: int):
        """Read-only 0/1 matrices taking packed coefficients to each factor's."""
        return self._layout[packed_index][2:]

    def factorwise_jacobian(self, packed_index: int, J_left, J_right,
                            domain: "ProductSpace", domain_index: int):
        """Jacobian into patch ``packed_index`` of a map acting on each factor
        separately, J_left on the left factors and J_right on the right ones,
        from patch ``domain_index`` of the product ``domain``. Leading axes of
        the factor Jacobians, the same for both, are batch axes."""
        rows_left, rows_right = self._layout[packed_index][:2]
        cols_left, cols_right = domain._layout[domain_index][:2]
        J = _np.zeros(_np.shape(J_left)[:-2] + (len(rows_left) + len(rows_right),
                               len(cols_left) + len(cols_right)))
        J[..., rows_left[:, None], cols_left] = J_left
        J[..., rows_right[:, None], cols_right] = J_right
        return J

    def factor_rows(self, packed_index: int, rows, side: int):
        """The left (side 0) or right (side 1) factor's columns of a (k, dim)
        block on a packed patch, cut by slices (a view where they are
        contiguous)."""
        cols = self._columns[packed_index][side]
        if type(cols) is slice:
            return rows[:, cols]
        return _np.concatenate((rows[:, cols[0]], rows[:, cols[1]]), axis=1)

    def split_rows(self, packed_index: int, rows):
        """Each factor's columns of a (k, dim) block on a packed patch."""
        return self.factor_rows(packed_index, rows, 0), self.factor_rows(packed_index, rows, 1)

    def join_rows(self, packed_index: int, rows_left, rows_right):
        """The packed block of two factor blocks; a one-row block broadcasts,
        also against zero rows."""
        _, _, i, j, k = self._cuts[packed_index]
        if (i == j or j == k) and len(rows_left) == len(rows_right):
            # no left circle columns follow right line ones: the packing is
            # the left block, then the right one
            return _np.concatenate((rows_left, rows_right), axis=1)
        out = _np.empty((len(rows_right) if len(rows_left) == 1 else len(rows_left),
                         rows_left.shape[1] + rows_right.shape[1]))
        out[:, :i] = rows_left[:, :i]
        out[:, i:j] = rows_right[:, :j - i]
        out[:, j:k] = rows_left[:, i:]
        out[:, k:] = rows_right[:, j - i:]
        return out

    def join(self, a: Point, b: Point) -> Point:
        index = self.pack_index(a.patch_index, b.patch_index)
        _, _, i, j, _ = self._cuts[index]
        ca, cb = a.coords, b.coords
        # a Point's coordinates are already floats: skip Point.raw's conversion
        return Point(self.space, index, ca[:i] + cb[:j - i] + ca[i:] + cb[j - i:])

    def split(self, p: Point) -> tuple[Point, Point]:
        ia, ib, i, j, k = self._cuts[p.patch_index]
        c = p.coords
        return Point(self.left, ia, c[:i] + c[j:k]), Point(self.right, ib, c[i:j] + c[k:])


def _slices(a: int, b: int, c: int, d: int):
    """Columns a:b and c:d as one slice, or as a pair of slices when both are
    non-empty and do not touch."""
    if b == c:
        return slice(a, d)
    if c == d:
        return slice(a, b)
    if a == b:
        return slice(c, d)
    return slice(a, b), slice(c, d)


# convenience space constructors used throughout the catalog

def line(n: int = 1, name: str = "R", excluded=()) -> Space:
    return Space((Patch(n, 0, "", tuple(excluded)),), name=name)


def circle(name: str = "S1") -> Space:
    return Space((Patch(0, 1, ""),), name=name)


def point_space(name: str = "pt") -> Space:
    return Space((Patch(0, 0, ""),), name=name)


def finite(labels, name: str = "") -> Space:
    return Space(tuple(Patch(0, 0, str(l)) for l in labels), name=name or "finite")
