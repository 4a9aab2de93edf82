"""Tangent structure maps and subbundle/subgroupoid linear algebra.

The tangent bundle of a groupoid is itself a groupoid whose structure maps
are the Jacobians of the base maps. This module computes those matrices,
checks whether a sampled family of subspace frames is closed under them, and
implements the exact fibrewise correspondences of split short exact
sequences (right splittings, left splittings, complements).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT, Config
from .errors import DegenerateBasis, FrameRankMismatch, NotASplitting
from .geometry import Point, Tangent
from .groupoid import Groupoid, _Worst, _coords, rng_for
from .linalg import (
    column_space,
    frame_matrix,
    intersect_columns,
    nullspace,
    rank,
    solve_least_squares,
    subspace_residual,
    tangent_frame,
)
from .smoothmap import jacobian


@dataclass
class SubbundleFrame:
    """A spanning frame for a candidate subspace of T_gG."""

    base: Point
    basis: list[Tangent]

    def matrix(self) -> np.ndarray:
        return frame_matrix(self.basis)

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass
class TangentStructure:
    """Structure-map Jacobians at an arrow (and product data at a pair)."""

    Ts: np.ndarray
    Tt: np.ndarray
    Ti: np.ndarray
    Tu_src: np.ndarray
    Tu_tgt: np.ndarray
    Tm: Optional[np.ndarray] = None            # action on composable-basis coords
    pair_basis: Optional[list[np.ndarray]] = None  # stacked (u, v) columns
    Tm_partials: Optional[tuple[np.ndarray, np.ndarray]] = None


def composable_tangent_basis(G: Groupoid, g: Point, h: Point, cfg: Config = DEFAULT):
    """Orthonormal basis of {(u, v) : Ts_g(u) = Tt_h(v)} as stacked columns."""
    Ts = jacobian(G.src, g)
    Tt = jacobian(G.tgt, h)
    constraint = np.hstack([Ts, -Tt])
    return nullspace(constraint, cfg)


def tm_apply(G: Groupoid, g: Point, h: Point, u, v) -> np.ndarray:
    """Tangent of multiplication applied to a composable tangent pair."""
    A, B = G.mul.partials(g, h)
    u = np.asarray(u.coeffs if isinstance(u, Tangent) else u, dtype=float)
    v = np.asarray(v.coeffs if isinstance(v, Tangent) else v, dtype=float)
    return A @ u + B @ v


def tangent_structure_maps(G: Groupoid, at, cfg: Config = DEFAULT) -> TangentStructure:
    """Jacobians of the structure maps at an arrow, or at a composable pair.

    For a pair (g, h), ``Tm`` is the Jacobian of multiplication restricted to
    the composable-pair tangent space, returned together with an explicit
    basis of that subspace (columns stacked as (u, v)).
    """
    if isinstance(at, tuple):
        g, h = at
        base = tangent_structure_maps(G, g, cfg)
        A, B = G.mul.partials(g, h)
        basis_cols = composable_tangent_basis(G, g, h, cfg)
        dim_g = g.patch.dim
        tm_cols = []
        for j in range(basis_cols.shape[1]):
            u = basis_cols[:dim_g, j]
            v = basis_cols[dim_g:, j]
            tm_cols.append(A @ u + B @ v)
        Tm = (
            np.stack(tm_cols, axis=1)
            if tm_cols
            else np.zeros((G.mul(g, h).patch.dim, 0))
        )
        return TangentStructure(
            Ts=base.Ts,
            Tt=base.Tt,
            Ti=base.Ti,
            Tu_src=base.Tu_src,
            Tu_tgt=base.Tu_tgt,
            Tm=Tm,
            pair_basis=[basis_cols[:, j] for j in range(basis_cols.shape[1])],
            Tm_partials=(A, B),
        )
    g = at
    return TangentStructure(
        Ts=jacobian(G.src, g),
        Tt=jacobian(G.tgt, g),
        Ti=jacobian(G.inv, g),
        Tu_src=jacobian(G.unit, G.src(g)),
        Tu_tgt=jacobian(G.unit, G.tgt(g)),
    )


@dataclass
class SubgroupoidVerdict:
    passed: bool
    max_residual: float
    clauses: dict[str, float]
    witness: Optional[dict]
    ranks_by_component: dict
    n_samples: int
    seed: int


def vb_subgroupoid_check(
    G: Groupoid,
    frames: Callable[[Point], SubbundleFrame],
    n_samples: int,
    seed: int,
    cfg: Config = DEFAULT,
    tol: float | None = None,
) -> SubgroupoidVerdict:
    """Sampled closure of a frame family under the tangent structure maps.

    Clauses: inversion Ti(S_g) ⊂ S_{g⁻¹}; source/target projection
    Tu(Ts(S_g)) ⊂ S_{u(s(g))} (and target analogue); the unit-section
    invariance at units; multiplication Tm(u, v) ∈ S_{gh} for composable
    tangent pairs solved inside the frames; and rank constancy of the
    side intersection S|_M ∩ TM over arrow-connected components.
    """
    tol = cfg.conn_tol_mult if tol is None else tol
    worst = _Worst()
    rank_by_patch: dict[int, int] = {}
    links: list[tuple[int, int]] = []

    expected_rank = None
    for i in range(n_samples):
        rng = rng_for(seed, 31, i)
        g = G.arrow_sampler(rng)
        fr = frames(g)
        if expected_rank is None:
            expected_rank = fr.rank
        elif fr.rank != expected_rank:
            raise FrameRankMismatch(
                f"frame rank {fr.rank} at sample {i}, expected {expected_rank}"
            )
        maps = tangent_structure_maps(G, g, cfg)
        gi = G.inv(g)
        fr_inv = frames(gi)
        w = {"g": _coords(g)}
        for v in fr.basis:
            worst.record(
                "inversion",
                subspace_residual(maps.Ti @ np.asarray(v.coeffs), fr_inv.basis, cfg),
                w,
            )
        for (proj, unit_of, tag) in (
            (maps.Ts, G.src(g), "source"),
            (maps.Tt, G.tgt(g), "target"),
        ):
            ug = G.unit(unit_of)
            fr_unit = frames(ug)
            Tu = jacobian(G.unit, unit_of)
            for v in fr.basis:
                worst.record(
                    tag,
                    subspace_residual(Tu @ (proj @ np.asarray(v.coeffs)), fr_unit.basis, cfg),
                    w,
                )

        # unit-section invariance and side-rank bookkeeping at sampled units
        x = G.object_sampler(rng)
        ux = G.unit(x)
        fr_u = frames(ux)
        Ts_u = jacobian(G.src, ux)
        Tu_x = jacobian(G.unit, x)
        for v in fr_u.basis:
            worst.record(
                "unit",
                subspace_residual(Tu_x @ (Ts_u @ np.asarray(v.coeffs)), fr_u.basis, cfg),
                {"object": _coords(x)},
            )
        side = intersect_columns(fr_u.matrix(), Tu_x, cfg)
        r = side.shape[1]
        prev = rank_by_patch.setdefault(x.patch_index, r)
        if prev != r:
            worst.record("side_rank_constancy", 1.0, {"object": _coords(x)})

        # multiplication clause on a composable pair
        g1, h1 = G.pair_sample(rng)
        fr_g, fr_h = frames(g1), frames(h1)
        Ts1 = jacobian(G.src, g1)
        Tt1 = jacobian(G.tgt, h1)
        links.append((G.src(g1).patch_index, G.tgt(g1).patch_index))
        gh = G.compose(g1, h1)
        fr_gh = frames(gh)
        Bh = fr_h.matrix()
        for u in fr_g.basis:
            target = Ts1 @ np.asarray(u.coeffs)
            coeffs, resid = solve_least_squares(Tt1 @ Bh, target)
            if resid > max(1.0, float(np.linalg.norm(target))) * 1e-6:
                continue  # no composable partner inside the candidate frame
            v = Bh @ coeffs
            tm = tm_apply(G, g1, h1, np.asarray(u.coeffs), v)
            worst.record(
                "multiplication",
                subspace_residual(tm, fr_gh.basis, cfg),
                {"g": _coords(g1), "h": _coords(h1), "u": list(u.coeffs), "v": list(v)},
            )

    # rank constancy per arrow-connected component of the sampled patches
    parent = {p: p for p in rank_by_patch}
    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a
    for a, b in links:
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    groups: dict[int, set[int]] = {}
    for p in rank_by_patch:
        groups.setdefault(find(p), set()).add(rank_by_patch[p])
    for root, ranks in groups.items():
        if len(ranks) > 1:
            worst.record("side_rank_constancy", 1.0, {"component_root": root,
                                                      "ranks": sorted(ranks)})

    return SubgroupoidVerdict(
        passed=worst.max_residual < tol,
        max_residual=worst.max_residual,
        clauses=worst.clauses,
        witness=worst.witness,
        ranks_by_component={find(p): rank_by_patch[p] for p in rank_by_patch},
        n_samples=n_samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# splitting correspondences (exact fibrewise linear algebra)


@dataclass
class VBFiberData:
    """Fibre data of a short exact sequence 0 -> K --i--> E --pi--> Q -> 0."""

    iota: np.ndarray                      # (dim E, dim K), injective
    pi: np.ndarray                        # (dim Q, dim E), surjective, pi @ iota = 0
    h: Optional[np.ndarray] = None        # right splitting, pi @ h = id
    p: Optional[np.ndarray] = None        # left splitting, p @ iota = id
    C: Optional[np.ndarray] = None        # complement frame (dim E, dim Q)
    Phi: Optional[np.ndarray] = None      # (p, pi) stacked
    Phi_inv: Optional[np.ndarray] = None  # [iota | h]
    residuals: dict[str, float] = field(default_factory=dict)

    def validate_exactness(self, tol: float = 1e-12) -> None:
        m = np.asarray(self.pi) @ np.asarray(self.iota)
        if self.iota.shape[1] and np.linalg.matrix_rank(self.iota) < self.iota.shape[1]:
            raise NotASplitting("iota is not injective")
        if np.linalg.matrix_rank(self.pi) < self.pi.shape[0]:
            raise NotASplitting("pi is not surjective")
        if m.size and float(np.max(np.abs(m))) > tol:
            raise NotASplitting(f"pi∘iota != 0 (max entry {np.max(np.abs(m)):.3e})")


def splitting_correspondence(d: VBFiberData, given: str, tol: float = 1e-12) -> VBFiberData:
    """Complete one splitting datum (h, p, or C) to all of {h, p, C, Phi, Phi_inv}.

    The input datum must satisfy its defining identity to ``tol``; the
    completed data satisfy h∘pi + iota∘p = id, Phi∘Phi_inv = id, and
    C = ker p = im h, with residuals recorded.
    """
    iota = np.asarray(d.iota, dtype=float)
    pi = np.asarray(d.pi, dtype=float)
    d.validate_exactness(1e-9)
    dimE = iota.shape[0]
    dimK = iota.shape[1]
    dimQ = pi.shape[0]
    if dimK + dimQ != dimE:
        raise NotASplitting("dimensions are not exact: dim K + dim Q != dim E")

    if given == "h":
        h = np.asarray(d.h, dtype=float)
        if float(np.max(np.abs(pi @ h - np.eye(dimQ)))) > tol:
            raise NotASplitting("pi∘h != id")
        C = h.copy()
    elif given == "p":
        p_given = np.asarray(d.p, dtype=float)
        if float(np.max(np.abs(p_given @ iota - np.eye(dimK)))) > tol:
            raise NotASplitting("p∘iota != id")
        C = nullspace(p_given)
        h = _section_through(C, pi)
    elif given == "C":
        C = np.asarray(d.C, dtype=float)
        if rank(np.hstack([iota, C])) < dimE:
            raise NotASplitting("C does not complement im(iota)")
        h = _section_through(C, pi)
    else:
        raise NotASplitting(f"unknown splitting datum {given!r}")

    # h determines everything else
    residual_matrix = np.eye(dimE) - h @ pi
    p = np.linalg.lstsq(iota, residual_matrix, rcond=None)[0]
    Phi = np.vstack([p, pi])
    Phi_inv = np.hstack([iota, h])

    completed = VBFiberData(iota=iota, pi=pi, h=h, p=p, C=h.copy(), Phi=Phi, Phi_inv=Phi_inv)
    completed.residuals = {
        "h_pi_plus_iota_p": float(np.max(np.abs(h @ pi + iota @ p - np.eye(dimE)))),
        "phi_inverse": float(np.max(np.abs(Phi @ Phi_inv - np.eye(dimE)))),
        "C_equals_ker_p": _space_gap(nullspace(p), h),
        "C_equals_im_h": _space_gap(column_space(C), h),
        "pi_section": float(np.max(np.abs(pi @ h - np.eye(dimQ)))),
    }
    return completed


def _section_through(C: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The unique right inverse of pi with image span(C)."""
    B = column_space(C)
    M = pi @ B
    if M.shape[0] != M.shape[1] or abs(np.linalg.det(M)) < 1e-14:
        raise NotASplitting("pi restricted to C is not invertible")
    return B @ np.linalg.inv(M)


def _space_gap(A: np.ndarray, B: np.ndarray) -> float:
    """Symmetric containment gap between two column spaces."""
    QA, QB = column_space(A), column_space(B)
    if QA.shape[1] != QB.shape[1]:
        return 1.0
    if QA.shape[1] == 0:
        return 0.0
    gap1 = float(np.max(np.abs(QA - QB @ (QB.T @ QA))))
    gap2 = float(np.max(np.abs(QB - QA @ (QA.T @ QB))))
    return max(gap1, gap2)


# ---------------------------------------------------------------------------
# core/side decomposition at units


def core_side_decomposition(
    G: Groupoid, x: Point, frame: SubbundleFrame, cfg: Config = DEFAULT
):
    """Split a frame at a unit into core (ker Ts) and side (unit-section) parts.

    The side projection is Tu∘Ts and the core projection its complement;
    returns (core frame, side frame, complementarity residual).
    """
    ux = G.unit(x)
    Ts = jacobian(G.src, ux)
    Tu = jacobian(G.unit, x)
    S = frame.matrix()
    if rank(S, cfg) < S.shape[1]:
        raise DegenerateBasis("frame at the unit is rank-deficient")
    side_proj = Tu @ Ts
    side_vecs = column_space(side_proj @ S, cfg)
    core_vecs = column_space(S - side_proj @ S, cfg)
    resid = 0.0
    for M in (side_vecs, core_vecs):
        for j in range(M.shape[1]):
            resid = max(resid, subspace_residual(M[:, j], [S[:, k] for k in range(S.shape[1])], cfg))
    rank_total = rank(S, cfg)
    if core_vecs.shape[1] + side_vecs.shape[1] != rank_total:
        resid = max(resid, 1.0)
    core = tangent_frame(ux, core_vecs)
    side = tangent_frame(ux, side_vecs)
    return SubbundleFrame(ux, core), SubbundleFrame(ux, side), resid


# frames derived from connections / kernels


def kernel_frames(arrow_map, cfg: Config = DEFAULT) -> Callable[[Point], SubbundleFrame]:
    """Frames of ker(T arrow_map) at each arrow, via SVD nullspaces."""

    def frames(g: Point) -> SubbundleFrame:
        J = jacobian(arrow_map, g)
        N = nullspace(J, cfg)
        return SubbundleFrame(g, tangent_frame(g, N))

    return frames


def full_tangent_frames(G: Groupoid) -> Callable[[Point], SubbundleFrame]:
    def frames(g: Point) -> SubbundleFrame:
        dim = g.patch.dim
        return SubbundleFrame(g, tangent_frame(g, np.eye(dim)))

    return frames
