"""Subspace linear algebra in the flat patch gauge."""
from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT, Config
from .errors import DegenerateBasis
from .geometry import Point, Tangent


def apply_rows(M, V) -> np.ndarray:
    """Row-wise matrix action: M[i] @ V[i] for M (k, m, n), or M @ V[i] for
    one (m, n) matrix, and V (k, n). Each row takes the same BLAS path as a
    single matrix-vector product, so a row's result does not depend on the
    block it is in."""
    return np.matmul(M, V[..., None])[..., 0]


def _as_matrix(basis) -> np.ndarray:
    cols = []
    for v in basis:
        cols.append(np.asarray(v.coeffs if isinstance(v, Tangent) else v, dtype=float))
    if not cols:
        return np.zeros((0, 0))
    return np.stack(cols, axis=1)


def subspace_residual(v, basis, cfg: Config = DEFAULT) -> float:
    """Normalized distance ||v - P(v)|| / max(||v||, 1) to span(basis).

    P is the orthogonal projection in patch coordinates. Raises
    DegenerateBasis when the basis is rank-deficient at ``numeric_rank_tol``.
    """
    vec = np.asarray(v.coeffs if isinstance(v, Tangent) else v, dtype=float)
    B = _as_matrix(basis)
    if B.shape[1] == 0:
        return float(np.linalg.norm(vec)) / max(float(np.linalg.norm(vec)), 1.0)
    if B.shape[0] != vec.shape[0]:
        raise ValueError("basis vectors and v live in different dimensions")
    sv = np.linalg.svd(B, compute_uv=False)
    if sv.size and sv[-1] <= cfg.numeric_rank_tol * max(1.0, sv[0]):
        raise DegenerateBasis("basis is rank-deficient")
    Q, _ = np.linalg.qr(B)
    resid = vec - Q @ (Q.T @ vec)
    return float(np.linalg.norm(resid)) / max(float(np.linalg.norm(vec)), 1.0)


def rank(matrix: np.ndarray, cfg: Config = DEFAULT) -> int:
    M = np.asarray(matrix, dtype=float)
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > cfg.numeric_rank_tol * max(1.0, sv[0])))


def nullspace(matrix: np.ndarray, cfg: Config = DEFAULT) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel."""
    M = np.asarray(matrix, dtype=float)
    if M.shape[1] == 0:
        return np.zeros((0, 0))
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    u, sv, vt = np.linalg.svd(M)
    tol = cfg.numeric_rank_tol * max(1.0, sv[0] if sv.size else 0.0)
    r = int(np.sum(sv > tol))
    return vt[r:].T


def column_space(matrix: np.ndarray, cfg: Config = DEFAULT) -> np.ndarray:
    """Orthonormal basis (columns) of the column space."""
    M = np.asarray(matrix, dtype=float)
    if M.size == 0 or M.shape[1] == 0:
        return np.zeros((M.shape[0], 0))
    u, sv, _ = np.linalg.svd(M, full_matrices=False)
    tol = cfg.numeric_rank_tol * max(1.0, sv[0] if sv.size else 0.0)
    r = int(np.sum(sv > tol))
    return u[:, :r]


def intersect_columns(A: np.ndarray, B: np.ndarray, cfg: Config = DEFAULT) -> np.ndarray:
    """Orthonormal basis of col(A) ∩ col(B)."""
    A = column_space(A, cfg)
    B = column_space(B, cfg)
    if A.shape[1] == 0 or B.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    stacked = np.hstack([A, -B])
    null = nullspace(stacked, cfg)
    if null.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    vectors = A @ null[: A.shape[1], :]
    return column_space(vectors, cfg)


def min_principal_angle(A: np.ndarray, B: np.ndarray, cfg: Config = DEFAULT) -> float:
    """Smallest principal angle (radians) between two column spaces."""
    QA = column_space(A, cfg)
    QB = column_space(B, cfg)
    if QA.shape[1] == 0 or QB.shape[1] == 0:
        return math.pi / 2.0
    sv = np.linalg.svd(QA.T @ QB, compute_uv=False)
    c = min(1.0, float(sv[0])) if sv.size else 0.0
    return math.acos(c)


def solve_least_squares(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares solution and residual norm of A x = b."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.shape[1] == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return x, float(np.linalg.norm(A @ x - b))


def frame_matrix(frame) -> np.ndarray:
    """Stack a list of Tangents (same base) into a column matrix."""
    return _as_matrix(frame)


def tangent_frame(base: Point, matrix: np.ndarray) -> list[Tangent]:
    return [Tangent(base, tuple(matrix[:, j])) for j in range(matrix.shape[1])]
