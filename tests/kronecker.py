"""Kronecker solvers for intertwiner spaces: the reference the tests check against.

The package finds its intertwiners without a Kronecker system (the
implementing unitary and the gamma pairs by averaging, charge conjugation
as a product of gammas).  These direct solves, an SVD nullspace of the
vectorised conditions, decide the same questions independently on small
sizes.
"""

from typing import Sequence

import numpy as np

from nctwist.matlin import DEFAULT_TOL, Tolerance, as_matrix, nullspace


def _stack(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    out = [as_matrix(m) for m in mats]
    if not out:
        raise ValueError("need at least one matrix")
    n = out[0].shape[0]
    if any(m.shape != (n, n) for m in out):
        raise ValueError("all matrices must share one square shape")
    return out


def intertwiners(
    lhs: Sequence[np.ndarray],
    rhs: Sequence[np.ndarray],
    tol: Tolerance = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Basis of ``{X : L_i X = X R_i for all i}``.

    Row-major vectorisation turns each condition into
    ``(L_i kron I - I kron R_i^T) vec(X) = 0``; the joint nullspace is
    extracted by SVD.  The returned matrices are orthonormal for the
    entrywise inner product.
    """
    lhs = _stack(lhs)
    rhs = _stack(rhs)
    if len(lhs) != len(rhs):
        raise ValueError("lhs and rhs must pair up")
    n = lhs[0].shape[0]
    if rhs[0].shape[0] != n:
        raise ValueError("lhs and rhs must act on the same dimension")
    eye = np.eye(n)
    rows = [np.kron(l, eye) - np.kron(eye, r.T) for l, r in zip(lhs, rhs)]
    basis, _ = nullspace(np.vstack(rows), tol)
    return [basis[:, k].reshape(n, n) for k in range(basis.shape[1])]


def intertwiner_space(
    lhs: Sequence[np.ndarray],
    rhs: Sequence[np.ndarray],
    tol: Tolerance = DEFAULT_TOL,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Basis of pairs ``(A, B)`` with ``L_i A = B R_i`` for all i.

    The two unknowns are stacked into one vector; the pairs returned are
    orthonormal with respect to the entrywise inner product on the stack.
    """
    lhs = _stack(lhs)
    rhs = _stack(rhs)
    if len(lhs) != len(rhs):
        raise ValueError("lhs and rhs must pair up")
    n = lhs[0].shape[0]
    if rhs[0].shape[0] != n:
        raise ValueError("lhs and rhs must act on the same dimension")
    eye = np.eye(n)
    rows = []
    for l, r in zip(lhs, rhs):
        block_a = np.kron(l, eye)
        block_b = -np.kron(eye, r.T)
        rows.append(np.hstack([block_a, block_b]))
    basis, _ = nullspace(np.vstack(rows), tol)
    out = []
    for k in range(basis.shape[1]):
        v = basis[:, k]
        out.append((v[: n * n].reshape(n, n), v[n * n :].reshape(n, n)))
    return out
