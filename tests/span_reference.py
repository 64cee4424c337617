"""Dense one-form grid and span solve: the reference the tests check against.

``fluct.one_form_basis`` builds the grid pi(a) [D, b]_rho from nonzero
entries and ``matlin.residual_against_span`` reads the span's entries.
These are the dense formulas they replace, kept to show that the entry
forms give the same bits: the whole grid as one BLAS product, and the
least-squares problem read off a dense scan of the stack.
"""

import numpy as np

from nctwist.matlin import as_matrix, fro
from nctwist.twist import TwistedGeometry


def dense_one_form_basis(tg: TwistedGeometry) -> np.ndarray:
    """The pair-row grid pi(a) [D, b]_rho, then ``i`` times its evaluations
    whose a or b lies in a component that lost its ``i E`` rows."""
    d, pi, perm = tg.geometry.dirac, tg.geometry.rep, tg.rho.perm
    pi_a, pi_rho_a = (s.array for s in tg.stacks()[:2])
    rows, _ = pi.pair_rows(perm)
    first = (rows != 0).argmax(axis=1)
    component = np.searchsorted(tg.algebra.basis_offsets(), first, side="right") - 1
    lone = np.array(pi.drops(perm))[component]
    multiplied = lone[:, None] | lone[None, :]
    n, k = d.shape[0], len(pi_a)
    comm = (d @ pi_a - pi_rho_a @ d).transpose(1, 0, 2).reshape(n, k * n)
    products = (pi_a @ comm).reshape(k, n, k, n).transpose(0, 2, 1, 3)
    out = np.empty((k * k + int(multiplied.sum()), n, n), np.complex128)
    out[: k * k].reshape(k, k, n, n)[...] = products
    np.multiply(products[multiplied], 1j, out=out[k * k :])
    return out


def dense_residual_against_span(target: np.ndarray, span) -> float:
    """Distance from ``target`` to the real span of ``span``, solved on the
    support a dense scan of the stack finds."""
    t = as_matrix(target)
    if not np.isfinite(t).all():
        return float("nan")
    if len(span) == 0:
        return fro(t)
    cols = np.asarray(span, dtype=np.complex128)
    if not np.isfinite(cols).all():
        return float("nan")
    flat, t = cols.reshape(len(cols), -1), t.reshape(-1)
    parts = [(flat.real, t.real), (flat.imag, t.imag)]
    rows = [(m != 0).any(axis=0) | (v != 0) for m, v in parts]
    a = np.concatenate([m[:, r] for (m, _), r in zip(parts, rows)], axis=1)
    b = np.concatenate([v[r] for (_, v), r in zip(parts, rows)])
    a = a[(a != 0).any(axis=1)].T
    if a.size == 0:
        return float(np.linalg.norm(b))
    coeff = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(np.linalg.norm(b - a @ coeff))
