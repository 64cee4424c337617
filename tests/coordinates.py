"""The real basis of an algebra as element tuples: the tests' reference.

The package reads coordinate rows through ``Algebra.blocks`` and builds a
coordinate map in one batched evaluation on the identity rows.  Here the
basis is written out as one element tuple per coordinate, and a map is
evaluated on one tuple at a time.  The package reads rho^-1 as the inverse
of rho's coordinate matrix; here it is an automorphism built block by block.
"""

import numpy as np

from nctwist.matlin import dagger
from nctwist.twist import Automorphism


def basis_tuples(alg) -> list[tuple]:
    """One element per real coordinate, block by block.

    C contributes 1 and i; H and M_n the matrix units of M_2(C) and M_n(C)
    and their i-multiples, so the H part spans values outside H.
    """
    out = []
    for i, comp in enumerate(alg.components):
        d = comp.dim
        for entry in range(d * d):
            for unit in (1.0, 1j):
                v = np.zeros(d * d, dtype=np.complex128)
                v[entry] = unit
                vals = list(alg.zero())
                vals[i] = complex(v[0]) if comp.kind == "C" else v.reshape(d, d)
                out.append(tuple(vals))
    return out


def per_tuple_linear_map(alg, f) -> np.ndarray:
    """Real B x B matrix of a real-linear ``f``, one basis tuple at a time."""
    return np.stack([alg.coords(f(e)) for e in basis_tuples(alg)])


def inverse_automorphism(rho):
    """rho^-1 written out block by block: the reference for ``inv(R)``.

    Block ``perm[i]`` of the inverse's image is fed by block i, conjugated
    back by u_i and divided by scale_i.
    """
    n = len(rho.perm)
    perm, inner, scale = [0] * n, [None] * n, [1.0 + 0j] * n
    for i, j in enumerate(rho.perm):
        perm[j] = i
        if rho.inner is not None and rho.inner[i] is not None:
            inner[j] = dagger(np.asarray(rho.inner[i]))
        if rho.scale is not None:
            scale[j] = 1.0 / rho.scale[i]
    return Automorphism(
        tuple(perm),
        None if rho.inner is None else tuple(inner),
        None if rho.scale is None else tuple(scale),
        None if rho.u_rho is None else dagger(rho.u_rho),
    )
