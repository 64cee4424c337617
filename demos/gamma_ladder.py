"""Walk up the gamma-matrix ladder and measure the conjugation signs.

For each m the script prints the worst deviation from the defining
relations, then builds the antilinear intertwiner J and reports the
measured (eps, eps'') pair together with the KO branch it selects.
"""

import numpy as np

from nctwist import charge_conjugation, dagger, fro, gamma, grading_product


def relation_residual(data):
    eye = np.eye(data.dim)
    worst = 0.0
    for i, gi in enumerate(data.gammas):
        worst = max(worst, fro(gi - dagger(gi)))
        for j, gj in enumerate(data.gammas):
            target = 2.0 * eye if i == j else 0.0
            worst = max(worst, fro(gi @ gj + gj @ gi - target))
        worst = max(worst, fro(data.grading @ gi + gi @ data.grading))
    return max(worst, fro(data.grading - grading_product(data)))


def main():
    print("gamma ladder, dimensions 2^m")
    for m in range(1, 5):
        data = gamma(m)
        print(f"  m={m}: dim {data.dim}, relation residual {relation_residual(data):.2e}")

    print("\nantilinear conjugation J gamma = -gamma J, a product of gammas")
    for m in range(1, 7):
        cc = charge_conjugation(m)
        print(
            f"  m={m}: eps={cc.eps:+d}, eps''={cc.eps_dblprime:+d},"
            f" branch {cc.branch()}, character sum {cc.character_sum:.1f}"
        )
    print("  (character sum 1: the gammas act irreducibly, so J is unique up to phase)")


if __name__ == "__main__":
    main()
