"""The finite standard-model geometry and its chirally twisted point model.

Builds the 32-dimensional internal space with Yukawa and Majorana
couplings, measures the KO signs, then tensors on the chirality factor and
twists by the label swap.  The first-order condition is evaluated in both
arrangements of the twisted labels; the script prints where they differ
and why the recovery identity still holds exactly.
"""

from nctwist import (
    generalized_minimal_twist_check,
    label_swap_check,
    measure_ko_signs,
    order_one_residual,
    order_zero_residual,
    sm_finite_geometry,
    sm_rep,
    twisted_sm_geometry,
    verify_sm_twisted,
)

print("internal space")
rep = sm_rep()
print(rep.check().format_text())

fin = sm_finite_geometry()
signs = measure_ko_signs(fin)
print(f"\nKO signs {signs.as_tuple()}, order zero {order_zero_residual(fin):.2e},"
      f" order one {order_one_residual(fin):.2e}")

print("\npoint model: chirality factor tensored on, label-swap twist")
tsm = twisted_sm_geometry()
report = verify_sm_twisted(tsm)
print(report.format_text())
print()
for convention, label in (("flip", "structural"), ("display", "displayed")):
    res = report.info[f"order_one_{convention}"]
    print(f"  twisted first order, {label} arrangement: primary {res['primary']:.2e},"
          f" symmetric {res['symmetric']:.2e}")
print("  (the gap lives entirely in the antiparticle scalar slots)")

print("\nlabel swap on simple tensors")
print(label_swap_check(tsm).format_text())

print("\nrecovery of the untwisted operator from the twisted data")
print(generalized_minimal_twist_check(tsm).format_text())
