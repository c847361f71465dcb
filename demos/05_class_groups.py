# Class groups of binary quadratic forms and the class-sum machinery.
# Run:  python demos/05_class_groups.py

import random

from besselzeta import ClassChar, ClassGroup, QuadForm, bessel_coeff_sum, reduce_form, t_theta

# reduction to the reduced representative, which every form of the class shares
f = QuadForm(6, 1, 1)
g = reduce_form(f)
m = ((2, 1), (1, 1))
print(f"{f} reduces to {g}; so does f.transform({m}):", reduce_form(f.transform(m)) == g)

# the class groups behind the worked discriminants
for d in (-3, -4, -23, -47):
    grp = ClassGroup(d)
    print(f"D = {d}: h = {grp.h}, structure {grp.structure_label()}, "
          f"w = {grp.w}, classes {[(q.a, q.b, q.c) for q in grp.classes]}")

grp = ClassGroup(-23)
x = QuadForm(2, 1, 3)
print("x * conj(x) =", grp.compose(x, grp.conjugate_class(x)), "(principal)")
print("x * x =", grp.compose(x, x))

# the form of a canonical integral generator: trace 1 and norm 6 at D = -23
print("t_theta(-23, 1, 6) =", t_theta(-23, 1, 6))

# characters and the conjugation sign law for class sums:
# when a(conj C) = (-1)^{l2} a(C), the sum against the conjugate character
# picks up exactly (-1)^{l2}
rng = random.Random(1)
chars = ClassChar.all_chars(grp)
for l2 in (0, 1):
    sign = (-1) ** l2
    coeffs = {}
    for f in grp.classes:
        fc = grp.conjugate_class(f)
        if f in coeffs:
            continue
        if fc == f:
            coeffs[f] = rng.gauss(0, 1) if sign == 1 else 0.0
        else:
            v = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            coeffs[f], coeffs[fc] = v, sign * v
    chi = chars[1]
    lhs = bessel_coeff_sum(grp, coeffs, chi.conjugate())
    rhs = sign * bessel_coeff_sum(grp, coeffs, chi)
    print(f"l2 parity {l2}: |sum(conj chi) - (-1)^l2 sum(chi)| = {abs(lhs - rhs):.2e}")
