# The exact arithmetic substrate: multivariate Laurent rational functions.
#
# Everything downstream (L-factors, zeta integrals, periods) is an identity
# between elements of Q(Q, T, A, B, G, U, L), where Q stands for q^(1/2),
# T for q^(-s), A/B/G for the Satake parameters and U, L for twist values.
# Run:  python demos/01_rational_functions.py

from besselzeta import RatMatrix, geom_resolvent, parse_ratfunc, rf_var

Q, T, A = rf_var("Q"), rf_var("T"), rf_var("A")

# arithmetic is exact and the representation canonical: equal functions
# compare equal no matter how they were built
factored = (A + T) * (A - T) / ((A + T) * Q)
expanded = (A * A - T * T) / (A * Q + T * Q)
print("canonical equality:", factored == expanded)
print("  stored as:", factored.to_text())

# the four field operations are the Python operators + - * /
print("sum:", (1 / (1 - T) + T / (1 - T)).to_text())

# substitution is an exact field homomorphism; here the inversion symmetry
# of a Laurent polynomial in X
X = rf_var("X")
f = X + X**-1
print("X + 1/X under X -> 1/X:", f.subst({"X": X.inv()}).to_text())

# closed geometric series: sum_{l>=0} M^l X^l = (I - X M)^{-1}, computed
# exactly by Gauss-Jordan elimination over the function field
M = RatMatrix([[A, 1], [0, Q]])
R = geom_resolvent(M, X)
print("resolvent of [[A,1],[0,Q]]:")
for row in R.entries:
    print("  ", [e.to_text() for e in row])

# a small infix grammar covers interchange with text
g = parse_ratfunc("(1 - A*T)^-1 + Q^2/(T - 1)")
print("parsed:", g.to_text())
print("round trip ok:", parse_ratfunc(g.to_text()) == g)
