"""Assembly of the global constants of the spectral average.

Archimedean Gamma factors, Dirichlet-character Gauss sums (through the
residue-ring machinery, glued by CRT), the global epsilon factor of the
spinor functional equation, the prefactor multiplying the spectral sum,
and the composition identities expressing lifted-form L-functions through
GL(2) data supplied by the caller.

Everything here is numeric (complex), with the exact symbolic layer left
to the local modules.  Truncated Euler products are labeled partial; no
analytic continuation is attempted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath

from .classgroup import is_fundamental, unit_count
from .localrep import spinor_lfactor
from .padicring import (MultChar, ResidueRing, _unit_char_sum, factorize,
                        is_squarefree, legendre)

_TWO_PI = 2 * math.pi


def gamma_complex(z: complex) -> complex:
    """Gamma_C(z) = 2 (2 pi)^{-z} Gamma(z), to ~1e-25 internally."""
    z = complex(z)
    if abs(z.imag) < 1e-12 and abs(z.real - round(z.real)) < 1e-12 and round(z.real) <= 0:
        raise ValueError(f"Gamma_C pole at z = {z}")
    with mpmath.workdps(30):
        val = 2 * mpmath.power(_TWO_PI, -z) * mpmath.gamma(z)
        return complex(val)


def arch_lfactor(s: complex, l1: int, l2: int) -> complex:
    """L(s, pi_infty) = Gamma_C(s + (l1-l2)/2 + 1/2) Gamma_C(s + (l1+l2)/2 - 3/2)."""
    return gamma_complex(s + (l1 - l2) / 2 + 0.5) * gamma_complex(
        s + (l1 + l2) / 2 - 1.5
    )


# QUADPACK's QK15I rule (Piessens et al. 1983): the 15-point Kronrod nodes
# on [0, 1] with the centre last, their weights, and the weights of the
# embedded 7-point Gauss rule, which are zero at the Kronrod-only nodes.
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
)
_QUAD_TOL = 1.49e-8  # absolute and relative, scipy's quad defaults
_QUAD_LIMIT = 50  # subintervals


def _qk15i(f, lo: float, hi: float) -> tuple:
    """QK15I on (lo, hi] in t, for int_0^inf f(a) da under a = (1 - t)/t:
    (integral, error estimate, resasc), with QUADPACK's operation order."""
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    fc = f((1.0 - centr) / centr) / centr / centr
    resg = _WG[7] * fc
    resk = _WGK[7] * fc
    resabs = abs(resk)
    fv = []
    for j in range(7):
        absc = hlgth * _XGK[j]
        t1, t2 = centr - absc, centr + absc
        f1 = f((1.0 - t1) / t1) / t1 / t1
        f2 = f((1.0 - t2) / t2) / t2 / t2
        fv.append((f1, f2))
        resg += _WG[j] * (f1 + f2)
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK[7] * abs(fc - reskh)
    for w, (f1, f2) in zip(_WGK, fv):
        resasc += w * (abs(f1 - reskh) + abs(f2 - reskh))
    resasc *= hlgth
    err = abs((resk - resg) * hlgth)
    if resasc != 0 and err != 0:
        err = resasc * min(1.0, (200 * err / resasc) ** 1.5)
    return resk * hlgth, max(50 * sys.float_info.epsilon * (resabs * hlgth), err), resasc


def _quad_0_inf(f) -> float:
    """int_0^inf f by QK15I with global bisection of the largest-error
    interval: QUADPACK's QAGI without its epsilon extrapolation.  Raises
    ArithmeticError if _QUAD_LIMIT intervals do not meet the bound."""
    result, err, resasc = _qk15i(f, 0.0, 1.0)
    if err == 0 or (err <= max(_QUAD_TOL, _QUAD_TOL * abs(result)) and err != resasc):
        return result
    # (lo, hi, integral, error); a bisected interval's larger-error half
    # keeps its slot and the other is appended, which fixes the final sum
    parts = [(0.0, 1.0, result, err)]
    area, errsum = result, err
    while len(parts) < _QUAD_LIMIT:
        i = max(range(len(parts)), key=lambda k: parts[k][3])
        lo, hi, r, e = parts[i]
        mid = 0.5 * (lo + hi)
        r1, e1, _ = _qk15i(f, lo, mid)
        r2, e2, _ = _qk15i(f, mid, hi)
        area = area + (r1 + r2) - r
        errsum = errsum + (e1 + e2) - e
        halves = [(lo, mid, r1, e1), (mid, hi, r2, e2)]
        if e2 > e1:
            halves.reverse()
        parts[i] = halves[0]
        parts.append(halves[1])
        if errsum <= max(_QUAD_TOL, _QUAD_TOL * abs(area)):
            return sum(p[2] for p in parts)
    raise ArithmeticError(f"quadrature not converged in {_QUAD_LIMIT} intervals")


def mellin_gamma_pin(sigma: float, d: int) -> dict:
    """Quadrature check of the Mellin step behind the archimedean factor:

        int_0^infty a^{sigma-1} exp(-2 pi sqrt|d| a) da = Gamma(sigma) c^{-sigma}

    with c = 2 pi sqrt(|d|).  Returns both sides and the relative error.

    The quadrature is QUADPACK's QK15I rule with bisection, to absolute and
    relative tolerance 1.49e-8; it equals scipy's ``quad`` bit for bit
    wherever ``quad`` does not extrapolate (sigma >= 3 in practice).  The
    domain is sigma >= 1, where the integrand is finite at a = 0, and
    d != 0, where the integral converges; other inputs raise ValueError.
    """
    if sigma < 1:
        raise ValueError(f"sigma = {sigma} < 1: the integrand is singular at a = 0")
    if d == 0:
        raise ValueError("d = 0: the integral diverges")
    c = _TWO_PI * math.sqrt(abs(d))
    integral = _quad_0_inf(lambda a: a ** (sigma - 1) * math.exp(-c * a))
    closed = math.gamma(sigma) * c**-sigma
    return {
        "integral": integral,
        "closed": closed,
        "rel_err": abs(integral - closed) / abs(closed),
    }


# ---------------------------------------------------------------------------
# Dirichlet characters mod odd M, built from residue-ring characters by CRT


class DirichletChar:
    """A Dirichlet character modulo odd M as a CRT product of residue-ring
    characters; M = 1 gives the trivial character."""

    def __init__(self, modulus: int, exponents: tuple = ()):
        if modulus < 1 or modulus % 2 == 0:
            raise ValueError("modulus must be odd and positive")
        self.modulus = modulus
        self.factors = factorize(modulus)
        if len(exponents) != len(self.factors):
            raise ValueError("one exponent per prime power of the modulus")
        self.components = tuple(
            MultChar(ResidueRing(p, k), e)
            for (p, k), e in zip(self.factors, exponents)
        )

    @staticmethod
    def trivial(modulus: int = 1) -> "DirichletChar":
        return DirichletChar(modulus, tuple(0 for _ in factorize(modulus)))

    @staticmethod
    def quadratic(modulus: int) -> "DirichletChar":
        """The real character that is the Legendre symbol at each prime
        factor (modulus odd squarefree)."""
        if not is_squarefree(modulus):
            raise ValueError("quadratic character needs a squarefree modulus")
        return DirichletChar(modulus, tuple((p - 1) // 2 for p, _ in factorize(modulus)))

    def __call__(self, a: int) -> complex:
        a = int(a)
        if math.gcd(a, self.modulus) != 1:
            return 0j
        out = 1 + 0j
        for comp in self.components:
            out *= comp(a % comp.ring.modulus)
        return out

    def inverse(self) -> "DirichletChar":
        return DirichletChar(
            self.modulus, tuple(-c.k for c in self.components)
        )

    @property
    def is_primitive(self) -> bool:
        return all(c.conductor == c.ring.e for c in self.components)

    def gauss_sum(self) -> complex:
        """G(chi) = sum_a chi(a) e^{2 pi i a / M}, assembled by CRT.

        Each prime-power block q contributes its raw unit sum
        sum_a chi_q(a) e^{2 pi i a / q}, primitive or not, twisted by the
        complementary-factor value chi_q(M / q); M = 1 is the empty product.
        """
        total = 1 + 0j
        for comp in self.components:
            q = comp.ring.modulus
            total *= comp(self.modulus // q % q) * _unit_char_sum(comp, q, 1)
        return total


def kronecker_at_prime(d: int, p: int) -> int:
    """The Kronecker symbol (d/p) for prime p."""
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    return legendre(d, p)


@dataclass(frozen=True)
class GlobalParams:
    """Global data (D, l1, l2, N, M, mu-tilde) with the standing hypotheses
    validated at construction: N squarefree; l1 >= l2 >= 3 of equal parity;
    M odd (checked by the DirichletChar of modulus M), coprime to N; every
    prime of N M inert in Q(sqrt D)."""

    D: int
    l1: int
    l2: int
    N: int = 1
    M: int = 1
    chi: DirichletChar = None

    def __post_init__(self):
        if not is_fundamental(self.D):
            raise ValueError("D must be a fundamental discriminant < 0")
        if self.N < 1 or not is_squarefree(self.N):
            raise ValueError("N must be a squarefree positive integer")
        if not (self.l1 >= self.l2 >= 3 and (self.l1 - self.l2) % 2 == 0):
            raise ValueError("need l1 >= l2 >= 3 with l1 = l2 mod 2")
        if math.gcd(self.M, self.N) != 1:
            raise ValueError("M and N must be coprime")
        chi = self.chi if self.chi is not None else DirichletChar.trivial(self.M)
        if chi.modulus != self.M:
            raise ValueError("character modulus differs from M")
        object.__setattr__(self, "chi", chi)
        for p, _ in factorize(self.N * self.M):
            if kronecker_at_prime(self.D, p) != -1:
                raise ValueError(f"prime {p} of N M is not inert in Q(sqrt D)")

    @property
    def w(self) -> int:
        return unit_count(self.D)


def siegel_index(n: int) -> int:
    """[K_f : K_0(N)] = prod over p | N of p^3 (1 + p^-1)(1 + p^-2)."""
    out = 1
    for p, _ in factorize(n):
        out *= (p**2 + 1) * (p + 1)  # p^3(1+1/p)(1+1/p^2)
    return out


def zeta_partial(n: int, s: int) -> float:
    """zeta_M(s) = prod over p | M of (1 - p^-s)^{-1}."""
    out = 1.0
    for p, _ in factorize(n):
        out /= 1 - p ** (-s)
    return out


def global_epsilon(s: complex, gp: GlobalParams, n_pi: int) -> complex:
    """epsilon(s, pi, mu) = (-1)^{l2} mu~(N_pi^2) (G(mu~)/sqrt M)^4 (M^4 N_pi^2)^{1/2-s},
    for N_pi a positive divisor of N (anything else raises ValueError)."""
    if n_pi < 1 or gp.N % n_pi:
        raise ValueError(f"N_pi = {n_pi} is not a positive divisor of N = {gp.N}")
    root = gp.chi.gauss_sum() / math.sqrt(gp.M)
    return (
        (-1) ** gp.l2
        * gp.chi(n_pi**2)
        * root**4
        * (gp.M**4 * n_pi**2) ** (0.5 - s)
    )


def average_prefactor(s: complex, gp: GlobalParams) -> complex:
    """The scalar multiplying the spectral sum in the average formula, at
    archimedean vector norm (v | v) = 1:

    2^-2 |D|^{(3-(l1+l2)/2)/2} e^{-2 pi sqrt|D|} / (w_D^2 [K_f:K_0(N)])
      * M^{s-6} zeta_M(1) zeta_M(4) mu~(2D) G(mu~)
      * N^{s-1} mu~^{-1}(N) prod_{p|N} (1+p^-2)^{-1}.
    """
    d = abs(gp.D)
    lead = (
        0.25
        * d ** ((3 - (gp.l1 + gp.l2) / 2) / 2)
        * math.exp(-_TWO_PI * math.sqrt(d))
        / (gp.w**2 * siegel_index(gp.N))
    )
    m_part = (
        gp.M ** (s - 6)
        * zeta_partial(gp.M, 1)
        * zeta_partial(gp.M, 4)
        * gp.chi(2 * gp.D)
        * gp.chi.gauss_sum()
    )
    n_part = gp.N ** (s - 1) * gp.chi.inverse()(gp.N)
    for p, _ in factorize(gp.N):
        n_part /= 1 + p**-2
    return lead * m_part * n_part


def composite_lfactors(kind: str, inputs: dict, s: complex) -> complex:
    """L-function composition identities for the lifted forms.

    ``Yoshida``: the product of the two supplied completed L-values.
    ``SK``: (1/4pi)(s - 1/2) L(s, pi0 x mu) L(s+1/2, mu) L(s-1/2, mu) from
    the supplied pieces.  This artifact never computes modular-form data;
    the caller provides every factor.
    """
    if kind == "Yoshida":
        needed = ("factor1", "factor2")
        if any(k not in inputs for k in needed):
            raise ValueError(f"Yoshida composition needs {needed}")
        return complex(inputs["factor1"]) * complex(inputs["factor2"])
    if kind == "SK":
        needed = ("pi0_times_mu", "mu_plus_half", "mu_minus_half")
        if any(k not in inputs for k in needed):
            raise ValueError(f"SK composition needs {needed}")
        return (
            (s - 0.5)
            / (4 * math.pi)
            * complex(inputs["pi0_times_mu"])
            * complex(inputs["mu_plus_half"])
            * complex(inputs["mu_minus_half"])
        )
    raise ValueError(f"unknown composition kind {kind!r}")


def partial_spinor_L(s: complex, data, gp: GlobalParams) -> complex:
    """Truncated Euler product: the archimedean factor times the spinor
    factors of the supplied primes (a partial product, nothing more).

    ``data`` is an iterable of (p, LocalRep) with numeric Satake values;
    the twist at p is mu~(p).  Poles of a local factor surface as
    ZeroDivisionError.
    """
    total = arch_lfactor(s, gp.l1, gp.l2)
    for p, rep in data:
        u = gp.chi(p)
        if u == 0:
            raise ValueError(f"prime {p} divides the twist conductor")
        point = {"Q": math.sqrt(p), "T": u * p ** (-s)}
        total *= spinor_lfactor(rep).evaluate(point)
    return total
