"""Descriptors of the four Iwahori-spherical representation types.

A representation is specified by its type tag (I, IIb, IIIa, VIb) together
with the Satake parameters present for that type.  Attached to each
descriptor are its closed-form invariants: the degree-4 spinor L-factor
(optionally twisted by an unramified character), the degree-5 standard
L-factor, and the local epsilon factors of the computed cases.

Satake parameters are RatFuncs, so symbolic (rf_var('A'), ...) and exact
numeric rational specializations are handled uniformly.  Unitarity of the
inducing characters is never checked; callers working on the unit circle
get the conjugation convention alpha -> alpha**-1 downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .symfield import RF_ONE, RatFunc, rf_var

REP_TAGS = ("I", "IIb", "IIIa", "VIb")
# the types with a K-fixed vector: cases 1 and 4, the standard L-factor
SPHERICAL_TAGS = ("I", "IIb")

SATAKE_SLOTS = {
    "I": ("alpha", "beta", "gamma"),
    "IIb": ("alpha", "gamma"),
    "IIIa": ("alpha", "gamma"),
    "VIb": ("gamma",),
}

_SYMBOL_FOR_SLOT = {"alpha": "A", "beta": "B", "gamma": "G"}


@dataclass(frozen=True)
class LocalRep:
    """An irreducible admissible representation of one of the four types."""

    tag: str
    satake: tuple

    def __post_init__(self):
        if self.tag not in REP_TAGS:
            raise ValueError(f"unknown representation type {self.tag!r}")
        slots = SATAKE_SLOTS[self.tag]
        if len(self.satake) != len(slots):
            raise ValueError(
                f"type {self.tag} takes parameters {slots}, got {len(self.satake)}"
            )
        object.__setattr__(
            self, "satake", tuple(RatFunc.coerce(v) for v in self.satake)
        )

    @staticmethod
    def symbolic(tag: str) -> "LocalRep":
        """Generic symbolic parameters A, B, G for the slots of the type."""
        slots = SATAKE_SLOTS.get(tag, ())  # an unknown tag fails in LocalRep
        return LocalRep(tag, tuple(rf_var(_SYMBOL_FOR_SLOT[s]) for s in slots))

    @staticmethod
    def symbolic_trivial(tag: str, sign: int = 1) -> "LocalRep":
        """Symbolic parameters constrained to trivial central character.

        Type I keeps alpha, gamma free with beta = (alpha gamma^2)^-1;
        IIb keeps alpha with gamma = sign * alpha^-1; IIIa keeps gamma with
        alpha = gamma^-2; VIb is pinned to gamma = sign (sign in {1, -1}).
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        A, G = rf_var("A"), rf_var("G")
        s = RatFunc.const(sign)
        if tag == "I":
            return LocalRep("I", (A, (A * G**2).inv(), G))
        if tag == "IIb":
            return LocalRep("IIb", (A, s * A.inv()))
        if tag == "IIIa":
            return LocalRep("IIIa", (G**-2, G))
        if tag == "VIb":
            return LocalRep("VIb", (s,))
        raise ValueError(f"unknown representation type {tag!r}")

    def param(self, slot: str) -> RatFunc:
        slots = SATAKE_SLOTS[self.tag]
        if slot not in slots:
            raise ValueError(f"type {self.tag} has no parameter {slot!r}")
        return self.satake[slots.index(slot)]

    @property
    def alpha(self) -> RatFunc:
        return self.param("alpha")

    @property
    def beta(self) -> RatFunc:
        return self.param("beta")

    @property
    def gamma(self) -> RatFunc:
        return self.param("gamma")

    def central_character(self) -> RatFunc:
        """Value of the central character at a uniformizer.

        In the inducing-character notation these are chi chi' sigma^2,
        (chi sigma)^2, chi sigma^2, and sigma^2 for the four types.
        """
        if self.tag == "I":
            return self.alpha * self.beta * self.gamma**2
        if self.tag == "IIb":
            return self.alpha**2 * self.gamma**2
        if self.tag == "IIIa":
            return self.alpha * self.gamma**2
        return self.gamma**2

    def has_trivial_central_character(self) -> bool:
        return self.central_character() == RF_ONE

    def conjugation_map(self) -> dict:
        """Substitution realizing complex conjugation of unitary parameters.

        Every variable occurring in a Satake parameter is inverted
        (unit-circle convention).  A purely numeric parameter must be its
        own conjugate-inverse, i.e. +-1; anything else raises.
        """
        names = set()
        for value in self.satake:
            vs = value.variables()
            if not vs and value not in (RF_ONE, -RF_ONE):
                raise ValueError(
                    "numeric Satake parameter is not +-1; the symbolic "
                    "conjugation shortcut does not apply"
                )
            names.update(vs)
        return {n: rf_var(n).inv() for n in names}


@dataclass(frozen=True)
class TwistData:
    """Twisting character data: mu(pi), Lambda(pi), and the conductor of mu."""

    u: RatFunc = RF_ONE
    lam: RatFunc = RF_ONE
    e: int = 0

    def __post_init__(self):
        object.__setattr__(self, "u", RatFunc.coerce(self.u))
        object.__setattr__(self, "lam", RatFunc.coerce(self.lam))
        if self.e < 0:
            raise ValueError("conductor exponent must be >= 0")

    @property
    def unramified(self) -> bool:
        return self.e == 0


UNRAMIFIED = TwistData()


def dims(rep: LocalRep) -> tuple:
    """(dim of K-fixed vectors, dim of K_0(p)-fixed vectors)."""
    return {"I": (1, 4), "IIb": (1, 3), "IIIa": (0, 2), "VIb": (0, 1)}[rep.tag]


def spinor_satake(rep: LocalRep) -> tuple:
    """The four spinor Euler factors as (coefficient, half-power-of-q) pairs.

    Each entry (c, k) stands for a factor (1 - c * q^{k/2} * q^{-s})^{-1}.
    """
    if rep.tag == "I":
        a, b, g = rep.satake
        return ((a * b * g, 0), (a * g, 0), (b * g, 0), (g, 0))
    if rep.tag == "IIb":
        a, g = rep.satake
        return ((a**2 * g, 0), (g, 0), (a * g, -1), (a * g, 1))
    if rep.tag == "IIIa":
        a, g = rep.satake
        return ((a * g, -1), (g, -1))
    g = rep.satake[0]
    return ((g, -1), (g, -1))


def spinor_lfactor(rep: LocalRep, twist: TwistData = UNRAMIFIED) -> RatFunc:
    """L(s, pi, mu) as a RatFunc in T = q^{-s}, Q = q^{1/2}.

    The unramified twist scales every Satake datum by mu(pi), which is the
    substitution T -> u T in the untwisted factor.  Ramified twists have
    L-factor 1 by convention and are rejected here; ask for the constant
    explicitly if that is what you mean.
    """
    if not twist.unramified:
        raise ValueError("L-factor is 1 by convention for a ramified twist")
    T = rf_var("T")
    out = RF_ONE
    for coeff, k in spinor_satake(rep):
        out = out * (RF_ONE - coeff * twist.u * T * rf_var("Q", k)).inv()
    return out


def shift_half(f: RatFunc) -> RatFunc:
    """Substitute s -> s + 1/2, i.e. T -> T * Q^{-1}."""
    return f.subst({"T": rf_var("T") * rf_var("Q", -1)})


def std_lfactor(rep: LocalRep) -> RatFunc:
    """Degree-5 standard L-factor for the spherical types I and IIb."""
    T = rf_var("T")
    if rep.tag == "I":
        a, b = rep.alpha, rep.beta
        datums = [a, b, a.inv(), b.inv(), RF_ONE]
    elif rep.tag == "IIb":
        a, Q = rep.alpha, rf_var("Q")
        datums = [a * Q, a * Q.inv(), a.inv() * Q, a.inv() * Q.inv(), RF_ONE]
    else:
        raise ValueError(f"standard L-factor implemented for types I/IIb only")
    out = RF_ONE
    for d in datums:
        out = out * (RF_ONE - d * T).inv()
    return out


EPSILON_CASES = ("ramified_spherical", "IIIa", "VIb", "old_I_IIb")


def local_epsilon(rep: LocalRep, twist: TwistData, case_tag: str) -> RatFunc:
    """Local epsilon factor of the computed cases, as a RatFunc in T.

    For the ramified spherical case the Gauss-sum unit conj(W_F(mu,psi))^4
    is carried as the opaque unit-modulus symbol W, and the factor
    mu(-a^-2 d) is left to the caller, as are W's numeric values (the
    residue-ring module has them).
    """
    if case_tag not in EPSILON_CASES:
        raise ValueError(f"unknown epsilon case {case_tag!r}")
    Q, T, U = rf_var("Q"), rf_var("T"), rf_var("U")
    if case_tag == "old_I_IIb":
        if rep.tag not in SPHERICAL_TAGS or not twist.unramified:
            raise ValueError("old-form case needs type I/IIb and unramified twist")
        return RF_ONE
    if case_tag in ("IIIa", "VIb"):
        if rep.tag != case_tag or not twist.unramified:
            raise ValueError(f"case {case_tag} needs a type-{case_tag} rep "
                             "and unramified twist")
        # mu(pi)^2 q^{2(1/2-s)}
        return twist.u**2 * Q**2 * T**2
    # ramified spherical: q^{4e(1/2-s)} Lambda(pi)^{-e} conj(W_F^4); the
    # factor mu(-a^-2 d) is the caller's
    if rep.tag not in SPHERICAL_TAGS or twist.e <= 0:
        raise ValueError("ramified case needs type I/IIb and conductor e > 0")
    e = twist.e
    W = rf_var("W")
    return Q ** (4 * e) * T ** (4 * e) * twist.lam ** (-e) * W**4

