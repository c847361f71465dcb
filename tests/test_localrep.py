import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

from besselzeta.localrep import (
    LocalRep,
    TwistData,
    UNRAMIFIED,
    dims,
    local_epsilon,
    spinor_lfactor,
    std_lfactor,
)
from besselzeta.localzeta import t_factor
from besselzeta.symfield import RF_ONE, RatFunc, parse_ratfunc, rf_var

U_TWIST = TwistData(u=rf_var("U"))


def test_dims_table():
    assert dims(LocalRep.symbolic("I")) == (1, 4)
    assert dims(LocalRep.symbolic("IIb")) == (1, 3)
    assert dims(LocalRep.symbolic("IIIa")) == (0, 2)
    assert dims(LocalRep.symbolic("VIb")) == (0, 1)


def test_spinor_matches_table_verbatim():
    # the table entries transcribed as parse strings, q^{-s-1/2} = T/Q
    table = {
        "I": "(1 - A*B*G*T)^-1 * (1 - A*G*T)^-1 * (1 - B*G*T)^-1 * (1 - G*T)^-1",
        "IIb": "(1 - A^2*G*T)^-1 * (1 - G*T)^-1 * (1 - A*G*T/Q)^-1 * (1 - A*G*T*Q)^-1",
        "IIIa": "(1 - A*G*T/Q)^-1 * (1 - G*T/Q)^-1",
        "VIb": "(1 - G*T/Q)^-2",
    }
    for tag, text in table.items():
        assert spinor_lfactor(LocalRep.symbolic(tag)) == parse_ratfunc(text)


def test_spinor_twist_scales_satake():
    rep = LocalRep.symbolic("IIIa")
    twisted = spinor_lfactor(rep, U_TWIST)
    untwisted = spinor_lfactor(rep)
    assert twisted == untwisted.subst({"T": rf_var("U") * rf_var("T")})
    # setting U = 1 recovers the table
    assert twisted.subst({"U": RF_ONE}) == untwisted


def test_spinor_examples():
    one = RF_ONE
    A, G, T, Q = (rf_var(n) for n in "AGTQ")
    got = spinor_lfactor(LocalRep.symbolic("IIIa"), TwistData(u=1))
    assert got == ((one - A * G * T / Q) * (one - G * T / Q)).inv()
    got = spinor_lfactor(LocalRep("VIb", (1,)), TwistData(u=1))
    assert got == ((one - T / Q) ** 2).inv()
    rep1 = LocalRep("I", (1, 1, 1))
    assert spinor_lfactor(rep1).subst({"T": RatFunc.const(0)}) == one


def test_spinor_ramified_twist_rejected():
    with pytest.raises(ValueError):
        spinor_lfactor(LocalRep.symbolic("I"), TwistData(e=1))


def test_spinor_permutation_invariance():
    # with alpha beta gamma^2 = 1 imposed, swapping alpha and beta fixes the
    # Satake multiset and hence the factor
    A, G = rf_var("A"), rf_var("G")
    rep = LocalRep("I", (A, (A * G**2).inv(), G))
    swapped = LocalRep("I", ((A * G**2).inv(), A, G))
    assert spinor_lfactor(rep, U_TWIST) == spinor_lfactor(swapped, U_TWIST)


def test_std_lfactor():
    one = RF_ONE
    T = rf_var("T")
    rep = LocalRep("I", (1, 1, rf_var("G")))
    assert std_lfactor(rep) == ((one - T) ** 5).inv()
    generic = std_lfactor(LocalRep.symbolic("I"))
    assert generic.subst({"T": RatFunc.const(0)}) == one
    # (I; alpha=beta=gamma=1) at q=3, s=1: T=1/3 -> (3/2)^5
    val = std_lfactor(LocalRep("I", (1, 1, 1))).subst(
        {"T": RatFunc.const(Fraction(1, 3))}
    )
    assert val == RatFunc.const(Fraction(243, 32))
    with pytest.raises(ValueError):
        std_lfactor(LocalRep.symbolic("IIIa"))


def test_central_characters():
    assert LocalRep.symbolic_trivial("I").has_trivial_central_character()
    assert LocalRep.symbolic_trivial("IIb").has_trivial_central_character()
    assert LocalRep.symbolic_trivial("IIb", -1).has_trivial_central_character()
    assert LocalRep.symbolic_trivial("IIIa").has_trivial_central_character()
    assert LocalRep.symbolic_trivial("VIb", -1).has_trivial_central_character()
    assert not LocalRep.symbolic("I").has_trivial_central_character()


def test_local_epsilon_cases():
    Q, T, U, W = (rf_var(n) for n in "QTUW")
    e3 = local_epsilon(LocalRep.symbolic("IIIa"), U_TWIST, "IIIa")
    e6 = local_epsilon(LocalRep.symbolic("VIb"), U_TWIST, "VIb")
    assert e3 == U**2 * Q**2 * T**2
    assert e3 == e6
    assert local_epsilon(LocalRep.symbolic_trivial("I"), U_TWIST, "old_I_IIb") == RF_ONE
    # ramified spherical at e=1, Lambda(pi)=1, mu(-a^-2 d)=1:
    # q^{4(1/2-s)} times the conjugated Gauss-sum unit W^4
    got = local_epsilon(LocalRep.symbolic("I"), TwistData(e=1), "ramified_spherical")
    assert got == Q**4 * T**4 * W**4
    with pytest.raises(ValueError):
        local_epsilon(LocalRep.symbolic("IIIa"), U_TWIST, "VIb")
    with pytest.raises(ValueError):
        local_epsilon(LocalRep.symbolic("I"), UNRAMIFIED, "ramified_spherical")
    with pytest.raises(ValueError):
        local_epsilon(LocalRep.symbolic("I"), U_TWIST, "nonsense")


def test_t_factor_pins():
    assert t_factor(LocalRep.symbolic_trivial("VIb"), UNRAMIFIED, 5) == 1
    assert t_factor(LocalRep.symbolic("IIIa"), UNRAMIFIED, 5) == 2
    # constant sanity pin
    assert (
        t_factor(LocalRep.symbolic_trivial("VIb"), UNRAMIFIED, 3)
        + t_factor(LocalRep.symbolic("IIIa"), UNRAMIFIED, 3)
        == 3
    )


def test_t_factor_spherical_independent_oracle():
    # independent evaluation: tr T_{1,0} = 4 q^{3/2} and tr eta = 0 at the
    # fully degenerate point alpha = beta = gamma = 1, q = p = 3
    got = t_factor(LocalRep("I", (1, 1, 1)), UNRAMIFIED, 3)
    q = 3.0
    lstd = (1 - 1 / q) ** -5
    want = 2 * (q - 1) * q**-5 * lstd * (1 + 1 - (1 / (q + 1)) * (4 * q**1.5 / q))
    assert abs(got - want) < 1e-15
    assert abs(got - (2 - math.sqrt(3)) / 8) < 1e-12


def test_t_factor_ramified_rejected():
    with pytest.raises(ValueError):
        t_factor(LocalRep.symbolic("IIIa"), TwistData(e=2), 3)


def test_rep_validation():
    with pytest.raises(ValueError):
        LocalRep("X", (1,))
    with pytest.raises(ValueError):
        LocalRep("VIb", (1, 2))
    with pytest.raises(ValueError):
        LocalRep.symbolic("VIb").param("alpha")


@pytest.mark.parametrize("make", [
    lambda tag: LocalRep(tag, (1,)),
    LocalRep.symbolic,
    LocalRep.symbolic_trivial,
])
def test_unknown_tag_is_one_value_error(make):
    with pytest.raises(ValueError) as err:
        make("X")
    assert type(err.value) is ValueError
    assert str(err.value) == "unknown representation type 'X'"


def test_conjugation_map():
    rep = LocalRep.symbolic_trivial("I")
    sub = rep.conjugation_map()
    assert sub["A"] == rf_var("A").inv()
    # numeric parameters must be +-1 for the shortcut
    assert LocalRep("I", (1, -1, 1)).conjugation_map() == {}
    with pytest.raises(ValueError):
        LocalRep("I", (Fraction(1, 2), 1, 1)).conjugation_map()


SRC = Path(__file__).resolve().parents[1] / "src" / "besselzeta"


def test_imports_only_at_module_level():
    """No module imports inside a function or class, and localrep, which
    localzeta builds on, imports nothing from localzeta."""
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []
    tree = ast.parse((SRC / "localrep.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and "localzeta" in [node.module] + [a.name for a in node.names]]
