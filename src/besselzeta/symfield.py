"""Exact multivariate Laurent rational functions over the rationals.

Everything symbolic in this package lives in the field Q(Q, T, A, B, G, ...)
of rational functions in named variables with integer (Laurent) exponents.
The builtin variable registry covers the quantities that recur throughout
the local computations:

    Q   square root of the residue cardinality, q = Q**2
    T   q**(-s)
    A   Satake parameter alpha
    B   Satake parameter beta
    G   Satake parameter gamma
    U   twist value mu(pi) at a uniformizer
    L   unramified character value Lambda(pi) at a uniformizer

Q is treated as strictly positive in the documentation sense only; no
ordering of values is ever used.  Any further identifier can be introduced
as an extension variable (series variables, recursion scalars, opaque unit
symbols).

Rational functions are kept fully canonical: numerator and denominator are
integer-primitive polynomials with no common factor, no common monomial,
and the denominator has positive leading coefficient in the fixed monomial
order.  Equality of canonical forms is therefore structural.  Multivariate
polynomial gcd is delegated to sympy's sparse polynomial rings over ZZ;
all other arithmetic is self-contained.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd
from typing import Iterable, Mapping

from sympy import ZZ
from sympy.polys.rings import ring as _sympy_ring

BUILTIN_VARS = ("Q", "T", "A", "B", "G", "U", "L")

# A monomial is a tuple of (name, exponent) pairs, sorted by name, with no
# zero exponents.  The empty tuple is the constant monomial.
Mono = tuple


class Var:
    """A named symbolic variable.

    Names must be Python identifiers.  The builtin registry is the tuple
    ``BUILTIN_VARS``; any other identifier is an extension variable.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name.isidentifier():
            raise ValueError(f"invalid variable name {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("Var is immutable")

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self):
        return hash(("Var", self.name))

    def __repr__(self):
        return f"Var({self.name!r})"

    def rf(self) -> "RatFunc":
        return RatFunc.var(self.name)


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for name, e in m2:
        e2 = d.get(name, 0) + e
        if e2:
            d[name] = e2
        else:
            del d[name]
    return tuple(sorted(d.items()))


def _mono_pow(m: Mono, k: int) -> Mono:
    if k == 0 or not m:
        return ()
    return tuple((name, e * k) for name, e in m)


class LaurentPoly:
    """Finite sum of monomials with exact rational coefficients.

    Exponents may be negative.  No zero coefficient is ever stored, so the
    representation is canonical and structural equality is mathematical
    equality.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Mono, Fraction] | None = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def const(c) -> "LaurentPoly":
        c = Fraction(c)
        return LaurentPoly({(): c} if c else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "LaurentPoly":
        Var(name)  # validate
        if exp == 0:
            return LaurentPoly.const(1)
        return LaurentPoly({((name, exp),): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_const():
            return self.terms[()]
        raise ValueError("not a constant")

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def variables(self) -> tuple:
        names = set()
        for mono in self.terms:
            for name, _ in mono:
                names.add(name)
        return tuple(sorted(names))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.terms)
        for mono, c in other.terms.items():
            s = d.get(mono, Fraction(0)) + c
            if s:
                d[mono] = s
            elif mono in d:
                del d[mono]
        return LaurentPoly(d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        d = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = d.get(m, Fraction(0)) + c1 * c2
                if s:
                    d[m] = s
                elif m in d:
                    del d[m]
        return LaurentPoly(d)

    def scale(self, c: Fraction) -> "LaurentPoly":
        if not c:
            return LaurentPoly()
        return LaurentPoly({m: cc * c for m, cc in self.terms.items()})

    def mono_shift(self, shift: Mono) -> "LaurentPoly":
        if not shift:
            return self
        return LaurentPoly({_mono_mul(m, shift): c for m, c in self.terms.items()})

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            if self.is_monomial():
                ((m, c),) = self.terms.items()
                return LaurentPoly({_mono_pow(m, k): c**k})
            raise ValueError("negative power of a non-monomial LaurentPoly")
        out = LaurentPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def min_exponents(self) -> dict:
        """Per-variable minimum exponent over all terms (0 where absent)."""
        return {
            name: min(dict(mono).get(name, 0) for mono in self.terms)
            for name in self.variables()
        }

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"LaurentPoly({poly_text(self)!r})"


_ZERO = LaurentPoly()
_ONE = LaurentPoly.const(1)


def _mono_key(mono: Mono, names: tuple) -> tuple:
    d = dict(mono)
    return tuple(d.get(n, 0) for n in names)


def _sorted_terms(poly: LaurentPoly) -> list:
    names = poly.variables()
    return sorted(
        poly.terms.items(), key=lambda item: _mono_key(item[0], names), reverse=True
    )


def poly_text(poly: LaurentPoly) -> str:
    """Deterministic text form: monomials in descending lex order."""
    if poly.is_zero:
        return "0"
    pieces = []
    for mono, coeff in _sorted_terms(poly):
        factors = []
        if abs(coeff) != 1 or not mono:
            factors.append(str(abs(coeff)))
        for name, e in mono:
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


@lru_cache(maxsize=None)
def _ring_for(names: tuple):
    return _sympy_ring(list(names), ZZ) if names else None


def _to_sympy(poly: LaurentPoly, names: tuple, R):
    elem = R.zero
    gens = R.gens
    for mono, coeff in poly.terms.items():
        term = R.ground_new(int(coeff))
        d = dict(mono)
        for i, n in enumerate(names):
            e = d.get(n, 0)
            if e:
                term = term * gens[i] ** e
        elem = elem + term
    return elem


def _from_sympy(elem, names: tuple) -> LaurentPoly:
    terms = {}
    for exps, coeff in elem.terms():
        mono = tuple(
            sorted((names[i], e) for i, e in enumerate(exps) if e)
        )
        terms[mono] = Fraction(int(coeff))
    return LaurentPoly(terms)


def _poly_gcd_reduce(num: LaurentPoly, den: LaurentPoly):
    """Divide out the polynomial gcd of two integer Laurent-free polys."""
    names = tuple(sorted(set(num.variables()) | set(den.variables())))
    if not names:
        return num, den
    ring_info = _ring_for(names)
    R = ring_info[0]
    a = _to_sympy(num, names, R)
    b = _to_sympy(den, names, R)
    g = a.gcd(b)
    if g == R.one:
        return num, den
    return _from_sympy(a.quo(g), names), _from_sympy(b.quo(g), names)


class RatFunc:
    """A rational function num/den in canonical reduced form.

    Canonical means: common monomial factors and content are removed, the
    polynomial gcd of numerator and denominator is 1, and the denominator's
    leading coefficient (lex order over sorted variable names) is positive.
    Two RatFuncs are equal iff they are the same function.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _ONE):
        if den.is_zero:
            raise ZeroDivisionError("RatFunc with zero denominator")
        num, den = _canonicalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c) -> "RatFunc":
        c = Fraction(c)
        return RatFunc(LaurentPoly.const(c.numerator), LaurentPoly.const(c.denominator))

    @staticmethod
    def var(name: str, exp: int = 1) -> "RatFunc":
        if exp >= 0:
            return RatFunc(LaurentPoly.var(name, exp) if exp else _ONE)
        return RatFunc(_ONE, LaurentPoly.var(name, -exp))

    @staticmethod
    def coerce(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, Var):
            return value.rf()
        if isinstance(value, LaurentPoly):
            return RatFunc(value)
        return RatFunc.const(value)

    # -- predicates ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def variables(self) -> tuple:
        return tuple(sorted(set(self.num.variables()) | set(self.den.variables())))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other) -> "RatFunc":
        return RatFunc.coerce(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division of RatFunc by zero")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return RatFunc.coerce(other) / self

    def inv(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero RatFunc")
        return RatFunc(self.den, self.num)

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            return self.inv() ** (-k)
        return RatFunc(self.num**k, self.den**k)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            try:
                other = RatFunc.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution and evaluation ------------------------------------
    def subst(self, bindings: Mapping[str, "RatFunc"]) -> "RatFunc":
        """Substitute variables by rational functions, exactly.

        Raises ZeroDivisionError if the denominator vanishes identically
        under the binding.
        """
        bind = {k: RatFunc.coerce(v) for k, v in bindings.items()}
        num = _poly_subst(self.num, bind)
        den = _poly_subst(self.den, bind)
        if den.is_zero:
            raise ZeroDivisionError("denominator vanishes under substitution")
        return num / den

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        """Numeric evaluation; every variable must be bound."""
        num = _poly_eval(self.num, values)
        den = _poly_eval(self.den, values)
        if den == 0:
            raise ZeroDivisionError("denominator evaluates to zero")
        return num / den

    # -- text form -------------------------------------------------------
    def to_text(self) -> str:
        num = poly_text(self.num)
        if self.den == _ONE:
            return num
        return f"({num}) / ({poly_text(self.den)})"

    def __repr__(self):
        return f"RatFunc({self.to_text()!r})"


def _canonicalize(num: LaurentPoly, den: LaurentPoly):
    if num.is_zero:
        return _ZERO, _ONE
    # joint monomial shift so that each variable's minimum exponent over
    # numerator and denominator together is zero
    mins_n = num.min_exponents()
    mins_d = den.min_exponents()
    shift = {}
    for name in set(mins_n) | set(mins_d):
        m = min(mins_n.get(name, 0), mins_d.get(name, 0))
        if m:
            shift[name] = -m
    if shift:
        mono = tuple(sorted(shift.items()))
        num = num.mono_shift(mono)
        den = den.mono_shift(mono)
    # joint scaling to primitive integer coefficients
    denoms = [c.denominator for c in num.terms.values()]
    denoms += [c.denominator for c in den.terms.values()]
    mult = 1
    for d in denoms:
        mult = mult * d // _int_gcd(mult, d)
    if mult != 1:
        num = num.scale(Fraction(mult))
        den = den.scale(Fraction(mult))
    content = 0
    for c in num.terms.values():
        content = _int_gcd(content, abs(c.numerator))
    for c in den.terms.values():
        content = _int_gcd(content, abs(c.numerator))
    if content > 1:
        num = num.scale(Fraction(1, content))
        den = den.scale(Fraction(1, content))
    # polynomial gcd; monomials carry none after the shift and content steps
    if not num.is_monomial() and not den.is_monomial():
        num, den = _poly_gcd_reduce(num, den)
    # positive leading coefficient of the denominator
    names = den.variables()
    lead = max(den.terms, key=lambda m: _mono_key(m, names))
    if den.terms[lead] < 0:
        num, den = -num, -den
    return num, den


def _poly_subst(poly: LaurentPoly, bind: Mapping[str, RatFunc]) -> RatFunc:
    total = RF_ZERO
    for mono, coeff in poly.terms.items():
        term = RatFunc.const(coeff)
        for name, e in mono:
            base = bind.get(name)
            if base is None:
                term = term * RatFunc.var(name, e)
            else:
                term = term * base**e
        total = total + term
    return total


def _poly_eval(poly: LaurentPoly, values: Mapping[str, complex]):
    total = 0
    for mono, coeff in poly.terms.items():
        term = complex(coeff)
        for name, e in mono:
            if name not in values:
                raise KeyError(f"no value bound for variable {name}")
            term *= complex(values[name]) ** e
        total += term
    return total


RF_ZERO = RatFunc(_ZERO)
RF_ONE = RatFunc(_ONE)


def rf(value) -> RatFunc:
    """Shorthand coercion to RatFunc (int, Fraction, Var, LaurentPoly)."""
    return RatFunc.coerce(value)


def rf_var(name: str, exp: int = 1) -> RatFunc:
    return RatFunc.var(name, exp)


def rf_arith(lhs: RatFunc, rhs: RatFunc, op: str) -> RatFunc:
    """Field arithmetic dispatch: op in {'add','sub','mul','div'}."""
    lhs, rhs = RatFunc.coerce(lhs), RatFunc.coerce(rhs)
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    if op == "div":
        return lhs / rhs
    raise ValueError(f"unknown operation {op!r}")


def rf_subst(f: RatFunc, bindings: Mapping[str, "RatFunc"]) -> RatFunc:
    """Function form of RatFunc.subst."""
    return RatFunc.coerce(f).subst(bindings)


# ---------------------------------------------------------------------------
# matrices


class RatMatrix:
    """A rectangular matrix of RatFuncs with dimension-checked arithmetic."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(RatFunc.coerce(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("RatMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(
            [[RF_ONE if i == j else RF_ZERO for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            [
                [self.entries[i][j] - other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")

    def scale(self, c) -> "RatMatrix":
        c = RatFunc.coerce(c)
        return RatMatrix([[e * c for e in row] for row in self.entries])

    def __mul__(self, other):
        if not isinstance(other, RatMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        return RatMatrix(
            [
                [
                    sum(
                        (self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                        RF_ZERO,
                    )
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
        )

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def trace(self) -> RatFunc:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), RF_ZERO)

    def solve(self, rhs: "RatMatrix") -> "RatMatrix":
        """The X with self * X == rhs, by Gauss-Jordan elimination over the
        RatFunc field.  Raises ValueError if self is singular.

        Rows are cleared below each pivot first and above them afterwards,
        last pivot first, so a triangular system of either orientation
        costs one substitution sweep.
        """
        if self.rows != self.cols:
            raise ValueError("solve needs a square matrix")
        if rhs.rows != self.rows:
            raise ValueError("matrix shape mismatch in solve")
        n = self.rows
        work = [list(row) + list(rhs_row) for row, rhs_row in
                zip(self.entries, rhs.entries)]

        def eliminate(r, col):
            # work[col] is zero left of col, so only entries from col on change
            factor = work[r][col]
            if not factor.is_zero:
                work[r][col:] = [a - factor * b
                                 for a, b in zip(work[r][col:], work[col][col:])]

        for col in range(n):
            pivot = next((r for r in range(col, n) if not work[r][col].is_zero), None)
            if pivot is None:
                raise ValueError("singular matrix")
            work[col], work[pivot] = work[pivot], work[col]
            inv_p = work[col][col].inv()
            work[col][col:] = [e * inv_p for e in work[col][col:]]
            for r in range(col + 1, n):
                eliminate(r, col)
        for col in reversed(range(n)):
            for r in range(col):
                eliminate(r, col)
        return RatMatrix([row[n:] for row in work])

    def inverse(self) -> "RatMatrix":
        """Exact inverse, solve(identity)."""
        return self.solve(RatMatrix.identity(self.rows))

    def subst(self, bindings) -> "RatMatrix":
        return RatMatrix([[e.subst(bindings) for e in row] for row in self.entries])

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(
            ", ".join(e.to_text() for e in row) for row in self.entries
        )
        return f"RatMatrix([{body}])"


def geom_resolvent(m: RatMatrix, x) -> RatMatrix:
    """Closed form of the geometric series sum_{l>=0} M^l x^l = (I - x M)^{-1}.

    Raises ValueError if I - x M is singular over the function field.
    """
    if m.rows != m.cols:
        raise ValueError("geom_resolvent needs a square matrix")
    x = RatFunc.coerce(x)
    return (RatMatrix.identity(m.rows) - m.scale(x)).inverse()


# ---------------------------------------------------------------------------
# parsing


class _Tokens:
    def __init__(self, text: str):
        self.toks = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text):
        toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                toks.append(("int", text[i:j]))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append(("name", text[i:j]))
                i = j
            elif ch in "+-*/^()":
                toks.append((ch, ch))
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in expression")
        return toks

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok


def parse_ratfunc(text: str, extra_vars: Iterable[str] = ()) -> RatFunc:
    """Parse a small infix grammar: + - * / ^, integer exponents, variables.

    Variable names must be builtin (Q T A B G U L) or listed in extra_vars.
    """
    allowed = set(BUILTIN_VARS) | set(extra_vars)
    tk = _Tokens(text)

    def parse_expr():
        node = parse_term()
        while tk.peek()[0] in ("+", "-"):
            op = tk.next()[0]
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while tk.peek()[0] in ("*", "/"):
            op = tk.next()[0]
            rhs = parse_factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_factor():
        if tk.peek()[0] == "-":
            tk.next()
            return -parse_factor()
        node = parse_atom()
        if tk.peek()[0] == "^":
            tk.next()
            node = node ** parse_exponent()
        return node

    def parse_exponent() -> int:
        sign = 1
        kind, val = tk.next()
        if kind == "-":
            sign = -1
            kind, val = tk.next()
        if kind == "(":
            inner = parse_exponent()
            if tk.next()[0] != ")":
                raise ValueError("unbalanced parenthesis in exponent")
            return sign * inner
        if kind != "int":
            raise ValueError("exponent must be an integer")
        return sign * int(val)

    def parse_atom():
        kind, val = tk.next()
        if kind == "int":
            return RatFunc.const(int(val))
        if kind == "name":
            if val not in allowed:
                raise ValueError(f"unknown variable {val!r}")
            return RatFunc.var(val)
        if kind == "(":
            inner = parse_expr()
            if tk.next()[0] != ")":
                raise ValueError("unbalanced parenthesis")
            return inner
        raise ValueError(f"unexpected token {val!r}")

    result = parse_expr()
    if tk.peek()[0] is not None:
        raise ValueError("trailing input after expression")
    return result
