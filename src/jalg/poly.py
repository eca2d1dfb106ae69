"""Sparse multivariate polynomials over a ground field.

Used in two roles:

* residuals: the cube law decides an identity coefficient by coefficient
  and, only on a FAIL, builds each residual as a polynomial in the
  coordinates of generic elements; the tests' slow oracles expand whole
  identities this way;
* parametric structure constants: one-parameter families of algebras and
  deformation maps keep symbolic entries like ``alpha`` or ``1 - 2*alpha``.

Both fit in degree <= 4 with a handful of variables, so a dict keyed by
exponent tuples is plenty.  Polynomials are immutable.
"""

from __future__ import annotations

from .errors import BudgetError, FieldMismatchError, JalgError
from .fields import Field


def _display_key(exp: tuple) -> tuple:
    """Term order of Poly.__str__: higher total degree first, then larger
    exponents earlier in the ring's name order."""
    return (-sum(exp), tuple(-x for x in exp))


class PolyRing:
    """Polynomial ring F[names].  Interned on (field, sorted names).

    Exposes the same raw-arithmetic protocol as Field (add, mul, coerce,
    is_zero, ...) with Poly instances as the raw values, so code that walks
    structure-constant tables can stay agnostic about whether entries are
    scalars or parameter polynomials.
    """

    _cache: dict[tuple, "PolyRing"] = {}

    field: Field
    names: tuple[str, ...]

    def __new__(cls, field: Field, names: tuple[str, ...] | list[str]):
        names = tuple(sorted(names))
        if len(set(names)) != len(names):
            raise JalgError(f"duplicate variable names in {names}")
        key = (field.characteristic, names)
        got = cls._cache.get(key)
        if got is not None:
            return got
        self = super().__new__(cls)
        self.field = field
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self._zero_exp = (0,) * len(names)
        cls._cache[key] = self
        return self

    def __repr__(self) -> str:
        return f"{self.field}[{', '.join(self.names)}]"

    # -- constructors --------------------------------------------------------

    def const(self, value) -> "Poly":
        return self._const_of(self.field.coerce(value))

    def _const_of(self, c) -> "Poly":
        """The constant polynomial of a field value as it is (one the
        library holds already): const without its coercion."""
        return Poly(self, {self._zero_exp: c} if c else {})

    def var(self, name: str) -> "Poly":
        try:
            i = self._index[name]
        except KeyError:
            raise JalgError(f"{name!r} is not a variable of {self}") from None
        exp = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return Poly(self, {exp: self.field.one})

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    @property
    def one(self) -> "Poly":
        return self._const_of(self.field.one)

    def coerce(self, value) -> "Poly":
        if isinstance(value, Poly):
            if value.ring is self:
                return value
            if value.ring.field is not self.field:
                raise FieldMismatchError(f"{value.ring} vs {self}")
            return value.embed(self)
        return self.const(value)

    def coerce_vector(self, values) -> tuple:
        """Field.coerce_vector's protocol: the values coerced one by one."""
        return tuple(map(self.coerce, values))

    # -- arithmetic protocol (delegates to Poly) ------------------------------

    def add(self, a: "Poly", b: "Poly") -> "Poly":
        return a + b

    def sub(self, a: "Poly", b: "Poly") -> "Poly":
        return a - b

    def mul(self, a: "Poly", b: "Poly") -> "Poly":
        return a * b

    def neg(self, a: "Poly") -> "Poly":
        return -a

    def is_zero(self, a: "Poly") -> bool:
        return not a.terms

    def eq(self, a: "Poly", b: "Poly") -> bool:
        return a.terms == b.terms

    def format(self, a: "Poly") -> str:
        return str(a)


class Poly:
    """Immutable sparse polynomial: {exponent tuple: nonzero field value}."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return self.ring.coerce(other)
        if other.ring is not self.ring:
            raise FieldMismatchError(f"{other.ring} vs {self.ring}")
        return other

    def __add__(self, other):
        other = self._check(other)
        f = self.ring.field
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = f.add(out.get(exp, f.zero), c)
            if f.is_zero(s):
                out.pop(exp, None)
            else:
                out[exp] = s
        return Poly(self.ring, out)

    def __neg__(self):
        f = self.ring.field
        return Poly(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        f = self.ring.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(i + j for i, j in zip(e1, e2))
                s = f.add(out.get(exp, f.zero), f.mul(c1, c2))
                if f.is_zero(s):
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return Poly(self.ring, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._check(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise JalgError("negative power")
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_value(self):
        """The raw field value of a constant polynomial."""
        if not self.terms:
            return self.ring.field.zero
        if len(self.terms) == 1:
            (exp, c), = self.terms.items()
            if not any(exp):
                return c
        raise JalgError(f"{self} is not constant")

    def leading_term(self) -> tuple:
        """(exponent tuple, raw coefficient) of the term __str__ prints first."""
        exp = min(self.terms, key=_display_key)
        return exp, self.terms[exp]

    def eval(self, values: dict[str, object]):
        """Substitute a raw field value for every variable; returns a raw value."""
        f = self.ring.field
        vals = []
        for name in self.ring.names:
            if name not in values:
                raise JalgError(f"no value given for {name}")
            vals.append(f.coerce(values[name]))
        total = f.zero
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(vals, exp):
                for _ in range(e):
                    term = f.mul(term, v)
            total = f.add(total, term)
        return total

    def embed(self, target: PolyRing) -> "Poly":
        """Rewrite in a ring whose variables contain this ring's."""
        if target.field is not self.ring.field:
            raise FieldMismatchError(f"{self.ring} vs {target}")
        try:
            positions = [target._index[n] for n in self.ring.names]
        except KeyError as exc:
            raise JalgError(f"{target} does not contain variable {exc}") from None
        width = len(target.names)
        out = {}
        for exp, c in self.terms.items():
            new = [0] * width
            for pos, e in zip(positions, exp):
                new[pos] = e
            out[tuple(new)] = c
        return Poly(target, out)

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring is other.ring and self.terms == other.terms
        try:
            other = self.ring.coerce(other)
        except JalgError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.ring), frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        f = self.ring.field
        names = self.ring.names
        parts = []
        for exp in sorted(self.terms, key=_display_key):
            c = self.terms[exp]
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exp)
                if e
            )
            if not mono:
                parts.append(f.format(c))
            elif f.eq(c, f.one):
                parts.append(mono)
            else:
                parts.append(f"{f.format(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# finite-field solving

# Bindings solve_fp may try; the n = 3 abelian census over F5 takes 2.44M.
SOLVE_NODE_BUDGET = 4_000_000


def solve_fp(field: Field, names, conditions) -> list[tuple]:
    """Every point of F_p^len(names) at which all `conditions` (Polys in
    these names) vanish, in itertools.product order.

    Depth first with names[0] outermost; each distinct condition is tested
    as soon as its last variable is bound.  Raises BudgetError after
    SOLVE_NODE_BUDGET bindings.
    """
    p = field.characteristic
    if not p:
        raise JalgError("enumeration needs a finite field")
    index = {n: i for i, n in enumerate(names)}
    checks = [[] for _ in range(len(names) + 1)]  # by 1 + last variable's position
    for cond in dict.fromkeys(conditions):
        if cond.ring.field is not field:
            raise FieldMismatchError(f"{cond.ring} vs {field}")
        used = {n for exp in cond.terms for n, e in zip(cond.ring.names, exp) if e}
        if not used <= index.keys():
            raise JalgError(f"{sorted(used - index.keys())} are not among {tuple(names)}")
        # a monomial is the tuple of its variables' positions, with repeats
        terms = [
            (c, tuple(index[n] for n, e in zip(cond.ring.names, exp) for _ in range(e)))
            for exp, c in cond.terms.items()
        ]
        checks[max((index[n] + 1 for n in used), default=0)].append(terms)

    vals = [0] * len(names)
    found, nodes = [], 0

    def holds(terms) -> bool:
        total = 0
        for c, mono in terms:
            for v in mono:
                c *= vals[v]
            total += c
        return total % p == 0

    def descend(d):
        nonlocal nodes
        if d == len(names):
            found.append(tuple(vals))
            return
        for vals[d] in range(p):
            nodes += 1
            if nodes > SOLVE_NODE_BUDGET:
                raise BudgetError(
                    f"the search over F{p}^{len(names)} exceeded {SOLVE_NODE_BUDGET} nodes"
                )
            if all(holds(t) for t in checks[d + 1]):
                descend(d + 1)

    if all(holds(t) for t in checks[0]):
        descend(0)
    return found
