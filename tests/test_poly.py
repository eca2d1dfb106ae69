"""Multivariate polynomial ring used for parametric entries."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jalg import Field, JalgError, PolyRing, QQ

F5 = Field(5)
RQ = PolyRing(QQ, ("alpha", "beta"))
R5 = PolyRing(F5, ("alpha",))


def small_polys(ring, coeff_strategy):
    """Random polynomials: sums of scaled variable products."""

    def build(pairs):
        acc = ring.zero
        for coeff, exps in pairs:
            term = ring.const(coeff)
            for var, e in zip(("alpha", "beta")[: len(exps)], exps):
                for _ in range(e):
                    term = ring.mul(term, ring.var(var))
            acc = ring.add(acc, term)
        return acc

    pair = st.tuples(
        coeff_strategy,
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=2),
    )
    return st.lists(pair, max_size=4).map(build)


q_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
q_polys = small_polys(RQ, q_coeffs)


def test_ring_interning():
    assert PolyRing(QQ, ("alpha", "beta")) is RQ
    assert PolyRing(F5, ("alpha",)) is R5
    assert PolyRing(QQ, ("alpha",)) is not RQ


def test_variables_must_be_distinct():
    with pytest.raises(JalgError):
        PolyRing(QQ, ("alpha", "alpha"))


def test_constants_and_vars():
    one = RQ.one
    assert RQ.format(one) == "1"
    assert RQ.format(RQ.zero) == "0"
    a = RQ.var("alpha")
    assert RQ.format(a) == "alpha"
    assert a.degree() == 1
    assert RQ.one.degree() == 0
    with pytest.raises(JalgError):
        RQ.var("gamma")


def test_format_readable():
    a, b = RQ.var("alpha"), RQ.var("beta")
    p = RQ.add(RQ.mul(a, a), RQ.neg(RQ.mul(RQ.const(Fraction(1, 2)), b)))
    assert RQ.format(p) == "alpha^2 - 1/2*beta"


def test_constant_value():
    assert RQ.const(Fraction(3)).constant_value() == Fraction(3)
    assert RQ.zero.constant_value() == Fraction(0)
    with pytest.raises(JalgError):
        RQ.var("alpha").constant_value()


@settings(deadline=None, derandomize=True)
@given(q_polys, q_polys, q_polys)
def test_ring_laws(p, q, r):
    assert RQ.eq(RQ.add(p, q), RQ.add(q, p))
    assert RQ.eq(RQ.mul(p, q), RQ.mul(q, p))
    assert RQ.eq(RQ.mul(RQ.mul(p, q), r), RQ.mul(p, RQ.mul(q, r)))
    assert RQ.eq(RQ.mul(p, RQ.add(q, r)), RQ.add(RQ.mul(p, q), RQ.mul(p, r)))
    assert RQ.eq(RQ.sub(p, p), RQ.zero)
    assert RQ.eq(RQ.mul(p, RQ.one), p)


@settings(deadline=None, derandomize=True)
@given(q_polys, q_polys, q_coeffs, q_coeffs)
def test_eval_is_ring_hom(p, q, x, y):
    at = {"alpha": x, "beta": y}
    assert RQ.add(p, q).eval(at) == QQ.add(p.eval(at), q.eval(at))
    assert RQ.mul(p, q).eval(at) == QQ.mul(p.eval(at), q.eval(at))


def test_eval_requires_all_variables():
    p = RQ.var("alpha")
    with pytest.raises(JalgError):
        p.eval({})


def test_coerce_embeds_scalars_and_same_ring():
    p = RQ.coerce(Fraction(1, 2))
    assert p.constant_value() == Fraction(1, 2)
    assert RQ.coerce(RQ.var("alpha")) is not None
    with pytest.raises(JalgError):
        RQ.coerce(R5.var("alpha"))  # different ground field


def test_f5_poly_arithmetic():
    a = R5.var("alpha")
    p = R5.add(R5.mul(R5.const(3), a), R5.const(4))
    # 3 alpha + 4 at alpha = 2 is 10 = 0 mod 5
    assert p.eval({"alpha": 2}) == 0
    assert R5.format(p) == "3*alpha + 4"


def test_is_zero():
    a = RQ.var("alpha")
    assert RQ.is_zero(RQ.sub(RQ.mul(a, a), RQ.mul(a, a)))
    assert not RQ.is_zero(a)
    # truthiness is nonzero-ness, as for the field values the kernels skip
    assert not (a - a) and not RQ.zero and not R5.const(5)
    assert a and RQ.one and R5.const(3)
