"""Ground field arithmetic: exact rationals and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jalg import Field, JalgError, QQ

F5 = Field(5)
F7 = Field(7)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def test_interning():
    assert Field(5) is F5
    assert Field(0) is QQ
    assert Field(7) is not F5


def test_characteristic_must_be_prime_or_zero():
    for bad in (1, 4, 6, 9, -5, 2, 3):
        with pytest.raises(JalgError):
            Field(bad)


def test_char_2_and_3_rejected():
    # half of the product table must exist, and the cube law needs 1/3
    with pytest.raises(JalgError):
        Field(2)
    with pytest.raises(JalgError):
        Field(3)


def test_f5_field_axioms_exhaustive():
    els = list(F5.elements())
    assert els == [0, 1, 2, 3, 4]
    for a in els:
        assert F5.add(a, F5.zero) == a
        assert F5.mul(a, F5.one) == a
        assert F5.add(a, F5.neg(a)) == F5.zero
        if not F5.is_zero(a):
            assert F5.mul(a, F5.inv(a)) == F5.one
        for b in els:
            assert F5.add(a, b) == F5.add(b, a)
            assert F5.mul(a, b) == F5.mul(b, a)
            for c in els:
                assert F5.add(F5.add(a, b), c) == F5.add(a, F5.add(b, c))
                assert F5.mul(F5.mul(a, b), c) == F5.mul(a, F5.mul(b, c))
                assert F5.mul(a, F5.add(b, c)) == F5.add(
                    F5.mul(a, b), F5.mul(a, c)
                )


def test_f5_division():
    for a in F5.elements():
        for b in F5.elements():
            if F5.is_zero(b):
                with pytest.raises(ZeroDivisionError):
                    F5.div(a, b)
            else:
                assert F5.mul(F5.div(a, b), b) == a


@settings(deadline=None, derandomize=True)
@given(rationals, rationals, rationals)
def test_q_ring_laws(a, b, c):
    assert QQ.add(QQ.mul(a, b), QQ.mul(a, c)) == QQ.mul(a, QQ.add(b, c))
    assert QQ.sub(a, b) == QQ.add(a, QQ.neg(b))
    assert QQ.mul(QQ.mul(a, b), c) == QQ.mul(a, QQ.mul(b, c))


@settings(deadline=None, derandomize=True)
@given(rationals)
def test_q_inverse(a):
    if QQ.is_zero(a):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)
    else:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one


def test_coerce():
    assert QQ.coerce(3) == Fraction(3)
    assert isinstance(QQ.coerce(3), Fraction)
    assert F5.coerce(7) == 2
    assert F5.coerce(-1) == 4
    assert F5.coerce(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5


def test_coerce_q_keeps_a_fraction():
    x = Fraction(-7, 3)
    assert QQ.coerce(x) is x


@pytest.mark.parametrize("value", [0, 5, -4, True, False])
def test_coerce_q_turns_ints_and_bools_into_fractions(value):
    got = QQ.coerce(value)
    assert type(got) is Fraction
    assert got == Fraction(int(value))


def test_coerce_fp_unchanged():
    assert F7.coerce(Fraction(3, 2)) == 5  # 3/2 = 3 * 4 mod 7
    assert type(F7.coerce(Fraction(4))) is int
    assert F7.coerce(True) == 1
    assert F7.coerce(-9) == 5
    with pytest.raises(JalgError):
        QQ.coerce(0.5)
    with pytest.raises(JalgError):
        F7.coerce("1")


def test_coerce_vanishing_denominator_names_the_value():
    with pytest.raises(JalgError) as exc:
        F5.coerce(Fraction(3, 10))
    assert "3/10" in str(exc.value)
    with pytest.raises(JalgError):
        QQ.transport(Fraction(1, 5), F5)


def test_parse_and_format_q():
    assert QQ.parse("1/2") == Fraction(1, 2)
    assert QQ.parse("-3") == Fraction(-3)
    assert QQ.format(Fraction(-1, 2)) == "-1/2"
    assert QQ.format(Fraction(4)) == "4"
    with pytest.raises(JalgError):
        QQ.parse("x")


def test_parse_and_format_f5():
    assert F5.parse("3") == 3
    assert F5.parse("7") == 2
    assert F5.parse("-1") == 4
    assert F5.parse("1/2") == 3
    assert F5.format(3) == "3"
    with pytest.raises(JalgError):
        F5.parse("1/5")  # denominator vanishes mod 5


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/00"])
def test_parse_zero_denominator_says_so(text):
    for field in (QQ, F5, F7):
        with pytest.raises(JalgError) as exc:
            field.parse(text)
        assert str(exc.value) == f"bad scalar {text!r} over {field}: the denominator is zero"


def test_transport_q_to_fp():
    assert QQ.transport(Fraction(1, 2), F5) == 3
    assert QQ.transport(Fraction(1, 2), F7) == 4
    with pytest.raises((JalgError, ZeroDivisionError)):
        QQ.transport(Fraction(1, 5), F5)  # denominator vanishes mod 5
    # same-field transport is identity
    assert F5.transport(2, F5) == 2
    assert QQ.transport(Fraction(2), QQ) == Fraction(2)


def test_transport_out_of_prime_field_rejected():
    with pytest.raises(JalgError):
        F7.transport(2, F5)
    with pytest.raises(JalgError):
        F5.transport(2, QQ)


def test_str_forms():
    assert str(QQ) == "Q"
    assert str(F5) == "F5"


@pytest.mark.parametrize("text", ["0.5", "1e3", "1_000", "1e999999999", ".5", "1/2/3", "1 / 2", "inf", "nan"])
def test_parse_accepts_only_integers_and_quotients(text):
    """README: a number is n or n/d, optionally signed; nothing else."""
    for field in (QQ, F5):
        with pytest.raises(JalgError, match="expected n or n/d"):
            field.parse(text)
    assert QQ.parse("+3/4") == Fraction(3, 4)


def test_zero_and_one_are_values_set_at_interning():
    """Read twice, zero and one are the same immutable objects."""
    for f, kind in ((QQ, Fraction), (F5, int), (F7, int)):
        assert f.zero is f.zero and f.one is f.one
        assert (type(f.zero), type(f.one)) == (kind, kind)
        assert (f.zero, f.one) == (0, 1)
