"""Text formats: parse, serialize, and the parse/write round trip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jalg import (
    Algebra,
    Field,
    JalgError,
    LeftAction,
    MatchedPair,
    ParseError,
    PolyRing,
    QQ,
    RightAction,
    catalog,
    catalog_names,
    load_algebra,
    load_pair,
    parse_algebra,
    parse_pair,
    write_algebra,
    write_pair,
)
from jalg.cli import _parse_map_flag
from jalg.fileio import _parse_combination

F5 = Field(5)


# -- algebra files ---------------------------------------------------------------


def test_parse_minimal_sparse_table():
    A = parse_algebra(
        """
        field Q
        dim 2
        basis u v
        mult u u = u
        """
    )
    assert A.field is QQ
    assert A.basis == ("u", "v")
    u = A.basis_element("u")
    assert A.mul(u, u).coords == (1, 0)
    # unlisted products default to zero
    assert A.mul(u, A.basis_element("v")).is_zero


def test_parse_full_j5_file():
    text = """
    # comments and blank lines are ignored

    field Q
    dim 4
    basis a b u v
    mult a a = a
    mult b b = b
    mult a u = 1/2 u
    mult b u = 1/2 u
    mult a v = v
    """
    A = parse_algebra(text, name="J5")
    assert A.name == "J5"
    assert A.table_key() == catalog("J5").table_key()


def test_parse_finite_field_reduces_fractions():
    A = parse_algebra(
        """
        field F5
        dim 1
        basis u
        mult u u = 1/2 u
        """
    )
    assert A.sc[0][0] == (3,)


def test_parse_combination_forms():
    A = parse_algebra(
        """
        field Q
        dim 3
        basis a b c
        mult a a = a + 2 b - 1/2 c
        mult b b = 0
        mult a b = - b
        """
    )
    assert A.sc[0][0] == (1, 2, Fraction(-1, 2))
    assert A.sc[1][1] == (0, 0, 0)
    assert A.sc[0][1] == (0, -1, 0)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_algebra("field Q\ndim 2\nbasis u v\nmult u z = u")
    assert exc.value.line == 4

    with pytest.raises(ParseError) as exc:
        parse_algebra("field Q\ndim 2\nbasis u v\nmult u u = u\nmult u u = v")
    assert exc.value.line == 5


def test_parse_rejects_structural_problems():
    with pytest.raises(ParseError):
        parse_algebra("dim 1\nbasis u")  # no field
    with pytest.raises(ParseError):
        parse_algebra("field Q\ndim 2\nbasis u")  # dim/basis mismatch
    with pytest.raises(ParseError):
        parse_algebra("field Q\nfield Q\ndim 1\nbasis u")  # repeated header
    with pytest.raises(ParseError):
        parse_algebra("field F4\ndim 1\nbasis u")  # 4 is not prime
    with pytest.raises(ParseError):
        parse_algebra("field Q\ndim 0\nbasis")  # grammar wants dim >= 1
    with pytest.raises(ParseError):
        parse_algebra("field Q\ndim 1\nbasis u\nmult u u = 1/0 u")


def test_parse_rejects_stray_tokens():
    with pytest.raises(ParseError):
        parse_algebra("field Q\ndim 1\nbasis u\nnonsense line here")


def test_write_algebra_canonical_form(j5):
    text = write_algebra(j5)
    assert text.splitlines()[0] == "field Q"
    assert "mult a u = 1/2 u" in text
    # coefficient 1 is omitted
    assert "mult a a = a" in text
    assert "1 a" not in text


def test_algebra_roundtrip_all_catalog_entries():
    for name in catalog_names():
        entry = catalog(name)
        if not hasattr(entry, "table_key"):
            continue  # matched pairs are covered below
        text = write_algebra(entry)
        again = parse_algebra(text, name=name)
        assert again.table_key() == entry.table_key()
        assert write_algebra(again) == text


# -- pair files -------------------------------------------------------------------


PAIR_TEXT = """
algebra A
  field Q
  dim 2
  basis a b
  mult a a = a
  mult b b = b
end
algebra V
  field Q
  dim 2
  basis u v
  mult u u = u
end
right v . a = 1/2 v
right v . b = 1/2 v
"""


def test_parse_pair_matches_catalog(defmap_pair):
    mp = parse_pair(PAIR_TEXT)
    assert mp == defmap_pair
    assert mp.verify().ok


def test_parse_pair_without_actions_gives_zero_actions():
    mp = parse_pair(
        """
        algebra A
          field Q
          dim 1
          basis a
          mult a a = a
        end
        algebra V
          field Q
          dim 1
          basis x
        end
        """
    )
    assert mp.right.is_zero()
    assert mp.left.is_zero()
    assert mp.verify().ok


def test_parse_pair_rejects_duplicate_action():
    with pytest.raises(ParseError):
        parse_pair(
            PAIR_TEXT + "\nright v . a = v\n"
        )


def test_parse_pair_rejects_unknown_label():
    with pytest.raises(ParseError):
        parse_pair(PAIR_TEXT + "\nright z . a = v\n")
    with pytest.raises(ParseError):
        parse_pair(PAIR_TEXT + "\nleft u . a = q\n")


def test_parse_pair_rejects_field_mismatch():
    with pytest.raises(ParseError):
        parse_pair(
            """
            algebra A
              field Q
              dim 1
              basis a
            end
            algebra V
              field F5
              dim 1
              basis x
            end
            """
        )


def test_parse_pair_rejects_overlapping_labels():
    with pytest.raises(ParseError):
        parse_pair(
            """
            algebra A
              field Q
              dim 1
              basis a
            end
            algebra V
              field Q
              dim 1
              basis a
            end
            """
        )


def test_parse_pair_needs_exactly_two_sections():
    with pytest.raises(ParseError):
        parse_pair("algebra A\n  field Q\n  dim 1\n  basis a\nend\n")


def test_parse_pair_include(tmp_path):
    (tmp_path / "A.jalg").write_text(
        "field Q\ndim 1\nbasis a\nmult a a = a\n"
    )
    (tmp_path / "V.jalg").write_text("field Q\ndim 1\nbasis x\n")
    mp = parse_pair(
        "algebra A @include A.jalg\n"
        "algebra V @include V.jalg\n"
        "right x . a = x\n",
        base_dir=str(tmp_path),
    )
    assert mp.A.basis == ("a",)
    assert mp.right.apply([1], [1]) == [1]


def test_parse_pair_include_missing_file(tmp_path):
    # the OS error is wrapped so the message carries the offending line
    with pytest.raises(ParseError) as exc:
        parse_pair(
            "algebra A @include missing.jalg\n"
            "algebra V @include V.jalg\n",
            base_dir=str(tmp_path),
        )
    assert "missing.jalg" in str(exc.value)


def test_non_utf8_files_are_parse_errors(tmp_path):
    """A byte that is not UTF-8 in a .jalg, a .jpair or an @include target
    is a one-line ParseError; the @include keeps its line number."""
    bad = tmp_path / "bad.jalg"
    bad.write_bytes(b"field Q\ndim 1\nbasis u\xff\n")
    pair = tmp_path / "bad.jpair"
    pair.write_bytes(b"algebra A\xfe\n")
    for load, path, line in ((load_algebra, bad, None), (load_pair, pair, None)):
        with pytest.raises(ParseError) as exc:
            load(str(path))
        assert exc.value.line == line
        assert str(exc.value).startswith(f"cannot read {path}: ")
    with pytest.raises(ParseError) as exc:
        parse_pair("\nalgebra A @include bad.jalg\n", base_dir=str(tmp_path))
    assert exc.value.line == 2
    assert str(exc.value).startswith(f"line 2: cannot read {bad}: ")
    assert "\n" not in str(exc.value)


def test_pair_roundtrip_all_catalog_pairs():
    for name in catalog_names():
        entry = catalog(name)
        if hasattr(entry, "table_key"):
            continue
        text = write_pair(entry)
        again = parse_pair(text)
        assert again == entry
        assert write_pair(again) == text


def test_load_helpers_name_from_path(tmp_path):
    path = tmp_path / "tiny.jalg"
    path.write_text("field Q\ndim 1\nbasis e\nmult e e = e\n")
    A = load_algebra(str(path))
    assert A.name == "tiny"
    assert A.dim == 1

    pair_path = tmp_path / "pair.jpair"
    (tmp_path / "A.jalg").write_text("field Q\ndim 1\nbasis a\nmult a a = a\n")
    (tmp_path / "V.jalg").write_text("field Q\ndim 1\nbasis x\n")
    pair_path.write_text(
        "algebra A @include A.jalg\nalgebra V @include V.jalg\n"
    )
    mp = load_pair(str(pair_path))
    assert mp.A.basis == ("a",)


# -- the one combination grammar: fuzzing and round trips --------------------------

COMBO_TOKENS = ["a", "b", "c", "alpha", "0", "1", "-1", "2", "1/2", "-3/4", "1/0",
                "+", "-", "x", "2.5", "", ";", ":", "=", "#", "mult", "u"]
combo_text = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(COMBO_TOKENS), max_size=8).map(" ".join),
)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(combo_text)
def test_parse_algebra_fuzz_raises_only_parse_error(text):
    for body in (text, f"field F5\ndim 3\nbasis a b c\nmult a b = {text}"):
        try:
            parse_algebra(body)
        except ParseError:
            pass


@settings(deadline=None, derandomize=True, max_examples=300)
@given(combo_text, st.sampled_from(["u: ", "v:", "u: a; v: ", ""]))
def test_map_flag_fuzz_raises_only_parse_error(text, prefix):
    mp = catalog("defmap-pair")
    try:
        _parse_map_flag(mp, prefix + text, ("alpha",))
    except ParseError:
        pass


def test_combination_grammar_edges():
    ring = PolyRing(QQ, ("alpha",))
    labels = ("a", "b")
    alpha = ring.var("alpha")
    assert _parse_combination(QQ, "0", labels) == [0, 0]
    assert _parse_combination(QQ, "+ a - 2 b", labels) == [1, -2]
    assert _parse_combination(QQ, "-1/2 a + 0 b", labels) == [Fraction(-1, 2), 0]
    got = _parse_combination(QQ, "2 alpha alpha a - alpha b", labels, params=("alpha",))
    assert got == [alpha * alpha * 2, -alpha]
    for bad in ("", "a b", "a +", "- - a", "2 3 a", "alpha 2 a", "2", "a + + b", "q"):
        with pytest.raises(ParseError):
            _parse_combination(QQ, bad, labels, params=("alpha",))


def _scalars(p):
    if p:
        return st.integers(0, p - 1)
    return st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def tables(draw, dim, p):
    vec = st.lists(_scalars(p), min_size=dim, max_size=dim)
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            table[i][j] = table[j][i] = draw(vec)
    return table


@st.composite
def random_pairs(draw):
    p = draw(st.sampled_from([0, 5, 7, 11]))
    field = Field(p) if p else QQ
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    A = Algebra(field, [f"a{i}" for i in range(n)], draw(tables(n, p)), name="A")
    V = Algebra(field, [f"x{i}" for i in range(m)], draw(tables(m, p)), name="V")

    def tensor(out):
        cell = st.lists(_scalars(p), min_size=out, max_size=out)
        return draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))

    return MatchedPair(A, V, RightAction(V, A, tensor(m)), LeftAction(V, A, tensor(n)))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(random_pairs())
def test_write_parse_roundtrip_random_tables(mp):
    for alg in (mp.A, mp.V):
        again = parse_algebra(write_algebra(alg))
        assert again.table_key() == alg.table_key()
    text = write_pair(mp)
    again = parse_pair(text)
    assert again == mp
    assert write_pair(again) == text


@pytest.mark.parametrize("number", ["0.5", "1e3", "1_000", "1e999999999"])
def test_parse_rejects_non_readme_numbers(number):
    """Decimals, exponents and digit separators are not numbers in files."""
    with pytest.raises(ParseError) as exc:
        parse_algebra(f"field Q\ndim 1\nbasis u\nmult u u = {number} u")
    assert exc.value.line == 4
    with pytest.raises(ParseError):
        _parse_map_flag(catalog("defmap-pair", field=F5), f"u: {number} a", ())


# -- whole pair files: fuzzing --------------------------------------------------------

PAIR_LINES = [
    "algebra A", "algebra V", "algebra A B", "algebra V @include missing.jalg",
    "algebra A @include", "end", "field Q", "field F5", "field F4", "dim 1", "dim 2",
    "dim -1", "dim x", "basis a b", "basis u v", "basis a", "basis u u",
    "mult a a = a", "mult a b = 1/2 b", "mult u u = 1/0 u", "mult b b = 1/5 b",
    "mult u v = w", "mult a", "left u . a = a + b", "left v . b = 2 a",
    "right u . a = 1/2 v", "right v . b = - u", "right v . q = u", "left u a = a",
    "left u . a =", "right . . = .", "", "# comment", "param alpha",
]
PAIR_TEXT = write_pair(catalog("defmap-pair"))


@st.composite
def pair_texts(draw):
    """Line soup from pair-file vocabulary, a valid file with lines
    dropped, repeated or replaced, or arbitrary text."""
    kind = draw(st.sampled_from(["soup", "edit", "text"]))
    if kind == "soup":
        return "\n".join(draw(st.lists(st.sampled_from(PAIR_LINES), max_size=14)))
    if kind == "text":
        return draw(st.text(max_size=120))
    lines = PAIR_TEXT.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "replace", "token"]))
        if op == "drop":
            del lines[k]
        elif op == "repeat":
            lines.insert(k, lines[k])
        elif op == "replace":
            lines[k] = draw(st.sampled_from(PAIR_LINES))
        else:
            words = lines[k].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(
                st.sampled_from(COMBO_TOKENS + ["algebra", "end", "left", "right", "."])
            )
            lines[k] = " ".join(words)
        if not lines:
            break
    return "\n".join(lines)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(pair_texts())
def test_parse_pair_fuzz_raises_only_jalg_errors(text):
    """A pair file either parses or raises ParseError/JalgError."""
    try:
        parse_pair(text)
    except JalgError:
        pass
