"""Plain-text formats for algebras (.jalg) and matched pairs (.jpair).

Algebra files:

    field F5            # or: field Q
    dim 2
    basis u v
    mult u u = u        # unlisted products are zero
    mult u v = 1/2 v    # each unordered pair at most once

Pair files hold two algebra sections followed by action lines; the first
section is the subalgebra factor, the second the complement factor:

    algebra A
      field Q
      ...
    end
    algebra V @include other.jalg
    left u . a = 1/2 a    # u |> a, a combination in the first basis
    right u . a = u       # u <| a, a combination in the second basis

'#' starts a comment; blank lines and indentation are ignored.  Scalars
are integers or fractions n/d (reduced mod p over a finite field).  The
right-hand sides are scalar combinations; their one grammar, shared with
the command line's --map, is in README.md under "Scalar combinations".
"""

from __future__ import annotations

import os

from .algebra import Algebra, format_combination
from .errors import JalgError, ParseError
from .fields import _NUMBER, Field, QQ
from .matched_pair import LeftAction, MatchedPair, RightAction
from .poly import PolyRing


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _numbered(text: str):
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = _strip(raw)
        if body:
            out.append((i, body))
    return out


def _parse_field(token: str, lineno: int | None = None) -> Field:
    if token == "Q":
        return QQ
    if token.startswith("F"):
        try:
            p = int(token[1:])
            return Field(p)
        except (ValueError, JalgError) as exc:
            raise ParseError(f"bad field {token!r}: {exc}", line=lineno) from None
    raise ParseError(f"bad field {token!r} (expected Q or F<p>)", line=lineno)


def _parse_combination(field: Field, text: str, labels, lineno=None, params=()):
    """-> coordinate list over `labels`, in field[params] when params are given.

    Grammar (README, "Scalar combinations"):
        0 | [+|-] coeff label ((+|-) coeff label)*     coeff = [number] param*
    """
    ring = PolyRing(field, params) if params else field
    coords = [ring.zero] * len(labels)
    tokens = text.split()
    if not tokens:
        raise ParseError("empty combination", line=lineno)
    if tokens == ["0"]:
        return coords
    index = {lab: k for k, lab in enumerate(labels)}
    pos = 0
    while True:
        coeff = ring.one
        if tokens[pos] in ("+", "-"):
            if tokens[pos] == "-":
                coeff = ring.neg(coeff)
            pos += 1
        elif pos:
            raise ParseError(f"expected + or - before {tokens[pos]!r}", line=lineno)
        if pos < len(tokens) and tokens[pos] not in index and tokens[pos] not in params:
            try:
                coeff = ring.mul(coeff, ring.coerce(field.parse(tokens[pos])))
            except JalgError as exc:
                # a well-formed number keeps the field's reason for refusing it
                reason = str(exc) if _NUMBER.fullmatch(tokens[pos]) else (
                    f"unknown label or bad scalar {tokens[pos]!r}"
                )
                raise ParseError(reason, line=lineno) from None
            pos += 1
        while pos < len(tokens) and tokens[pos] in params and tokens[pos] not in index:
            coeff = ring.mul(coeff, ring.var(tokens[pos]))
            pos += 1
        if pos == len(tokens):
            raise ParseError("combination ends with no label", line=lineno)
        if tokens[pos] not in index:
            raise ParseError(f"expected a label, got {tokens[pos]!r}", line=lineno)
        k = index[tokens[pos]]
        coords[k] = ring.add(coords[k], coeff)
        pos += 1
        if pos == len(tokens):
            return coords


def _parse_algebra_lines(lines, name=None) -> Algebra:
    field = None
    dim = None
    basis = None
    mults = {}
    mult_lines = []
    for lineno, body in lines:
        words = body.split()
        head = words[0]
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field line", line=lineno)
            if len(words) != 2:
                raise ParseError("usage: field Q | field F<p>", line=lineno)
            field = _parse_field(words[1], lineno)
        elif head == "dim":
            if dim is not None:
                raise ParseError("duplicate dim line", line=lineno)
            if len(words) != 2 or not words[1].isdigit():
                raise ParseError("usage: dim <n>", line=lineno)
            dim = int(words[1])
            if dim < 1:
                raise ParseError("dim must be positive", line=lineno)
        elif head == "basis":
            if basis is not None:
                raise ParseError("duplicate basis line", line=lineno)
            basis = words[1:]
            if len(set(basis)) != len(basis):
                raise ParseError("repeated basis label", line=lineno)
        elif head == "mult":
            mult_lines.append((lineno, words, body))
        else:
            raise ParseError(f"unknown directive {head!r}", line=lineno)
    first = lines[0][0] if lines else 1
    if field is None:
        raise ParseError("missing field line", line=first)
    if dim is None:
        raise ParseError("missing dim line", line=first)
    if basis is None:
        raise ParseError("missing basis line", line=first)
    if len(basis) != dim:
        raise ParseError(
            f"dim {dim} but {len(basis)} basis labels", line=first
        )
    index = {lab: k for k, lab in enumerate(basis)}
    for lineno, words, body in mult_lines:
        if len(words) < 5 or words[3] != "=":
            raise ParseError("usage: mult <x> <y> = <combination>", line=lineno)
        x, y = words[1], words[2]
        if x not in index:
            raise ParseError(f"unknown label {x!r}", line=lineno)
        if y not in index:
            raise ParseError(f"unknown label {y!r}", line=lineno)
        key = tuple(sorted((index[x], index[y])))
        if key in mults:
            raise ParseError(
                f"product {x} {y} already defined (unordered pairs appear once)",
                line=lineno,
            )
        rhs = body.split("=", 1)[1]
        mults[key] = _parse_combination(field, rhs, basis, lineno)
    table = [
        [tuple([field.zero] * dim) for _ in range(dim)] for _ in range(dim)
    ]
    for (i, j), coords in mults.items():
        table[i][j] = table[j][i] = tuple(coords)
    return Algebra(field, basis, table, name=name)


def parse_algebra(text: str, name=None) -> Algebra:
    return _parse_algebra_lines(_numbered(text), name=name)


def write_algebra(A: Algebra) -> str:
    if A.params:
        raise ParseError("parametric algebras have no file form")
    char = A.field.characteristic
    lines = [
        f"field {'Q' if not char else f'F{char}'}",
        f"dim {A.dim}",
        "basis " + " ".join(A.basis) if A.dim else "basis",
    ]
    b = A.basis
    lines += [f"mult {b[i]} {b[j]} = {text}" for i, j, text in A.products()]
    return "\n".join(lines) + "\n"


def parse_pair(text: str, base_dir: str | None = None) -> MatchedPair:
    """Parse a pair file; the result is not verified."""
    lines = _numbered(text)
    algebras = []
    actions = []  # (lineno, side, x, a, rhs)
    pos = 0
    while pos < len(lines):
        lineno, body = lines[pos]
        words = body.split()
        if words[0] == "algebra":
            if len(algebras) == 2:
                raise ParseError("a pair file holds exactly two algebras", line=lineno)
            if len(words) >= 3 and words[2] == "@include":
                if len(words) != 4:
                    raise ParseError(
                        "usage: algebra <name> @include <path>", line=lineno
                    )
                path = words[3]
                if base_dir is not None:
                    path = os.path.join(base_dir, path)
                try:
                    included = _read(path, lineno)
                except OSError as exc:
                    raise ParseError(f"cannot read {path}: {exc}", line=lineno) from None
                algebras.append(parse_algebra(included, name=words[1]))
                pos += 1
                continue
            if len(words) != 2:
                raise ParseError("usage: algebra <name>", line=lineno)
            section = []
            pos += 1
            while pos < len(lines) and lines[pos][1] != "end":
                section.append(lines[pos])
                pos += 1
            if pos == len(lines):
                raise ParseError("algebra section missing end", line=lineno)
            algebras.append(_parse_algebra_lines(section, name=words[1]))
            pos += 1
            continue
        if words[0] in ("left", "right"):
            if len(words) < 6 or words[2] != "." or words[4] != "=":
                raise ParseError(
                    f"usage: {words[0]} <x> . <a> = <combination>", line=lineno
                )
            rhs = body.split("=", 1)[1]
            actions.append((lineno, words[0], words[1], words[3], rhs))
            pos += 1
            continue
        raise ParseError(f"unexpected {words[0]!r}", line=lineno)
    if len(algebras) != 2:
        raise ParseError("a pair file needs two algebra sections", line=lines[-1][0] if lines else 1)
    A, V = algebras
    if A.field is not V.field:
        raise ParseError("the two algebras use different fields", line=lines[0][0])
    overlap = set(A.basis) & set(V.basis)
    if overlap:
        raise ParseError(
            f"basis labels shared between the factors: {sorted(overlap)}",
            line=lines[0][0],
        )
    f = A.field
    v_index = {lab: k for k, lab in enumerate(V.basis)}
    a_index = {lab: k for k, lab in enumerate(A.basis)}
    left_tensor = [
        [[f.zero] * A.dim for _ in range(A.dim)] for _ in range(V.dim)
    ]
    right_tensor = [
        [[f.zero] * V.dim for _ in range(A.dim)] for _ in range(V.dim)
    ]
    seen = set()
    for lineno, side, x, a, rhs in actions:
        if x not in v_index:
            raise ParseError(
                f"unknown complement-factor label {x!r}", line=lineno
            )
        if a not in a_index:
            raise ParseError(f"unknown subalgebra-factor label {a!r}", line=lineno)
        if (side, x, a) in seen:
            raise ParseError(f"duplicate {side} line for ({x}, {a})", line=lineno)
        seen.add((side, x, a))
        if side == "left":
            left_tensor[v_index[x]][a_index[a]] = _parse_combination(
                f, rhs, A.basis, lineno
            )
        else:
            right_tensor[v_index[x]][a_index[a]] = _parse_combination(
                f, rhs, V.basis, lineno
            )
    right = RightAction(V, A, right_tensor)
    left = LeftAction(V, A, left_tensor)
    return MatchedPair(A, V, right, left)


def write_pair(mp: MatchedPair) -> str:
    if mp.A.params:
        raise ParseError("parametric pairs have no file form")
    f = mp.A.field

    def indent(text: str) -> str:
        return "\n".join("  " + ln for ln in text.strip().splitlines())

    a_name = mp.A.name or "A"
    v_name = mp.V.name or "V"
    chunks = [
        f"algebra {a_name}",
        indent(write_algebra(mp.A)),
        "end",
        "",
        f"algebra {v_name}",
        indent(write_algebra(mp.V)),
        "end",
        "",
    ]
    lines = []
    for x in range(mp.V.dim):
        for a in range(mp.A.dim):
            cell = mp.left.tensor[x][a]
            if any(not f.is_zero(c) for c in cell):
                combo = format_combination(f, cell, mp.A.basis)
                lines.append(f"left {mp.V.basis[x]} . {mp.A.basis[a]} = {combo}")
    for x in range(mp.V.dim):
        for a in range(mp.A.dim):
            cell = mp.right.tensor[x][a]
            if any(not f.is_zero(c) for c in cell):
                combo = format_combination(f, cell, mp.V.basis)
                lines.append(f"right {mp.V.basis[x]} . {mp.A.basis[a]} = {combo}")
    return "\n".join(chunks + lines) + "\n"


def _read(path: str, lineno: int | None = None) -> str:
    """The text of a UTF-8 file; one that is not UTF-8 is a ParseError
    (at `lineno`, the line that names the file, if given)."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}", line=lineno) from None


def load_algebra(path: str) -> Algebra:
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_algebra(_read(path), name=name)


def load_pair(path: str) -> MatchedPair:
    return parse_pair(_read(path), base_dir=os.path.dirname(path) or ".")
