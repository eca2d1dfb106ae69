"""Command line interface.

Inputs are .jalg / .jpair paths or catalog:<name> pseudo-paths.  Exit codes:
0 success, 1 mathematical failure (axiom violated, not isomorphic), 2 usage
or parse error, 3 an iso query left undecided ("unknown").  --json swaps the
text report for a structured one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fileio
from .catalog import PAIR_NAMES, catalog as load_catalog, names as catalog_names
from .algebra import Algebra, Subspace
from .deformation import (
    DeformationMap,
    deformation_check,
    enumerate_deformations,
    factorization_index,
)
from .errors import JalgError, ParseError, VerificationError
from .fields import Field
from .matched_pair import (
    Factorization,
    MatchedPair,
    _semidirect,
    bicross,
    canonical_pair,
    enumerate_abelian_pairs,
)
from .morphism import classify_dim2, iso_search
from .poly import PolyRing


def _load(spec: str, field: Field | None):
    if spec.startswith("catalog:"):
        return load_catalog(spec[len("catalog:") :], field)
    if spec.endswith(".jalg"):
        obj = fileio.load_algebra(spec)
    elif spec.endswith(".jpair"):
        obj = fileio.load_pair(spec)
    else:
        raise ParseError(
            f"cannot tell what {spec!r} is; use a .jalg/.jpair path or catalog:<name>"
        )
    if field is not None:
        obj = obj.to_field(field)
    return obj


def _algebra(spec: str, field: Field | None) -> Algebra:
    obj = _load(spec, field)
    if not isinstance(obj, Algebra):
        raise ParseError(f"{spec} holds a matched pair; an algebra is needed")
    return obj


def _pair(spec: str, field: Field | None) -> MatchedPair:
    obj = _load(spec, field)
    if not isinstance(obj, MatchedPair):
        raise ParseError(f"{spec} holds an algebra; a matched pair is needed")
    return obj


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _matrix(f: Field, rows) -> list:
    return [[f.format(c) for c in row] for row in rows]


def _table_dict(A: Algebra) -> dict:
    return {f"{A.basis[i]} {A.basis[j]}": text for i, j, text in A.products()}


# ---------------------------------------------------------------------------
# commands


def _cmd_check(args) -> int:
    A = _algebra(args.input, args.field)
    verdict = A.jordan_check()
    status = "PASS" if verdict.ok else "FAIL"
    lines = [f"algebra: {A.name or args.input} (dim {A.dim} over {A.field})"]
    lines.append(f"Jordan identity: {status}")
    if not verdict.ok:
        lines.append(verdict.describe())
    _emit(
        args,
        {
            "command": "check",
            "input": args.input,
            "dim": A.dim,
            "field": str(A.field),
            "jordan": verdict.ok,
            "failures": [str(f) for f in verdict.failures],
        },
        "\n".join(lines),
    )
    return 0 if verdict.ok else 1


def _cmd_mp_check(args) -> int:
    mp = _pair(args.input, args.field)
    verdict = mp.verify()
    failed = set(verdict.failed_axioms())
    lines = [
        f"pair: {mp.name or args.input} "
        f"(dim A = {mp.A.dim}, dim V = {mp.V.dim}, over {mp.A.field})"
    ]
    checks = {}
    for name in verdict.checked:
        ok = name not in failed
        checks[name] = ok
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'}")
    lines.append(f"matched pair: {'PASS' if verdict.ok else 'FAIL'}")
    if not verdict.ok:
        lines.append(verdict.describe())
    _emit(
        args,
        {
            "command": "mp-check",
            "input": args.input,
            "ok": verdict.ok,
            "checks": checks,
            "failures": [str(f) for f in verdict.failures],
        },
        "\n".join(lines),
    )
    return 0 if verdict.ok else 1


def _product_report(args, E: Algebra, title: str, **extra) -> int:
    """Write a built product to --out, then report its table: the text
    under `title`, or the JSON with the `extra` keys."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(fileio.write_algebra(E))
    _emit(
        args,
        {
            "command": args.command,
            "input": args.input,
            "dim": E.dim,
            "basis": list(E.basis),
            "table": _table_dict(E),
            **extra,
        },
        f"{title}: dim {E.dim} over {E.field}\n{E.format_table()}",
    )
    return 0


def _cmd_bicross(args) -> int:
    E = bicross(_pair(args.input, args.field)).product
    return _product_report(args, E, "bicrossed product")


def _cmd_semidirect(args) -> int:
    E = _semidirect(_pair(args.input, args.field), args.side)
    return _product_report(args, E, f"{args.side} semidirect product", side=args.side)


def _split_labels(text: str) -> list[str]:
    labels = [t for t in text.replace(",", " ").split() if t]
    if not labels:
        raise ParseError("empty label list")
    return labels


def _factorization(args) -> tuple[Algebra, Factorization]:
    E = _algebra(args.input, args.field)
    first = Subspace.span_of_labels(E, _split_labels(args.first))
    second = Subspace.span_of_labels(E, _split_labels(args.second))
    return E, Factorization(E, first, second)


def _cmd_factorize(args) -> int:
    E, fact = _factorization(args)
    lines = [
        f"factorization: PASS",
        f"subalgebra dims: {fact.A_sub.dim} + {fact.B_sub.dim} = {E.dim}",
    ]
    _emit(
        args,
        {
            "command": "factorize",
            "input": args.input,
            "ok": True,
            "first_dim": fact.A_sub.dim,
            "second_dim": fact.B_sub.dim,
        },
        "\n".join(lines),
    )
    return 0


def _cmd_canonical_pair(args) -> int:
    E, fact = _factorization(args)
    mp = canonical_pair(fact)
    text = fileio.write_pair(mp)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    _emit(
        args,
        {
            "command": "canonical-pair",
            "input": args.input,
            "ok": True,
            "pair": text,
        },
        text.rstrip("\n"),
    )
    return 0


def _cmd_iso(args) -> int:
    A = _algebra(args.first_input, args.field)
    B = _algebra(args.second_input, args.field)
    verdict = iso_search(A, B, budget=args.budget)
    lines = [f"verdict: {verdict.kind}"]
    witness = None
    if verdict.witness is not None:
        witness = _matrix(A.field, verdict.witness.rows())
        lines.append(f"witness rows: {witness}")
    if verdict.certificate:
        lines.append(f"certificate: {verdict.certificate}")
    if verdict.note:
        lines.append(verdict.note)
    _emit(
        args,
        {
            "command": "iso",
            "verdict": verdict.kind,
            "witness": witness,
            "certificate": verdict.certificate,
            "note": verdict.note,
        },
        "\n".join(lines),
    )
    return {"isomorphic": 0, "non-isomorphic": 1, "unknown": 3}[verdict.kind]


def _cmd_classify2(args) -> int:
    A = _algebra(args.input, args.field)
    sig = classify_dim2(A)
    lines = [
        f"algebra: {A.name or args.input} over {A.field}",
        f"product span dim: {sig.product_span_dim}",
        f"trace form rank (multiplication): {sig.trace_mul_rank}",
        f"trace form rank (operator): {sig.trace_op_rank}",
    ]
    if sig.idempotents is not None:
        lines.append(f"idempotent elements: {sig.idempotents}")
        lines.append(f"nonzero square-zero elements: {sig.square_zero}")
    else:
        lines.append("element counts omitted over Q (not enumerable)")
    _emit(
        args,
        {
            "command": "classify2",
            "input": args.input,
            "signature": {
                "product_span_dim": sig.product_span_dim,
                "trace_mul_rank": sig.trace_mul_rank,
                "trace_op_rank": sig.trace_op_rank,
                "idempotents": sig.idempotents,
                "square_zero": sig.square_zero,
            },
        },
        "\n".join(lines),
    )
    return 0


def _parse_map_flag(mp: MatchedPair, spec: str, params: tuple[str, ...]) -> DeformationMap:
    """--map 'u: a + b; v: alpha b' with optional parameter names, none of
    them a label of the first factor (a combination reads such a name as
    the label)."""
    for name in params:
        if name in mp.A.basis:
            raise ParseError(f"parameter {name!r} is also a basis label of the first factor")
    images = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ParseError(f"bad map entry {chunk!r}; expected '<label>: <combination>'")
        lab, combo = chunk.split(":", 1)
        lab = lab.strip()
        if lab not in mp.V.basis:
            raise ParseError(f"unknown complement label {lab!r}")
        if lab in images:
            raise ParseError(f"map entry for {lab!r} given twice")
        try:
            images[lab] = fileio._parse_combination(mp.A.field, combo, mp.A.basis, params=params)
        except ParseError as exc:
            raise ParseError(f"map entry {chunk!r}: {exc}") from None
    ring = PolyRing(mp.A.field, params) if params else mp.A.field
    zero = (ring.zero,) * mp.A.dim
    return DeformationMap._of(mp, [images.get(lab, zero) for lab in mp.V.basis], params)


def _cmd_deform_check(args) -> int:
    mp = _pair(args.input, args.field)
    params = tuple(_split_labels(args.params)) if args.params else ()
    r = _parse_map_flag(mp, args.map, params)
    verdict = deformation_check(mp, r)
    lines = [f"map: {r.describe()}", f"deformation identity: {'PASS' if verdict.ok else 'FAIL'}"]
    if not verdict.ok:
        lines.append(verdict.describe())
    _emit(
        args,
        {
            "command": "deform-check",
            "map": r.describe(),
            "ok": verdict.ok,
            "failures": [
                {"x": x, "y": y, "residual": list(res)} for x, y, res in verdict.failures
            ],
        },
        "\n".join(lines),
    )
    return 0 if verdict.ok else 1


def _cmd_deform_enum(args) -> int:
    mp = _pair(args.input, args.field)
    maps = enumerate_deformations(mp, max_candidates=args.budget)
    lines = [f"deformation maps over {mp.A.field}: {len(maps)}"]
    for k, r in enumerate(maps, start=1):
        lines.append(f"  {k:3d}. {r.describe()}")
    _emit(
        args,
        {
            "command": "deform-enum",
            "field": str(mp.A.field),
            "count": len(maps),
            "maps": [r.describe() for r in maps],
        },
        "\n".join(lines),
    )
    return 0


def _cmd_complements(args) -> int:
    mp = _pair(args.input, args.field)
    report = factorization_index(mp)
    classes_json = []
    for cls in report.classes:
        members = []
        for idx in cls:
            members.append(
                {
                    "map": report.maps[idx].describe(),
                    "witness_rows": _matrix(report.field, report.witnesses[idx].rows()),
                }
            )
        classes_json.append(
            {
                "size": len(cls),
                "representative": report.maps[cls[0]].describe(),
                "table": _table_dict(report.deformed[cls[0]]),
                "members": members,
            }
        )
    text = report.describe()
    witness_lines = []
    for c, cls in enumerate(report.classes):
        for idx in cls[1:]:
            rows = _matrix(report.field, report.witnesses[idx].rows())
            witness_lines.append(
                f"  map {idx + 1} -> class {c + 1} representative via rows {rows}"
            )
    if witness_lines:
        text += "\nwitnesses:\n" + "\n".join(witness_lines)
    _emit(
        args,
        {
            "command": "complements",
            "field": str(report.field),
            "maps": [r.describe() for r in report.maps],
            "classes": classes_json,
            "index": report.index,
            "note": report.note,
        },
        text,
    )
    return 0


def _cmd_catalog(args) -> int:
    if not args.name:
        rows = []
        for name in catalog_names():
            kind = "pair" if name in PAIR_NAMES else "algebra"
            rows.append((name, kind))
        _emit(
            args,
            {"command": "catalog", "names": {n: k for n, k in rows}},
            "\n".join(f"{n:14s} {k}" for n, k in rows),
        )
        return 0
    obj = load_catalog(args.name, args.field)
    if isinstance(obj, Algebra):
        text = fileio.write_algebra(obj).rstrip("\n")
        payload = {
            "command": "catalog",
            "name": args.name,
            "kind": "algebra",
            "dim": obj.dim,
            "table": _table_dict(obj),
        }
    else:
        text = fileio.write_pair(obj).rstrip("\n")
        payload = {
            "command": "catalog",
            "name": args.name,
            "kind": "pair",
            "dims": [obj.A.dim, obj.V.dim],
            "pair": text,
        }
    _emit(args, payload, text)
    return 0


def _cmd_abelian_pairs(args) -> int:
    field = args.field if args.field is not None else Field(5)
    census = enumerate_abelian_pairs(args.dim, field)
    lines = [
        f"abelian matched pairs with a 1-dim abelian complement over {field}",
        f"dimension: {args.dim}",
        f"candidates: {census.candidates}",
        f"valid pairs: {census.count}",
        "every valid pair has zero weight and a cube-zero operator",
    ]
    _emit(
        args,
        {
            "command": "abelian-pairs",
            "field": str(field),
            "dim": args.dim,
            "candidates": census.candidates,
            "valid": census.count,
        },
        "\n".join(lines),
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _arg(*flags, **kwargs):
    return flags, kwargs


_OPTIONS = (
    _arg("--field", default=None, help="transport the input to this field (Q or F<p>)"),
    _arg("--json", action="store_true", help="structured output"),
)
_ONE = (_arg("input", help=".jalg/.jpair path or catalog:<name>"), *_OPTIONS)
_BARE = (_arg("--field", default=None), _arg("--json", action="store_true"))
_OUT = _arg("--out", help="write the product as a .jalg file")

# name -> (handler, help text, arguments as (flags, add_argument keywords)),
# in the order `jalg --help` lists them
_COMMANDS = {
    "check": (_cmd_check, "verify the Jordan identity for an algebra", _ONE),
    "mp-check": (_cmd_mp_check, "verify all matched-pair conditions", _ONE),
    "bicross": (_cmd_bicross, "build the bicrossed product of a pair", (*_ONE, _OUT)),
    "semidirect": (_cmd_semidirect, "build a one-sided product", (
        *_ONE, _arg("--side", choices=("left", "right"), required=True), _OUT,
    )),
    "factorize": (_cmd_factorize, "check a two-subalgebra factorization", (
        *_ONE,
        _arg("--first", required=True, help="labels of the first factor, comma separated"),
        _arg("--second", required=True, help="labels of the second factor"),
    )),
    "canonical-pair": (_cmd_canonical_pair, "extract the matched pair of a factorization", (
        *_ONE,
        _arg("--first", required=True),
        _arg("--second", required=True),
        _arg("--out", help="write the pair as a .jpair file"),
    )),
    "iso": (_cmd_iso, "decide isomorphism of two algebras", (
        _arg("first_input", help="first algebra"),
        _arg("second_input", help="second algebra"),
        *_OPTIONS,
        _arg("--budget", type=int, default=None),
    )),
    "classify2": (_cmd_classify2, "invariant signature of a 2-dim algebra", _ONE),
    "deform-check": (_cmd_deform_check, "test a map against the deformation identity", (
        *_ONE,
        _arg("--map", required=True, help="e.g. 'u: a + b; v: 2 b'"),
        _arg("--params", default=None, help="parameter names, e.g. 'alpha'"),
    )),
    "deform-enum": (_cmd_deform_enum, "enumerate all deformation maps (finite field)", (
        *_ONE, _arg("--budget", type=int, default=None, help="cap on candidate count"),
    )),
    "complements": (_cmd_complements, "classify complements and compute the index", _ONE),
    "catalog": (_cmd_catalog, "list or show built-in examples", (
        _arg("name", nargs="?", default=None), *_BARE,
    )),
    "abelian-pairs": (_cmd_abelian_pairs, "census of abelian pairs with a line complement", (
        _arg("--dim", type=int, required=True), *_BARE,
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `jalg` parser with every subcommand of `_COMMANDS`.

    It is built once per process and kept; callers must not change it.  A
    parser keeps no state between parses, and argparse reads the terminal
    width when it formats help, not when the parser is built."""
    parser = argparse.ArgumentParser(
        prog="jalg",
        description="Exact computations with Jordan algebra factorizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    return _run(build_parser().parse_args(argv))


def _run(args) -> int:
    try:
        if args.field is not None:
            args.field = fileio._parse_field(args.field)
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise ParseError(f"--budget must be positive, got {args.budget}")
        return args.handler(args)
    except VerificationError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except (JalgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
