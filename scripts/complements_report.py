#!/usr/bin/env python3
"""Classify the complements of a matched pair up to deformation equivalence.

Enumerates every deformation map over the (finite) base field, groups the
deformed products into equivalence classes, prints one block per class with
its representative multiplication table.  factorization_index places each
map by iso_search, re-checks every witness with equiv_check and confirms
the representatives pairwise non-isomorphic; a failed check raises
VerificationError and exits 1.

    python3 scripts/complements_report.py
    python3 scripts/complements_report.py --pair J17-pair --field F5
    python3 scripts/complements_report.py --pair my_pair.jpair --json
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass

from jalg import (
    JalgError,
    MatchedPair,
    ParseError,
    VerificationError,
    factorization_index,
)
from jalg.catalog import names as catalog_names
from jalg.cli import _load
from jalg.fileio import _parse_field


@dataclass(frozen=True)
class ReportConfig:
    pair: str = "defmap-pair"
    field: str = "F5"
    as_json: bool = False


def load(config: ReportConfig):
    """The pair as the CLI loads it: a catalog name, or a .jpair path."""
    spec = f"catalog:{config.pair}" if config.pair in catalog_names() else config.pair
    mp = _load(spec, _parse_field(config.field))
    if not isinstance(mp, MatchedPair):
        raise ParseError(f"{config.pair} holds an algebra; a matched pair is needed")
    return mp


def run(config: ReportConfig) -> int:
    mp = load(config)
    t0 = time.perf_counter()
    report = factorization_index(mp)
    elapsed = time.perf_counter() - t0

    deformed = report.deformed

    if config.as_json:
        payload = {
            "pair": config.pair,
            "field": str(report.field),
            "maps": len(report.maps),
            "index": report.index,
            "classes": [
                {
                    "size": len(cls),
                    "representative": report.representatives[ci],
                    "members": list(cls),
                    "table": deformed[report.representatives[ci]].format_table(),
                }
                for ci, cls in enumerate(report.classes)
            ],
            "seconds": round(elapsed, 3),
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(report.describe())
    print()
    for ci, cls in enumerate(report.classes):
        rep = report.representatives[ci]
        print(f"class {ci + 1} (size {len(cls)}), representative map {rep}:")
        print(f"  r: {report.maps[rep].describe()}")
        for line in deformed[rep].format_table().splitlines():
            print(f"  {line}")
        print()
    print(f"isomorphism cross-check passed ({elapsed:.2f}s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pair", default="defmap-pair",
                        help="catalog name or .jpair file (default: defmap-pair)")
    parser.add_argument("--field", default="F5", help="base field, e.g. F5, F7")
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)
    try:
        return run(ReportConfig(args.pair, args.field, args.as_json))
    except VerificationError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except (JalgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
