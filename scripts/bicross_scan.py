#!/usr/bin/env python3
"""Exhaustive scan of two-sided products with two 1-dim factors over F_p.

Every combination of factor squares (s, t) and action weights (wr, wl)
is tested twice: once through the pair's axioms, with MP1-MP6 expanded as
polynomials, and once by checking the cube law directly on the 2-dim
combined product.  The two verdicts must agree on all p^4 combinations
(the paper's theorem: the product is Jordan exactly when the pair is
matched); the script reports the matched count and a breakdown by factor
shape.  The expansions (_mp_expansions, imported from
tests/slow_oracles.py) are the independent side: the library itself
decides MP1-MP6, PASS or FAIL, from the product's cube law and keeps no
expansion, so calling it here would compare that law with itself.

    python3 scripts/bicross_scan.py
    python3 scripts/bicross_scan.py --p 7
"""

import argparse
import itertools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from jalg import (
    Algebra,
    Field,
    JalgError,
    LeftAction,
    MatchedPair,
    RightAction,
    bicross_table,
)
from jalg.identities import MP_AXIOMS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from slow_oracles import _mp_expansions  # noqa: E402


@dataclass(frozen=True)
class ScanConfig:
    p: int = 5


def pair_matched(mp: MatchedPair) -> bool:
    """The pair axioms by separate passes, none on the product table: each
    factor's Jordan identity and each action law by its own cube-law pass,
    then MP1-MP6 expanded as polynomials.  MatchedPair.verify() reads all
    ten off one pass on the product, so it cannot be the independent side."""
    A, V = mp.A, mp.V
    if not (A.is_jordan and V.is_jordan and mp.right.check().ok and mp.left.check().ok):
        return False
    tables = (A.sc, V.sc, mp.right.tensor, mp.left.tensor)
    return _mp_expansions(A.field, *tables, A.params, MP_AXIOMS, True).ok


def run(config: ScanConfig) -> int:
    f = Field(config.p)
    p = config.p
    if not p:
        raise JalgError("the scan needs a finite field: give a prime p >= 5")
    t0 = time.perf_counter()
    matched = 0
    disagreements = 0
    by_shape: Counter = Counter()
    for s, t, wr, wl in itertools.product(range(p), repeat=4):
        A = Algebra.from_products(f, ("a",), {("a", "a"): {"a": s}})
        V = Algebra.from_products(f, ("x",), {("x", "x"): {"x": t}})
        mp = MatchedPair(A, V, RightAction(V, A, [[[wr]]]), LeftAction(V, A, [[[wl]]]))
        pair_ok = pair_matched(mp)
        product_ok = bicross_table(mp).jordan_check().ok
        if pair_ok != product_ok:
            disagreements += 1
            print(f"DISAGREEMENT at (s,t,wr,wl) = {(s, t, wr, wl)}")
        if pair_ok:
            matched += 1
            # shape key: which of s, t are zero (idempotent vs null factor)
            by_shape[(s != 0, t != 0)] += 1
    elapsed = time.perf_counter() - t0

    print(f"p = {p}: {matched} matched pairs of {p ** 4} combinations ({elapsed:.2f}s)")
    print(f"verdict disagreements: {disagreements}")
    for (a_nonzero, v_nonzero), count in sorted(by_shape.items()):
        a_kind = "a^2 != 0" if a_nonzero else "a^2 = 0"
        v_kind = "x^2 != 0" if v_nonzero else "x^2 = 0"
        print(f"  {a_kind}, {v_kind}: {count}")
    return 1 if disagreements else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=5, help="field characteristic (default 5)")
    args = parser.parse_args(argv)
    try:
        return run(ScanConfig(args.p))
    except JalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
