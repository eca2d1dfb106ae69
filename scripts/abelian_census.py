#!/usr/bin/env python3
"""Census of matched pairs with an abelian base and a 1-dim abelian top.

For each admitted pair the action data is a weight vector lambda and a
matrix D acting on the base.  The scan confirms the closed form: a pair
is valid exactly when lambda = 0 and D is nilpotent of index at most 3.
The nilpotency cross-check is recomputed here directly on the matrices.

    python3 scripts/abelian_census.py
    python3 scripts/abelian_census.py --dim 1 --p 7
    python3 scripts/abelian_census.py --dim 3   # 15625 pairs, about a minute
"""

import argparse
import sys
import time
from dataclasses import dataclass

from jalg import Field, JalgError, enumerate_abelian_pairs


@dataclass(frozen=True)
class CensusConfig:
    dim: int = 2
    p: int = 5


def cube(rows, p):
    n = len(rows)
    m = rows
    for _ in range(2):
        m = [
            [sum(m[i][k] * rows[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)
        ]
    return m


def run(config: CensusConfig) -> int:
    field = Field(config.p)
    t0 = time.perf_counter()
    census = enumerate_abelian_pairs(config.dim, field)
    elapsed = time.perf_counter() - t0
    n = config.dim

    print(f"base dim {n} over F{config.p}: "
          f"{census.count} matched pairs of {census.candidates} candidates "
          f"({elapsed:.2f}s)")

    zero_lambda = nilpotent = 0
    for lam, cols, _mp in census.pairs:
        if all(c == 0 for c in lam):
            zero_lambda += 1
        rows = [[cols[j][i] for j in range(n)] for i in range(n)]
        if all(c == 0 for row in cube(rows, config.p) for c in row):
            nilpotent += 1
    print(f"lambda = 0 in {zero_lambda} of {census.count}")
    print(f"D^3 = 0 in {nilpotent} of {census.count}")
    ok = zero_lambda == nilpotent == census.count
    print("closed form confirmed" if ok else "CLOSED FORM VIOLATED")

    if n <= 2:
        for lam, cols, _mp in census.pairs:
            rows = [[cols[j][i] for j in range(n)] for i in range(n)]
            print(f"  lambda = {list(lam)}, D = {rows}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=2, help="base dimension (default 2)")
    parser.add_argument("--p", type=int, default=5, help="field characteristic (default 5)")
    args = parser.parse_args(argv)
    try:
        return run(CensusConfig(args.dim, args.p))
    except JalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
