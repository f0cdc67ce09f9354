"""Compare the fingerprints of two perfbench reports.

    python3 tools/compare_fingerprints.py A.json B.json

A and B are ``perfbench/out/<workload>-seed<n>-trace<t>.json`` files, for
example one run at a parent commit and one at a change, same workload and
seed.  Their ``fingerprint`` rows (per item: plan length, landmarks, edges
per kind, ...) are compared over the common prefix, which is as long as the
shorter run.  Prints the first differing row and exits 1 on a mismatch;
prints the number of rows compared and exits 0 when they agree.
"""

from __future__ import annotations

import json
import sys


def first_difference(a: list, b: list):
    """Index of the first row that differs over the common prefix, or None."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rows = []
    for path in argv:
        with open(path) as fh:
            rows.append(json.load(fh)["fingerprint"])
    a, b = rows
    i = first_difference(a, b)
    if i is not None:
        print(f"row {i} differs:\n  {argv[0]}: {json.dumps(a[i])}\n  {argv[1]}: {json.dumps(b[i])}")
        return 1
    print(f"{min(len(a), len(b))} common rows identical ({len(a)} and {len(b)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
