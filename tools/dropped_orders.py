"""Count the r and rO orders that cycle removal drops on ``oracle-micro``,
and ask the exact oracle about each dropped r order.

    python3 tools/dropped_orders.py --seed 1

Generates the seed's ``oracle-micro`` problem texts as ``perfbench`` does and
takes the workload's fixed prefix of 400 items (0.6 s on a 2-vCPU host).  For
each, it builds the landmark graph stage by stage, as
``pipeline.build_landmark_graph`` does with its default config: candidates,
lookahead, verification, r orders, rO orders, cycle removal.  It counts the
r and rO edges inserted and the ones ``orders.remove_cycles`` drops, and asks
``oracles.oracle_reasonable`` whether each dropped r edge is a true
reasonable order.  Prints one line per stratum and one for the whole run.
Runs lmplan from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from lmplan import bench  # noqa: E402
from lmplan.landmarks import R, RO, generate_candidates, lookahead_extend, verify_landmarks  # noqa: E402
from lmplan.oracles import oracle_reasonable  # noqa: E402
from lmplan.orders import (  # noqa: E402
    add_obedient_orders,
    add_reasonable_orders,
    compute_mutexes,
    remove_cycles,
)
from lmplan.pddl import ground_files  # noqa: E402
from lmplan.pipeline import build_landmark_graph  # noqa: E402
from lmplan.rpg import GOALS_FIRST, build_rpg  # noqa: E402
from workloads import WORKLOADS, generate_items  # noqa: E402

WORKLOAD = WORKLOADS["oracle-micro"]


def count_item(item) -> Counter:
    """The inserted and dropped r/rO edges of one item's landmark graph."""
    task = ground_files(bench.DOMAIN_TEXTS[item.domain], item.problem)
    rpg = build_rpg(task, GOALS_FIRST)
    g = generate_candidates(task, rpg)
    g = lookahead_extend(task, rpg, g)
    g = verify_landmarks(task, g)
    table = compute_mutexes(task)
    g = add_obedient_orders(task, add_reasonable_orders(task, g, table), table)
    kept = remove_cycles(g)
    if kept.edges != build_landmark_graph(task, table=table).edges:
        raise SystemExit(f"item {item}: the stages no longer match build_landmark_graph")
    dropped = set(g.edges) - set(kept.edges)
    counts = Counter(items=1)
    for s, d, kind in g.edges:
        if kind is R:
            counts["r_inserted"] += 1
            if (s, d, kind) in dropped:
                counts["r_dropped"] += 1
                counts["r_dropped_true"] += oracle_reasonable(task, s, d)
        elif kind is RO:
            counts["ro_inserted"] += 1
            counts["ro_dropped"] += (s, d, kind) in dropped
    return counts


def line(label: str, c: Counter) -> str:
    return (f"{label}: {c['items']} items; r edges inserted {c['r_inserted']}, dropped "
            f"{c['r_dropped']} ({c['r_dropped_true']} true reasonable orders); rO edges "
            f"inserted {c['ro_inserted']}, dropped {c['ro_dropped']}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    items = generate_items(SimpleNamespace(bench=bench), WORKLOAD, args.seed)
    by_stratum: dict[tuple[str, str], Counter] = {}
    for item in items[:WORKLOAD.checked_items]:
        by_stratum.setdefault((item.domain, item.size), Counter()).update(count_item(item))
    total = Counter()
    for (domain, size), c in by_stratum.items():
        print(line(f"{domain} {size}", c))
        total.update(c)
    print(line(f"seed {args.seed}", total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
