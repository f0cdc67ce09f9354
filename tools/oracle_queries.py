"""Time the exact-oracle calls of ``oracle-micro``, call by call.

    python3 tools/oracle_queries.py --rounds 3

Generates the seed-1 ``oracle-micro`` problem texts as ``perfbench`` does and
takes the workload's fixed prefix of 400 items, as
``tools/dropped_orders.py`` does.  Each round first empties the domain memo
(``pddl.parse_domain.cache_clear()``), so it starts with no successor table:
within the round, the items of one action set share one table, as in
``perfbench``, and each item keeps its own closures.  It grounds every item
and makes the workload's oracle calls in its order: ``enumerate_states``,
then ``oracle_landmark`` on every landmark, with the enumerated state space,
then, on items within the workload's state limit, ``oracle_gn`` on every gn
edge and ``oracle_reasonable`` on every r edge.  Only the oracle calls are
timed.  After the timed rounds, one more round, untimed, counts the
successor sets the oracles generate (calls of ``core.successors`` from
``lmplan.oracles``) per kind of call: a cold pass, in which each state of
an action set is expanded once.

Prints one line per kind (enumerate, landmark, gn, r): calls, then for
enumerate the states enumerated and for a decider its true and false
answers, per round; the median microseconds per call over all timed rounds;
the mean milliseconds per round; and the successor sets the kind generated
in the counting round.  Three lines split the r decider into its searches,
in the order it runs them: the achieved-before scan, the deletion search
and, where that does not refute the order, the aftermath search.
Each gives its calls per round, its median microseconds per call, its mean
milliseconds per round and the states it kept in the counting round, summed
over its calls.  The scan keeps the achieved-before states it returns.  A
search keeps the states its cap counts: the least cap at which it does not
raise ``CapExceeded``, or its number of start states if larger (starts are
kept whatever the cap).  The r line's time includes the split's timing of
its searches.  Then come the round's total of successor sets and a digest
of its answers: the first 16 hex digits of the SHA-256 of the ordered
(kind, answer) list, where enumerate's answer is its number of states, so
that two checkouts can be compared answer by answer.  Exits 1 if two rounds
answer differently.  Runs lmplan from this checkout's
``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from lmplan import bench, oracles, pddl  # noqa: E402
from lmplan.landmarks import GN, R  # noqa: E402
from lmplan.oracles import (  # noqa: E402
    DEFAULT_STATE_CAP, CapExceeded, enumerate_states, oracle_gn, oracle_landmark,
    oracle_reasonable)
from lmplan.orders import compute_mutexes  # noqa: E402
from lmplan.pddl import ground_files  # noqa: E402
from lmplan.pipeline import build_landmark_graph  # noqa: E402
from workloads import ORDER_ORACLE_MAX_STATES, WORKLOADS, generate_items  # noqa: E402

WORKLOAD = WORKLOADS["oracle-micro"]
KINDS = ("enumerate", "landmark", "gn", "r")
# the r decider's searches, by the name the split prints
SEARCHES = {"achieved-before": "_achieved_before_states",
            "deletion": "_deletion_violated_from",
            "aftermath": "_aftermath_violated_from"}
SEED = 1


def states_kept(search, task, starts, l, lp) -> int:
    """The states ``search`` keeps from ``starts``: the least cap at which
    it does not raise ``CapExceeded``, or the number of starts if larger."""
    lo, hi = 0, DEFAULT_STATE_CAP  # raises below lo; does not at hi
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            search(task, starts, l, lp, mid)
        except CapExceeded:
            lo = mid + 1
        else:
            hi = mid
    return max(lo, len(set(starts)))


def digest(answers: list[tuple[str, int]]) -> str:
    """A short hash of the ordered (kind, answer) list."""
    text = "\n".join(f"{kind} {int(answer)}" for kind, answer in answers)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Round:
    """One round's oracle calls: their answers in order, the seconds each
    call took per kind and per r search and, when counting, the successor
    sets each kind generated and the states each r search kept."""

    def __init__(self, counting: bool):
        self.answers: list[tuple[str, int]] = []
        self.seconds: dict[str, list[float]] = {k: [] for k in (*KINDS, *SEARCHES)}
        self.generated = dict.fromkeys(KINDS, 0)
        self.kept = dict.fromkeys(SEARCHES, 0)
        self.counting = counting
        self._kernel = oracles.successors
        self._sets = 0

    def successors(self, ops, state):
        self._sets += 1
        return self._kernel(ops, state)

    def call(self, kind: str, decide, *args, **kwargs):
        before = self._sets
        t0 = time.perf_counter()
        answer = decide(*args, **kwargs)
        self.seconds[kind].append(time.perf_counter() - t0)
        self.generated[kind] += self._sets - before
        self.answers.append((kind, len(answer) if kind == "enumerate" else answer))
        return answer

    def timing(self, name: str, search):
        """``search``, timed as the r search ``name``; when counting, its
        kept states are counted too."""
        def timed(task, *args):
            t0 = time.perf_counter()
            answer = search(task, *args)
            self.seconds[name].append(time.perf_counter() - t0)
            if self.counting:
                self.kept[name] += (len(answer) if name == "achieved-before"
                                    else states_kept(search, task, *args[:3]))
            return answer
        return timed

    def run(self, items) -> "Round":
        searches = {attr: getattr(oracles, attr) for attr in SEARCHES.values()}
        if self.counting:
            oracles.successors = self.successors
        for name, attr in SEARCHES.items():
            setattr(oracles, attr, self.timing(name, searches[attr]))
        pddl.parse_domain.cache_clear()
        try:
            for item in items:
                self.run_item(item)
        finally:
            oracles.successors = self._kernel
            for attr, search in searches.items():
                setattr(oracles, attr, search)
        return self

    def run_item(self, item) -> None:
        """The oracle calls ``perfbench`` makes on one freshly grounded item."""
        task = ground_files(bench.DOMAIN_TEXTS[item.domain], item.problem)
        g = build_landmark_graph(task, table=compute_mutexes(task))
        space = self.call("enumerate", enumerate_states, task)
        for n in g.nodes:
            self.call("landmark", oracle_landmark, task, n, space=space)
        if len(space) <= ORDER_ORACLE_MAX_STATES:
            for s, d, k in g.edges:
                if k is GN:
                    self.call("gn", oracle_gn, task, s, d)
            for s, d, k in g.edges:
                if k is R:
                    self.call("r", oracle_reasonable, task, s, d)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    items = generate_items(SimpleNamespace(bench=bench), WORKLOAD, SEED)
    items = items[:WORKLOAD.checked_items]
    timed = [Round(counting=False).run(items) for _ in range(args.rounds)]
    counted = Round(counting=True).run(items)
    first = counted.answers
    if any(r.answers != first for r in timed):
        print("FAILED: two rounds answered differently")
        return 1
    print(f"seed {SEED}: {len(items)} items, {args.rounds} rounds")
    for kind in KINDS:
        seconds = [s for r in timed for s in r.seconds[kind]]
        answers = [answer for k, answer in first if k == kind]
        if kind == "enumerate":
            told = f"{sum(answers)} states"
        else:
            told = f"{sum(answers)} true, {len(answers) - sum(answers)} false"
        median = statistics.median(seconds) * 1e6 if seconds else 0.0
        total = sum(seconds) * 1e3 / args.rounds
        print(f"{kind}: {len(answers)} calls, {told}, median {median:.1f} us/call, "
              f"{total:.1f} ms/round, {counted.generated[kind]} successor sets")
    for name in SEARCHES:
        seconds = [s for r in timed for s in r.seconds[name]]
        median = statistics.median(seconds) * 1e6 if seconds else 0.0
        total = sum(seconds) * 1e3 / args.rounds
        print(f"r {name}: {len(counted.seconds[name])} calls, median {median:.1f} us/call, "
              f"{total:.1f} ms/round, {counted.kept[name]} states kept")
    print(f"successor sets: {sum(counted.generated.values())} per round")
    print(f"answers digest: {digest(first)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
