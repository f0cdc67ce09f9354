import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

from lmplan.instances import (
    blocksworld_demo_task,
    committed_chain_task,
    logistics_two_planes_task,
    obedient_witness_task,
    roadmap_task,
    shared_add_task,
    twin_goal_task,
)


@pytest.fixture(scope="session")
def demo_bw():
    return blocksworld_demo_task()


@pytest.fixture(scope="session")
def roadmap():
    return roadmap_task()


@pytest.fixture(scope="session")
def twin():
    return twin_goal_task()


@pytest.fixture(scope="session")
def shared_add():
    return shared_add_task()


@pytest.fixture(scope="session")
def committed_chain():
    return committed_chain_task()


@pytest.fixture(scope="session")
def obedient_witness():
    return obedient_witness_task()


@pytest.fixture(scope="session")
def two_planes():
    return logistics_two_planes_task()


def fid(task, name):
    return task.fact_named(name).id


def topological_order_exists(g):
    """Kahn's algorithm: succeeds exactly on acyclic graphs."""
    indeg = {n: 0 for n in g.nodes}
    succ = {n: [] for n in g.nodes}
    for s, d, _ in g.edges:
        indeg[d] += 1
        succ[s].append(d)
    queue = [n for n, k in indeg.items() if k == 0]
    seen = 0
    while queue:
        n = queue.pop()
        seen += 1
        for d in succ[n]:
            indeg[d] -= 1
            if indeg[d] == 0:
                queue.append(d)
    return seen == len(g.nodes)
