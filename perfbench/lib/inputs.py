"""Workload inputs as a pure function of the workload seed.

Nothing here calls into the program: the random problems come from
Python's own seeded generator, and the fixed inputs come from
perfbench/data/workloads.json.  A change to the program therefore cannot
change what the benchmark asks of it.
"""

import itertools
import json
import os
import random

DATA_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "data", "workloads.json")

DENY_PATH = os.path.join(os.path.dirname(DATA_PATH), "cold_deny.txt")

# Small random problems: degree 3, three labels, 1-3 node and 2-4 edge
# configurations.  Most finish cold in about a millisecond of engine time at
# max steps 2; the few shapes that take far longer are listed in
# data/cold_deny.txt and never drawn, which keeps the cold half of
# serve_mixed cheap and its cost spread narrow.
RANDOM_DELTA = 3
RANDOM_LABELS = ("A", "B", "C")
RANDOM_MAX_STEPS = 2


def load_data():
    with open(DATA_PATH) as f:
        return json.load(f)


def _multisets(labels, size):
    return list(itertools.combinations_with_replacement(labels, size))


def _render(config):
    return " ".join(config)


def random_problem(rng: random.Random):
    """One random (node spec, edge spec) pair in the CLI's ';' grammar.

    Every label appears in some node configuration and in some edge
    configuration, so the problem parses and no label is dead on arrival.
    """
    node_pool = _multisets(RANDOM_LABELS, RANDOM_DELTA)
    edge_pool = _multisets(RANDOM_LABELS, 2)
    while True:
        nodes = sorted(rng.sample(node_pool, rng.randint(1, 3)))
        edges = sorted(rng.sample(edge_pool, rng.randint(2, 4)))
        used_nodes = {l for c in nodes for l in c}
        used_edges = {l for c in edges for l in c}
        if used_nodes == used_edges == set(RANDOM_LABELS):
            return ("; ".join(_render(c) for c in nodes),
                    "; ".join(_render(c) for c in edges))


def load_deny_list():
    """The (node, edge) shapes excluded from the random draw."""
    deny = set()
    with open(DENY_PATH) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                node, edge = line.split(" | ")
                deny.add((node, edge))
    return deny


def unique_problems(rng: random.Random, count: int, deny=frozenset()):
    """`count` pairwise distinct random problems outside `deny`, in
    generation order."""
    seen = set(deny)
    out = []
    while len(out) < count:
        problem = random_problem(rng)
        if problem not in seen:
            seen.add(problem)
            out.append(problem)
    return out


def localsim_seed(seed: int, pinned: dict) -> int:
    """Maps the workload seed onto one of the simulator seeds whose state
    checksum is pinned in workloads.json."""
    seeds = sorted(int(s) for s in pinned)
    return seeds[seed % len(seeds)]
