"""Print the profile digests that ``checks.PROFILE_EXPECTED`` pins.

The digests come from the test suite's brute-force oracle
``conjugate_pair_map`` (tests/test_acceptance.py), not from the profiler:
for every ordered pair of base-ball elements conjugate within the search
ball it gives the minimal conjugator length, and the class representative
is the least ball index of the pair's connected component.

Run from the repository root (takes about a minute):

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src"), str(ROOT / "tests")]

from ggtkit.cayley import ball  # noqa: E402
from ggtkit.groups import FreeAbelian, FreeGroup, heisenberg_group  # noqa: E402
from test_acceptance import conjugate_pair_map  # noqa: E402

from perfbench.reference import profile_digest  # noqa: E402
from perfbench.workloads import PROFILE_TASKS  # noqa: E402

MODELS = {"f2": FreeGroup(2), "z2": FreeAbelian(2), "heis": heisenberg_group()}


def oracle_records(model, radius: int, slack: int) -> list:
    base = ball(model, radius)
    search = ball(model, 2 * radius + slack)
    found = conjugate_pair_map(model, base, search)
    parent = list(range(len(base)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for ui, vi in found:
        ri, rj = find(ui), find(vi)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return [
        (base.elements[ui], base.elements[vi], glen, find(ui))
        for (ui, vi), (glen, _) in found.items()
    ]


if __name__ == "__main__":
    for name, (radius, slack) in PROFILE_TASKS.items():
        records = oracle_records(MODELS[name], radius, slack)
        print(f'"{name}": ({len(records)}, "{profile_digest(records)}"),')
