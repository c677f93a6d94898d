"""Hard instances, each with the LC and SC verdicts its construction fixes.

`test_hard.py` analyses every instance at `BUDGET` search nodes and
asserts that every decided verdict is the oracle's and that exactly the
pairs in `UNDECIDED_TODAY` are left undecided.

Every oracle follows from how its instance is built, not from library
code:
- the Mycielski graph M_k has chromatic number k, so its proper-colouring
  model with c colours has no global section when c < k (SC). When c >= k a
  proper colouring exists, and permuting its colours carries any edge's
  pair of distinct colours onto any other pair, so every section extends
  (LC = SC = false);
- a tree of contexts whose supports are bijections: fixing any section
  and propagating it from that edge outwards reaches every measurement
  once, so every section extends (LC = SC = false);
- a Tseitin parity model whose charges sum to 1 mod 2: adding every
  context's parity equation gives 0 = 1, so it has no global section (SC);
- one context holding the solvable equation x1 + ... + x6 = 0 over Z7:
  each section is a global section (LC = SC = false);
- two disjoint copies of the PR box: each copy is strongly contextual, and
  so is the whole (LC = SC = true).

The bench builders (`bench/workloads.py`) are imported read-only.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TESTS = Path(__file__).resolve().parent
for _path in (TESTS, TESTS.parent / "bench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from contextuality import (  # noqa: E402
    EmpiricalModel,
    ModelDocument,
    Scenario,
    Section,
    document_from_equations,
    document_from_model,
)
from workloads import colouring, disconnected_pr_box  # noqa: E402

from _random_models import tseitin_model  # noqa: E402

BUDGET = 200_000

# (instance, verdict) pairs that analyze leaves undecided at BUDGET; a
# change that decides one removes it, and none is ever added
UNDECIDED_TODAY = frozenset(
    {(f"mycielski-{k}-4col", v) for k in (5, 6, 7) for v in ("lc", "sc")}
    | {("mycielski-5-5col", "lc")}
    | {(f"tree-80-seed{seed}", v) for seed in (1, 2, 3) for v in ("lc", "sc")}
)


@dataclass(frozen=True)
class Instance:
    name: str
    build: Callable[[], ModelDocument]
    lc: bool
    sc: bool


def bijection_tree(contexts: int, seed: int) -> ModelDocument:
    """A tree of `contexts` two-measurement contexts over outcomes {0, 1}:
    measurement t_i (i >= 1) shares a context with a random earlier
    t_parent, supported on the identity or the swap; the measurements are
    declared in a shuffled order."""
    rng = random.Random(seed)
    names = [f"t{i}" for i in range(contexts + 1)]
    edges = [(names[rng.randrange(i)], names[i], rng.randrange(2)) for i in range(1, contexts + 1)]
    declared = list(names)
    rng.shuffle(declared)
    scenario = Scenario(tuple(declared), tuple((a, b) for a, b, _ in edges), (0, 1))
    supports = [[Section.of(((a, x), (b, x ^ flip))) for x in (0, 1)] for a, b, flip in edges]
    return document_from_model(EmpiricalModel(scenario, supports), name=f"tree-{contexts}-seed{seed}")


def parity_theory(modulus: int, width: int) -> ModelDocument:
    """One context x1..x_width with x1 + ... + x_width = 0 over Z_modulus."""
    names = tuple(f"x{i}" for i in range(1, width + 1))
    scenario = Scenario(names, (names,), tuple(range(modulus)))
    return document_from_equations(
        scenario, modulus, [(dict.fromkeys(names, 1), 0)], name=f"one-context-z{modulus}-x{width}"
    )


def instances() -> list[Instance]:
    found = [
        Instance(f"mycielski-{k}-{c}col", lambda k=k, c=c: colouring(k, c, 1)[0], c < k, c < k)
        for k, c in ((5, 4), (6, 4), (7, 4), (5, 5))
    ]
    found += [
        Instance(f"tree-80-seed{seed}", lambda seed=seed: bijection_tree(80, seed), False, False)
        for seed in (1, 2, 3)
    ]
    found.append(
        Instance("tseitin-30", lambda: document_from_model(tseitin_model(30, seed=1), name="tseitin-30"), True, True)
    )
    found.append(Instance("one-context-z7-x6", lambda: parity_theory(7, 6), False, False))
    found.append(Instance("pr-box-twice", lambda: disconnected_pr_box(1)[0], True, True))
    return found

