"""The LC/SC search as a plain recursion, kept as the reference that
`classify_contextuality` must match verdict for verdict and node for node.

Measurements are assigned in declared order and outcomes in alphabet
order, so global sections are met in lexicographic order. Each outcome
tried is one node; before trying one, a search whose nodes have reached
the budget stops, incomplete. After each assignment every context whose
assigned part is non-empty must admit that part as the projection of a
supported section.

`reference_classify` runs one search for a global section and then, per
supported section in report order, a search with the section's outcomes
fixed, on what is left of the budget; every global section found marks all
the sections it restricts to as extending, and those take no search.
"""

from __future__ import annotations

from contextuality import DEFAULT_SEARCH_BUDGET, EmpiricalModel, Section


class _Search:
    def __init__(self, model: EmpiricalModel, fixed: dict[str, int], budget: int):
        scn = model.scenario
        self.order = scn.measurements
        self.outcomes = scn.outcomes
        self.fixed = fixed
        self.budget = budget
        self.nodes = 0
        self.complete = True
        self.values: dict[str, int] = {}
        # per measurement, the (context prefix, supported prefixes) pairs
        # whose last measurement it is
        self.checks: dict[str, list] = {m: [] for m in self.order}
        for ci, ctx in enumerate(scn.contexts):
            rows = model.support_values(ci)
            for t in range(1, len(ctx) + 1):
                self.checks[ctx[t - 1]].append((ctx[:t], {v[:t] for v in rows}))

    def admissible(self, m: str) -> bool:
        return all(
            tuple(self.values[p] for p in prefix) in supported
            for prefix, supported in self.checks[m]
        )

    def first(self, depth: int = 0) -> dict[str, int] | None:
        """The first global section below this depth, or None; sets
        `complete` to False when the budget runs out."""
        if depth == len(self.order):
            return dict(self.values)
        m = self.order[depth]
        for o in (self.fixed[m],) if m in self.fixed else self.outcomes:
            if self.nodes >= self.budget:
                self.complete = False
                return None
            self.nodes += 1
            self.values[m] = o
            if self.admissible(m):
                found = self.first(depth + 1)
                if found is not None or not self.complete:
                    return found
            del self.values[m]
        return None


def _search(model, fixed, budget):
    search = _Search(model, fixed, budget)
    return search.first(), search.nodes, search.complete


def reference_classify(model: EmpiricalModel, budget: int = DEFAULT_SEARCH_BUDGET):
    """(extends, LC, SC, global section, nodes used), as
    `classify_contextuality` reports them."""
    contexts = model.scenario.contexts
    found, nodes, complete = _search(model, {}, budget)
    used = nodes
    witness = None if found is None else Section.of(found)
    sc = False if found is not None else (True if complete else None)
    extending = [set() for _ in contexts]

    def settle(g):
        for known, ctx in zip(extending, contexts):
            known.add(tuple(g[m] for m in ctx))

    if found is not None:
        settle(found)
    extends = []
    for ci, ctx in enumerate(contexts):
        for v in model.support_values(ci):
            if v in extending[ci]:
                extends.append(True)
            elif sc is True:
                extends.append(False)
            else:
                found, nodes, complete = _search(model, dict(zip(ctx, v)), max(budget - used, 0))
                used += nodes
                if found is not None:
                    settle(found)
                    extends.append(True)
                else:
                    extends.append(False if complete else None)
    lc = True if False in extends else (None if None in extends else False)
    if sc is None and None not in extends and True not in extends:
        sc = True
    return tuple(extends), lc, sc, witness, used
