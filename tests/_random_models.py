"""Seeded generation of small no-signalling models for property suites.

Three strategies, mixed: supports generated from a handful of global
assignments (never strongly contextual), supports cut down from a random
table by iterated overlap pruning (the largest no-signalling submodel of
the seed), and solution sets of random linear theories. Everything is
driven by one random.Random instance, so a fixed seed reproduces the
whole stream.

None of those reaches a non-vanishing obstruction over Z4, Z6 or Z, so a
second stream, `random_contextual_models`, builds All-vs-Nothing models
over Z_k by design: a cycle of contexts whose parity-like relations
compose to a map without a fixed point.

`tseitin_model` builds Tseitin parity models: All-vs-Nothing over Z2 by
construction, and out of reach of a backtracking search from a few dozen
contexts on.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from contextuality import (
    EmpiricalModel,
    LinearEquation,
    RingSpec,
    Scenario,
    Section,
    SignallingError,
    Theory,
    is_connected,
    solutions,
)

_LABELS = ("m1", "m2", "m3", "m4")


def random_scenario(rng: random.Random) -> Scenario:
    """A connected cover of 2-4 measurements by contexts of size 2 or 3."""
    while True:
        n = rng.choice((2, 3, 3, 4, 4, 4))
        measurements = _LABELS[:n]
        outcomes = (0, 1) if rng.random() < 0.7 else (0, 1, 2)
        candidates = [
            c
            for size in (2, 3)
            if size <= n
            for c in combinations(measurements, size)
        ]
        k = rng.randint(1, min(4, len(candidates)))
        chosen = rng.sample(candidates, k)
        maximal = [
            c
            for c in chosen
            if not any(set(c) < set(d) for d in chosen)
        ]
        maximal = list(dict.fromkeys(maximal))
        if set().union(*(set(c) for c in maximal)) != set(measurements):
            continue
        scn = Scenario(measurements, tuple(maximal), outcomes)
        if is_connected(scn):
            return scn


def _prune_to_no_signalling(
    scenario: Scenario, supports: list[set[Section]]
) -> EmpiricalModel | None:
    """Iteratively delete sections that signal; the fixpoint is the largest
    no-signalling submodel of the seed, or None when a support dies."""
    n = len(scenario.contexts)
    overlaps = []
    for i in range(n):
        for j in range(i + 1, n):
            ov = tuple(
                m for m in scenario.contexts[i] if m in set(scenario.contexts[j])
            )
            if ov:
                overlaps.append((i, j, ov))
    changed = True
    while changed:
        changed = False
        for i, j, ov in overlaps:
            left = {s.restrict(ov) for s in supports[i]}
            right = {s.restrict(ov) for s in supports[j]}
            common = left & right
            if left != common:
                supports[i] = {s for s in supports[i] if s.restrict(ov) in common}
                changed = True
            if right != common:
                supports[j] = {s for s in supports[j] if s.restrict(ov) in common}
                changed = True
    if any(not sup for sup in supports):
        return None
    return EmpiricalModel(scenario, tuple(tuple(sup) for sup in supports))


def _from_global_sections(rng: random.Random, scenario: Scenario) -> EmpiricalModel:
    count = rng.randint(1, 5)
    globals_ = [
        Section.of(
            {m: rng.choice(scenario.outcomes) for m in scenario.measurements}
        )
        for _ in range(count)
    ]
    supports = tuple(
        tuple({g.restrict(ctx) for g in globals_}) for ctx in scenario.contexts
    )
    return EmpiricalModel(scenario, supports)


def _from_pruned_table(rng: random.Random, scenario: Scenario) -> EmpiricalModel | None:
    supports = []
    for ctx in scenario.contexts:
        full = [
            scenario.section(ctx, vals)
            for vals in product(scenario.outcomes, repeat=len(ctx))
        ]
        keep = {s for s in full if rng.random() < 0.8}
        if not keep:
            keep = {rng.choice(full)}
        supports.append(keep)
    return _prune_to_no_signalling(scenario, supports)


def _from_theory(rng: random.Random, scenario: Scenario) -> EmpiricalModel | None:
    ring = RingSpec(len(scenario.outcomes))
    equations = []
    for _ in range(rng.randint(1, 3)):
        ctx = rng.choice(scenario.contexts)
        coeffs = tuple(rng.randrange(ring.modulus) for _ in ctx)
        if not any(coeffs):
            continue
        equations.append(
            LinearEquation(ring, ctx, coeffs, rng.randrange(ring.modulus))
        )
    if not equations:
        return None
    theory = Theory(ring, tuple(equations))
    supports = []
    for ctx in scenario.contexts:
        sols = solutions(theory, ctx, alphabet=scenario.outcomes)
        if not sols:
            return None
        supports.append(set(sols))
    return _prune_to_no_signalling(scenario, supports)


def random_model(rng: random.Random) -> EmpiricalModel:
    """One small no-signalling model; retries internally until valid."""
    while True:
        scenario = random_scenario(rng)
        roll = rng.random()
        try:
            if roll < 0.3:
                model = _from_global_sections(rng, scenario)
            elif roll < 0.8:
                model = _from_pruned_table(rng, scenario)
            else:
                model = _from_theory(rng, scenario)
        except SignallingError:
            model = None
        if model is not None:
            return model


def random_models(count: int, seed: int) -> list[EmpiricalModel]:
    rng = random.Random(seed)
    return [random_model(rng) for _ in range(count)]


def random_contextual_model(rng: random.Random) -> EmpiricalModel:
    """Supports x_{i+1} = u_i*x_i + c_i (u_i = +-1) over the outcomes Z_k
    around a cycle m1..mL. The last step is chosen so that the composite
    x1 -> U*x1 + C mostly has no fixed point mod k: then the model is AvN
    over Z_k, so every obstruction is non-vanishing over Z_k and hence
    over Z. Otherwise U = -1 and C is even with k even, which leaves two
    fixed points: two global sections, and every other section
    contextual. Each relation is a bijection, so every marginal is all of
    Z_k and the model is no-signalling. Some contexts carry an extra
    measurement of their own, either tied (the sum of the pair) or, for
    k <= 3, free; a chord context with one more bijective relation may
    close a second cycle.
    """
    k = rng.choice((2, 3, 4, 6))
    length = rng.randint(3, 5)
    cycle = [f"m{i + 1}" for i in range(length)]
    steps = [(rng.choice((1, -1)), rng.randrange(k)) for _ in range(length - 1)]
    unit, shift = 1, 0
    for u, c in steps:
        unit, shift = u * unit, u * shift + c
    u = rng.choice((1, -1))
    if (u * unit + 1) % k == 0 and k % 2:
        u = -u  # x = -x + C always has a fixed point when 2 is a unit
    if (u * unit - 1) % k == 0:
        closing = [r for r in range(k) if r]  # x = x + r
    else:
        odd = rng.random() < 0.7  # 2x = r, k even: no solution for odd r
        closing = [r for r in range(k) if r % 2 == odd]
    steps.append((u, rng.choice(closing) - u * shift))
    pairs = [(cycle[i], cycle[(i + 1) % length], u, c) for i, (u, c) in enumerate(steps)]
    if length > 3 and rng.random() < 0.4:
        pairs.append((cycle[0], cycle[2], rng.choice((1, -1)), rng.randrange(k)))
    measurements = list(cycle)
    contexts, supports = [], []
    for i, (a, b, u, c) in enumerate(pairs):
        rows = [{a: x, b: (u * x + c) % k} for x in range(k)]
        roll = rng.random()
        if roll < 0.3:
            extra = f"e{i + 1}"
            rows = [{**r, extra: (r[a] + r[b]) % k} for r in rows]
        elif roll < 0.5 and k <= 3:
            extra = f"e{i + 1}"
            rows = [{**r, extra: o} for r in rows for o in range(k)]
        else:
            extra = None
        if extra is not None:
            measurements.append(extra)
        contexts.append(tuple(rows[0]))
        supports.append(tuple(Section.of(r) for r in rows))
    scenario = Scenario(tuple(measurements), tuple(contexts), tuple(range(k)))
    return EmpiricalModel(scenario, tuple(supports))


def random_contextual_models(count: int, seed: int) -> list[EmpiricalModel]:
    rng = random.Random(seed)
    return [random_contextual_model(rng) for _ in range(count)]



def tseitin_model(contexts: int, seed: int) -> EmpiricalModel:
    """The Tseitin parity model of a random simple connected 3-regular
    graph on `contexts` vertices: one binary measurement per edge, one
    context per vertex on its three edges, whose support is the four
    assignments with the vertex's charge as parity. The charges sum to 1
    mod 2, so adding every context's equation gives 0 = 1: the model is
    All-vs-Nothing over Z2 and strongly contextual, while a search for a
    global section needs exponentially many nodes (Urquhart, "Hard
    examples for resolution", JACM 1987). The graph pairs three stubs per
    vertex at random until the pairing has no loop, no repeated edge and
    one component; the cover is connected exactly when the graph is."""
    if contexts < 4 or contexts % 2:
        raise ValueError("a 3-regular graph needs an even number of at least 4 vertices")
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(contexts) for _ in range(3)]
        rng.shuffle(stubs)
        edges = sorted({tuple(sorted(pair)) for pair in zip(stubs[::2], stubs[1::2])})
        if len(edges) < len(stubs) // 2 or any(u == v for u, v in edges):
            continue
        names = tuple(f"e{u}_{v}" for u, v in edges)
        cover = tuple(
            tuple(name for name, edge in zip(names, edges) if v in edge)
            for v in range(contexts)
        )
        scenario = Scenario(names, cover, (0, 1))
        if is_connected(scenario):
            break
    charges = [rng.randrange(2) for _ in range(contexts - 1)]
    charges.append((1 + sum(charges)) % 2)
    supports = [
        [bits for bits in product((0, 1), repeat=3) if sum(bits) % 2 == charge]
        for charge in charges
    ]
    return EmpiricalModel.from_values(scenario, supports)
