import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contextuality import (
    SCHEMA,
    Scenario,
    ScenarioError,
    Section,
    SectionDomainError,
    Simplex,
    build_nerve,
    connected_components,
    is_connected,
    parse_model,
)
from contextuality.scenario import sections_of

from conftest import BIPARTITE
from _random_models import random_models


# ---------------------------------------------------------------------------
# sections


def test_section_canonical_order_and_str():
    s = Section.of([("b1", 0), ("a1", 1)])
    t = Section.of({"a1": 1, "b1": 0})
    assert s == t
    assert hash(s) == hash(t)
    assert str(s) == "a1=1,b1=0"
    assert s["b1"] == 0
    assert s.values_on(("b1", "a1")) == (0, 1)
    assert s.as_dict() == {"a1": 1, "b1": 0}


def test_section_restriction_is_functorial():
    s = Section.of({"a": 0, "b": 1, "c": 2})
    assert s.restrict(("a", "b")).restrict(("a",)) == s.restrict(("a",))
    assert s.restrict(("a", "b", "c")) == s


def test_section_domain_errors():
    with pytest.raises(SectionDomainError):
        Section.of([("a", 0), ("a", 1)])
    s = Section.of({"a": 0})
    with pytest.raises(SectionDomainError):
        s["b"]
    with pytest.raises(SectionDomainError):
        s.restrict(("a", "b"))


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_normalises_context_order():
    scn = Scenario(("a", "b"), (("b", "a"),), (0, 1))
    assert scn.contexts == (("a", "b"),)
    assert scn.context_index(("b", "a")) == 0


def test_scenario_rejects_non_antichain():
    with pytest.raises(ScenarioError, match="antichain"):
        Scenario(("a", "b", "c"), (("a", "b", "c"), ("a", "b")), (0, 1))
    with pytest.raises(ScenarioError, match="antichain"):
        Scenario(("a", "b"), (("a", "b"), ("b", "a")), (0, 1))


def test_scenario_rejects_uncovered_measurements():
    with pytest.raises(ScenarioError, match="cover"):
        Scenario(("a", "b", "c"), (("a", "b"),), (0, 1))


def test_scenario_rejects_bad_outcomes_and_labels():
    with pytest.raises(ScenarioError):
        Scenario(("a",), (("a",),), ())
    with pytest.raises(ScenarioError):
        Scenario(("a",), (("a",),), (0, True))
    with pytest.raises(ScenarioError):
        Scenario(("a", "a"), (("a",),), (0, 1))
    with pytest.raises(ScenarioError):
        Scenario(("a", ""), (("a", ""),), (0, 1))


INVALID_SCENARIOS = [
    pytest.param([], [["a"]], [0, 1], "at least one measurement required", id="no-measurements"),
    pytest.param(["a"], [["a"]], [0, 0], "duplicate outcomes", id="duplicate-outcomes"),
    pytest.param(["a"], [], [0, 1], "cover must contain at least one context", id="empty-cover"),
    pytest.param(["a"], [[]], [0, 1], "empty context in cover", id="empty-context"),
    pytest.param(
        ["a", "b"],
        [["a", "a", "b"]],
        [0, 1],
        "duplicate measurement in context ('a', 'a', 'b')",
        id="repeated-measurement",
    ),
    pytest.param(
        ["a"],
        [["a", "z"]],
        [0, 1],
        "context ('a', 'z') uses undeclared measurements ['z']",
        id="undeclared-measurement",
    ),
]


@pytest.mark.parametrize("measurements, contexts, outcomes, message", INVALID_SCENARIOS)
def test_documents_with_invalid_scenarios_are_rejected(measurements, contexts, outcomes, message):
    text = json.dumps(
        {
            "format": SCHEMA,
            "scenario": {"measurements": measurements, "contexts": contexts, "outcomes": outcomes},
            "supports": [],
        }
    )
    with pytest.raises(ScenarioError) as err:
        parse_model(text)
    # a scenario offence is a domain error, reported without a JSON path
    assert str(err.value) == message


def test_sections_of_lexicographic():
    got = sections_of(BIPARTITE, ("b1", "a1"))
    assert [s.values_on(("a1", "b1")) for s in got] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_scenario_section_builder():
    s = BIPARTITE.section(("b1", "a1"), (0, 1))
    # values follow the sorted measurement order a1, b1
    assert s["a1"] == 0 and s["b1"] == 1


# ---------------------------------------------------------------------------
# nerve


def test_bipartite_nerve_counts():
    nerve = build_nerve(BIPARTITE)
    assert [len(level) for level in nerve] == [4, 4]
    # the two disjoint context pairs do not form simplices
    pairs = {sigma.contexts for sigma in nerve[1]}
    assert (0, 3) not in pairs and (1, 2) not in pairs


def test_mermin_subcover_nerve_counts():
    scn = Scenario(
        ("X1", "Y1", "X2", "Y2", "X3", "Y3"),
        (
            ("X1", "X2", "X3"),
            ("X1", "Y2", "Y3"),
            ("Y1", "X2", "Y3"),
            ("Y1", "Y2", "X3"),
        ),
        (0, 1),
    )
    nerve = build_nerve(scn)
    assert [len(level) for level in nerve] == [4, 6]


def test_triangle_nerve_counts():
    scn = Scenario(
        ("x1", "x2", "x3"),
        (("x1", "x2"), ("x2", "x3"), ("x1", "x3")),
        (0, 1),
    )
    nerve = build_nerve(scn)
    assert [len(level) for level in nerve] == [3, 3]


def test_nerve_dimension_cap():
    scn = Scenario(
        ("x1", "x2", "x3"),
        (("x1", "x2"), ("x2", "x3"), ("x1", "x3")),
        (0, 1),
    )
    assert len(build_nerve(scn, max_dimension=0)) == 1


# explicit simplex constructors: the library builds simplices only in
# build_nerve, so these exist to check the face maps


def _intersection(scenario, indices):
    common = set(scenario.contexts[indices[0]])
    for i in indices[1:]:
        common &= set(scenario.contexts[i])
    return scenario.sorted_measurements(common)


def simplex(scenario, indices):
    idx = tuple(indices)
    if list(idx) != sorted(set(idx)):
        raise ScenarioError(f"simplex indices must be strictly increasing, got {idx}")
    inter = _intersection(scenario, idx)
    if not inter:
        raise ScenarioError(f"contexts {idx} have empty intersection")
    return Simplex(idx, inter)


def boundary_face(scenario, sigma, j):
    """The j-th face: delete the j-th context (intersection recomputed, so it
    can only grow)."""
    if not 0 <= j <= sigma.dimension:
        raise ScenarioError(f"face index {j} out of range for dimension {sigma.dimension}")
    remaining = sigma.contexts[:j] + sigma.contexts[j + 1 :]
    return Simplex(remaining, _intersection(scenario, remaining))


def test_simplex_intersection_and_faces():
    sigma = simplex(BIPARTITE, (0, 1))
    assert sigma.intersection == ("a1",)
    assert boundary_face(BIPARTITE, sigma, 0).contexts == (1,)
    assert boundary_face(BIPARTITE, sigma, 1).contexts == (0,)
    with pytest.raises(ScenarioError):
        simplex(BIPARTITE, (0, 3))  # disjoint contexts
    with pytest.raises(ScenarioError):
        simplex(BIPARTITE, (1, 0))  # not increasing


def test_face_maps_commute():
    # d_i . d_j = d_{j-1} . d_i for i < j, the simplicial identity behind
    # delta . delta = 0
    scn = Scenario(
        ("p", "q", "r", "s"),
        (("p", "q"), ("q", "r"), ("q", "s")),
        (0, 1),
    )
    sigma = simplex(scn, (0, 1, 2))  # all three share q
    for i in range(2):
        for j in range(i + 1, 3):
            left = boundary_face(scn, boundary_face(scn, sigma, j), i)
            right = boundary_face(scn, boundary_face(scn, sigma, i), j - 1)
            assert left == right


def test_connected_components():
    scn = Scenario(
        ("a", "b", "c", "d"),
        (("a", "b"), ("c", "d")),
        (0, 1),
    )
    assert connected_components(scn) == ((0,), (1,))
    assert not is_connected(scn)
    assert is_connected(BIPARTITE)


def reference_components(scenario):
    """Components under the overlap relation, testing every context pair."""
    n = len(scenario.contexts)
    sets = [set(c) for c in scenario.contexts]
    seen, components = set(), []
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            i = stack.pop()
            if i not in comp:
                comp.add(i)
                stack.extend(j for j in range(n) if sets[i] & sets[j])
        seen |= comp
        components.append(tuple(sorted(comp)))
    return tuple(components)


def reference_antichain_error(scenario_contexts):
    """The message for the first pair (i, j), i != j in cover order, with
    context i inside context j, or None for an antichain."""
    for i, ci in enumerate(scenario_contexts):
        for j, cj in enumerate(scenario_contexts):
            if i != j and set(ci) <= set(cj):
                kind = "duplicates" if set(ci) == set(cj) else "is contained in"
                return f"cover is not an antichain: context {ci} {kind} context {cj}"
    return None


def test_components_and_antichain_match_all_pairs_reference():
    rng = random.Random(20240821)
    disconnected = rejected = 0
    scenarios = [m.scenario for m in random_models(25, seed=20240818)]
    for _ in range(300):
        measurements = tuple(rng.sample([f"x{i}" for i in range(7)], 7))
        contexts = [
            tuple(rng.sample(measurements, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 7))
        ]
        covered = {m for c in contexts for m in c}
        contexts += [(m,) for m in measurements if m not in covered]
        order = {m: k for k, m in enumerate(measurements)}
        normalised = [tuple(sorted(c, key=order.__getitem__)) for c in contexts]
        expected = reference_antichain_error(normalised)
        if expected is not None:
            rejected += 1
            with pytest.raises(ScenarioError) as err:
                Scenario(measurements, tuple(contexts), (0, 1))
            assert str(err.value) == expected
            continue
        scenarios.append(Scenario(measurements, tuple(contexts), (0, 1)))
    for scn in scenarios:
        assert connected_components(scn) == reference_components(scn)
        disconnected += not is_connected(scn)
    assert rejected >= 50 and disconnected >= 50


@given(
    st.integers(2, 5),
)
def test_cycle_cover_nerve_sizes(n):
    # measurements on a cycle: n contexts, n overlaps for n >= 3
    measurements = tuple(f"x{i}" for i in range(n))
    contexts = tuple(
        (measurements[i], measurements[(i + 1) % n]) for i in range(n)
    )
    if n == 2:
        with pytest.raises(ScenarioError):
            Scenario(measurements, contexts, (0, 1))
        return
    scn = Scenario(measurements, contexts, (0, 1))
    nerve = build_nerve(scn)
    assert len(nerve[0]) == n
    assert len(nerve[1]) == n
    assert is_connected(scn)
