"""`analyze` on the hard instances of `hard.py`, at a budget of 200,000
search nodes: every decided LC/SC verdict is the one the construction
fixes, and exactly the pairs in `UNDECIDED_TODAY` stay undecided."""

import pytest

from contextuality import DisconnectedCoverError, analyze

from hard import BUDGET, UNDECIDED_TODAY, instances

INSTANCES = instances()


def test_undecided_pairs_name_known_instances():
    names = {instance.name for instance in INSTANCES}
    assert {name for name, _ in UNDECIDED_TODAY} <= names
    assert {verdict for _, verdict in UNDECIDED_TODAY} <= {"lc", "sc"}


@pytest.mark.parametrize(
    "instance",
    [
        pytest.param(
            instance,
            id=instance.name,
            # a valid document whose cover has two components: analyze
            # rejects it today instead of deciding each component
            marks=[pytest.mark.xfail(raises=DisconnectedCoverError, strict=True)]
            if instance.name == "pr-box-twice"
            else [],
        )
        for instance in INSTANCES
    ],
)
def test_decided_verdicts_match_the_construction(instance):
    report = analyze(instance.build(), budget=BUDGET)
    found = {"lc": report.lc, "sc": report.sc}
    undecided = {(instance.name, v) for v, value in found.items() if value is None}
    assert undecided == {pair for pair in UNDECIDED_TODAY if pair[0] == instance.name}
    decided = {v: value for v, value in found.items() if value is not None}
    assert decided == {v: getattr(instance, v) for v in decided}
