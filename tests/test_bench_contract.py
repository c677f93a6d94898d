"""The library surface the benchmark harness relies on.

The benchmark's tracing replays (`bench/tracing.py`) import names from
`contextuality` that the CLI does not use, and `bench/run.py` imports that
module even when it traces nothing, so a name missing there fails every
benchmark run. These tests import the module (without writing bytecode
next to it) and run each replay once on the PR box, so a change to that
surface shows in this suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from contextuality import corpus_text

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    written, path = sys.dont_write_bytecode, str(BENCH)
    sys.dont_write_bytecode = True
    sys.path.insert(0, path)
    try:
        import tracing
    finally:
        sys.path.remove(path)
        sys.dont_write_bytecode = written
    return tracing


@pytest.fixture
def pr_path(tmp_path):
    path = tmp_path / "pr-box.json"
    path.write_text(corpus_text("pr-box"), encoding="utf-8")
    return str(path)


def test_replay_analyze(tracing, pr_path):
    tr = tracing.Tracer()
    verdicts = tracing.replay_analyze(tr, ["analyze", pr_path, "--json"])
    assert (verdicts["lc"], verdicts["sc"]) == (True, True)
    z2 = verdicts["rings"]["Z2"]
    assert (z2["avn"], z2["aff_sc"], z2["clc"], z2["csc"], z2["non_vanishing"]) == (
        True, True, True, True, 8,
    )
    assert {s.name for s in tr.spans} >= {"cli.main", "analysis.analyze", "rings.solve.zp"}


def test_replay_obstruction(tracing, pr_path):
    tr = tracing.Tracer()
    argv = ["obstruction", pr_path, "--context=a1,b1", "--section=a1=0,b1=0", "--ring", "z2", "--json"]
    assert tracing.replay_obstruction(tr, argv) is False
    assert ("cohomology.unknowns", 8, 0) in tr.counts


def test_replay_avn(tracing, pr_path):
    tr = tracing.Tracer()
    argv = ["avn", pr_path, "--ring", "z2", "--at=a1=0,b1=0", "--json"]
    assert tracing.replay_avn(tr, argv) is True
    assert ("theory.equations", 4, 0) in tr.counts
