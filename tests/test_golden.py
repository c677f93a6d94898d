"""Every command of `golden.py` prints what it printed when `golden.json`
was written: the same exit code, stdout and stderr, timings aside."""

import json

from golden import GOLDEN, digests


def test_outputs_match_the_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = digests()
    differing = sorted(k for k in expected.keys() & found.keys() if expected[k] != found[k])
    missing = sorted(expected.keys() - found.keys())
    extra = sorted(found.keys() - expected.keys())
    assert (differing, missing, extra) == ([], [], [])
