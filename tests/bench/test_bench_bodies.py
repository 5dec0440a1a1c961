"""Each substrate micro-bench body runs once and returns what
``benchmarks/run_all.py`` expects of it: a body that breaks fails here,
not only when the perf-regression gate refuses to time it."""

import pytest

from benchmarks.run_all import BENCHES


@pytest.mark.parametrize("fn, expected",
                         [(b[1], b[2]) for b in BENCHES],
                         ids=[b[0] for b in BENCHES])
def test_body_returns_the_expected_value(fn, expected):
    assert fn() == expected
