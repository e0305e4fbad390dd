"""check_length_space against the hop-capped DP, its witness chains, its
metric checks and its speed."""

import math
import time
from fractions import Fraction as F
from random import Random

import pytest
from length_space_reference import reference_length_space

from wkam import InputError, check_length_space
from wkam.models import circle_metric
from wkam.numbers import EXACT, INF, Mode

MODES = [EXACT, Mode("float", 1e-9)]
BS = (1, F(3, 2), 2)
KS = (F(1, 2), 1, 2, 3)


def _graph_metric(n, rng):
    """Shortest-path metric of a random connected graph with weights on the
    quarter grid, so that float mode holds the same values."""
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or rng.random() < 0.4:
                d[i][j] = d[j][i] = F(rng.randint(1, 12), rng.choice((1, 2, 4)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def _line_metric(points):
    return [[abs(a - b) for b in points] for a in points]


def _corpus():
    rng = Random(20)
    yield from (circle_metric(m) for m in range(1, 17))
    yield from (_graph_metric(rng.randint(2, 9), rng) for _ in range(24))
    for _ in range(8):
        points = {F(rng.randint(0, 24), rng.choice((1, 2, 4))) for _ in range(rng.randint(2, 8))}
        yield _line_metric(sorted(points))
    # a pseudometric: points 0 and 1 are distinct at distance 0
    yield [[0, 0, 1, 2], [0, 0, 1, 2], [1, 1, 0, 1], [2, 2, 1, 0]]
    yield [[0, 1, 1, 2], [1, 0, 0, 1], [1, 0, 0, 1], [2, 1, 1, 0]]


CORPUS = list(_corpus())


def _assert_chains_valid(rep, metric, mode):
    d = [[mode.coerce(v) for v in row] for row in metric]
    B, K = rep.B, rep.K
    assert len(rep.witness_chains) + len(rep.failures) == len(d) ** 2
    for (x, y), chain in rep.witness_chains.items():
        steps = list(zip(chain, chain[1:]))
        assert chain[0] == x and chain[-1] == y
        assert all(a != b for a, b in steps)
        assert all(d[a][b] <= K for a, b in steps)
        assert mode.le(sum(d[a][b] for a, b in steps), B * d[x][y])
        assert len(steps) <= math.floor(2 * B * d[x][y] / K) + 1


@pytest.mark.parametrize("mode", MODES, ids=["exact", "float"])
def test_verdict_equals_hop_capped_dp_and_chains_are_valid(mode):
    for metric in CORPUS:
        for B in BS:
            for K in KS:
                rep = check_length_space(metric, B, K, mode)
                got = (rep.ok, rep.failures, rep.max_chain_length_bound, rep.B, rep.K)
                assert got == reference_length_space(metric, B, K, mode), (metric, B, K)
                _assert_chains_valid(rep, metric, mode)


def test_zero_distance_twins_take_one_step():
    d = [[0, 0, 1, 2], [0, 0, 1, 2], [1, 1, 0, 1], [2, 2, 1, 0]]
    rep = check_length_space(d, 1, 1)
    assert rep.ok
    assert rep.witness_chains[(0, 1)] == (0, 1)
    assert rep.witness_chains[(0, 0)] == (0,)
    assert rep.witness_chains[(3, 0)] == (3, 2, 0)


def test_float_walk_survives_a_swallowed_step():
    # point 0 sits 2^-52 from point 1, and 1..5 are unit steps apart on a
    # line; in float sums the short step vanishes (q(0, 5) = q(1, 5) = 4.0),
    # so point 0 has no neighbour strictly nearer to 5 and must wait for 1
    eps = 2.0**-52
    d = [[float(abs(i - j)) for j in range(6)] for i in range(6)]
    for j in range(1, 6):
        d[0][j] = d[j][0] = eps if j == 1 else (j - 1) + eps
    mode = Mode("float", 1e-9)
    rep = check_length_space(d, 1, 1, mode)
    got = (rep.ok, rep.failures, rep.max_chain_length_bound, rep.B, rep.K)
    assert got == reference_length_space(d, 1, 1, mode)
    assert rep.witness_chains[(0, 5)] == (0, 1, 2, 3, 4, 5)
    assert rep.witness_chains[(5, 0)] == (5, 4, 3, 2, 1, 0)
    _assert_chains_valid(rep, d, mode)


def test_chains_are_thinned():
    # on a line at K = 2 the least path 0, 1, 2, 3, 4 thins to 0, 2, 4
    rep = check_length_space(_line_metric(range(5)), 1, 2)
    assert rep.witness_chains[(0, 4)] == (0, 2, 4)
    assert rep.witness_chains[(4, 0)] == (4, 2, 0)
    assert rep.witness_chains[(0, 3)] == (0, 2, 3)


@pytest.mark.parametrize(
    "metric, match",
    [
        ([[0, 1], [2, 0]], "symmetric"),
        ([[1, 1], [1, 0]], "diagonal"),
        ([[0, -1], [-1, 0]], "finite >= 0"),
        ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], "triangle"),
        ([[0, INF], [INF, 0]], "finite >= 0"),
    ],
    ids=["asymmetric", "diagonal", "negative", "triangle", "inf"],
)
def test_non_metric_is_rejected(metric, match):
    with pytest.raises(InputError, match=match):
        check_length_space(metric, 1, 1)


def test_bad_scale_arguments():
    for B, K in [(F(1, 2), 1), (1, 0), (1, -1), (INF, 1)]:
        with pytest.raises(InputError, match="B >= 1 and K > 0"):
            check_length_space([[0, 1], [1, 0]], B, K)


def test_circle_at_m_128_is_fast():
    m = 128
    start = time.perf_counter()
    rep = check_length_space(circle_metric(m), 1, 1)
    assert time.perf_counter() - start < 5
    assert rep.ok and rep.max_chain_length_bound == m + 1
    assert rep.witness_chains[(0, m // 2)] == tuple(range(m // 2 + 1))
    assert rep.witness_chains[(m // 2, 0)] == tuple(range(m // 2, -1, -1))
    assert rep.witness_chains[(0, m - 1)] == (0, m - 1)


def test_circle_at_m_64_takes_well_under_a_second():
    start = time.perf_counter()
    assert check_length_space(circle_metric(64), 1, 1).ok
    assert time.perf_counter() - start < 1
