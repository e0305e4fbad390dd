"""Instance generators, JSON serialization, and metric-space validators.

File format: a JSON object ``{n, labels?, mode, tolerance?, cost, metric?}``
where cost/metric entries are numbers or rational strings ("p/q"); "inf"
marks a missing edge in graph mode.  Exact-mode round trips are byte-stable.

The metric validators implement the coarse length-space machinery: a metric
space is a B-length space at scale K when every pair is joined by a chain of
steps of length at most K whose total length is at most B times the
distance; such a chain can always be thinned to at most 2*B*d/K + 1 steps.
So no hop cap is needed to decide it: one Floyd closure q of the step graph
(the pairs within distance K, weighted by distance, on the metric's integer
grid) gives every pair's least chain length, a pair passes iff
q(x, y) <= B*d(x, y), and a least path, thinned, is its witness chain.
Dominated functions on such spaces are Lipschitz in the large,
``|u(x)-u(y)| <= k d(x,y) + b`` with

    ``k = 2 (A(K) + alpha) B / K,    b = A(K) + alpha``,

where A(R) bounds the cost over pairs within distance R and C(k) is the
super-linearity defect ``max(k d - c)``.  The same constants bound how far a
backward-update argmin can sit from its target:
``d(x, argmin) <= (A(r) + 2 k r + C(2k) + b) / k`` for targets within r of a
base point (r = 0 for the pointwise check).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import add
from pathlib import Path
from random import Random
from typing import NamedTuple, Optional, Sequence

from .core import (
    CostInstance,
    PotentialTable,
    ValueFunction,
    _default_labels,
    _freeze,
    _instance,
    _table,
    check_function,
    check_metric,
    from_grid,
    grid_scale,
    grid_table,
    kleene_plus,
    make_instance,
    ratio,
    to_grid,
)
from .numbers import (
    EXACT,
    INF,
    InputError,
    Mode,
    Value,
    format_value,
    is_inf,
    parse_value,
)

RANDOM_DENOMINATOR = 4  # exact-mode random entries are quarters: fast gcds


def gen_constant(n: int, k: Value, mode: Mode = EXACT) -> CostInstance:
    """Instance with every cost equal to k."""
    if n < 1:
        raise InputError("need n >= 1")
    kk = mode.coerce(k)
    D = grid_scale((kk,))
    row = to_grid((kk,), D) * n
    return _instance(PotentialTable((row,) * n, D, mode))


def gen_random(
    n: int, seed: int, lo: Value, hi: Value, mode: Mode = EXACT
) -> CostInstance:
    """Seed-deterministic random instance with entries in [lo, hi].

    Exact mode draws rationals on the 1/4 grid so that downstream exact
    arithmetic stays cheap; float mode draws uniform doubles, put on their
    dyadic grid when the instance is first solved.
    """
    if n < 1:
        raise InputError("need n >= 1")
    lo, hi = mode.coerce(lo), mode.coerce(hi)
    if not lo <= hi:
        raise InputError("need lo <= hi")
    if is_inf(hi) or is_inf(hi - lo):
        raise InputError("range [lo, hi] must be finite and within the float range")
    rng = Random(seed)
    if not mode.exact:
        # rng.uniform(lo, hi) written out: the same doubles, with no call
        # each; they are finite, so the instance is total
        rnd, width = rng.random, hi - lo
        cost = [[lo + width * rnd() for _ in range(n)] for _ in range(n)]
        return CostInstance(n, _default_labels(n), PotentialTable.of_doubles(cost, mode), mode)
    q = RANDOM_DENOMINATOR
    a = math.ceil(lo * q)
    b = math.floor(hi * q)
    if a > b:
        raise InputError("range [lo, hi] contains no representable entry")
    draws = [[rng.randint(a, b) for _ in range(n)] for _ in range(n)]
    return _instance(_least_grid(mode, draws, q))


def _least_grid(mode: Mode, rows: list[list], D: int = 1) -> PotentialTable:
    """The matrix rows / D, for integer rows, as a table on its least grid."""
    g = math.gcd(D, *chain.from_iterable(rows))
    if g == 1:
        return PotentialTable(_freeze(rows), D, mode)
    return PotentialTable(tuple(tuple(v // g for v in row) for row in rows), D // g, mode)


def circle_metric(m: int) -> list[list[int]]:
    """Arc-step distance on m equispaced circle points (one step = 1)."""
    return _rotations(_circle_row(m))


def _circle_row(m: int) -> list[int]:
    """Row 0 of the circle metric: d(0, k) = min(k, m - k)."""
    return [min(k, m - k) for k in range(m)]


def _rotations(row: list) -> list[list]:
    """The circulant matrix of ``row``: row i is ``row`` turned right by
    i, so entry (i, j) is row[(j - i) mod m]."""
    return [row[-i:] + row[:-i] for i in range(len(row))]


def gen_fk(
    m: int,
    lam: Value,
    potential: Sequence[Value],
    mode: Mode = EXACT,
) -> CostInstance:
    """Discrete one-step model on a circle grid.

    Cost c(x, y) = lam * d(x, y)^2 + V(y) with d the arc-step circle
    distance.  V must be nonnegative with minimum zero, so the critical
    constant is zero and the zero set of V meets the Aubry set.  It
    computes lam * D * d^2 + V * D in integers on D, the least common
    denominator of lam and V; float mode takes the doubles of lam and V and
    rounds each cost once, so that the instance holds doubles.
    """
    if m < 1:
        raise InputError("need m >= 1")
    lam = mode.coerce(lam)
    if is_inf(lam) or lam < 0:
        raise InputError("coupling must be finite and >= 0")
    if len(potential) != m:
        raise InputError(f"potential needs {m} values")
    V = [mode.coerce(v) for v in potential]
    if any(is_inf(v) or v < 0 for v in V):
        raise InputError("potential values must be finite and >= 0")
    if min(V) != 0:
        raise InputError("potential must attain 0")
    base = _circle_row(m)
    D = grid_scale((lam, *V))
    (lg,) = to_grid((lam,), D)
    vg = to_grid(V, D)
    rows = [list(map(add, row, vg)) for row in _rotations([lg * k * k for k in base])]
    cost = _least_grid(mode, rows, D)
    if not mode.exact:
        cost = grid_table(mode, cost.entries)
    return _instance(cost, [str(i) for i in range(m)], _least_grid(mode, _rotations(base)))


def fk_potential_well(m: int, center: int = 0) -> list[Value]:
    """Single-well potential: squared circle distance to the center point."""
    c = range(m)[center]  # the metric's row index: IndexError outside it
    base = _circle_row(m)
    return [Fraction(k * k) for k in base[-c:] + base[:-c]]


# ---------------------------------------------------------------------------
# length-space checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LengthSpaceReport:
    B: Value
    K: Value
    ok: bool
    witness_chains: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    max_chain_length_bound: int = 0
    failures: tuple[tuple[int, int], ...] = ()


def check_length_space(
    metric: Sequence[Sequence[Value]],
    B: Value,
    K: Value,
    mode: Mode = EXACT,
) -> LengthSpaceReport:
    """Decide, pair by pair, whether chains certify the (B, K) length bound.

    One Kleene plus q of the step graph decides every pair (see the module
    docstring).  The thinning bound needs the triangle inequality, so the
    matrix is checked to be a metric first.  A witness chain walks a least
    path to its target and is thinned as it goes.
    """
    n = len(metric)
    if n < 1 or any(len(r) != n for r in metric):
        raise InputError("metric matrix is not square")
    B, K = mode.coerce(B), mode.coerce(K)
    if is_inf(B) or B < 1 or K <= 0:
        raise InputError("need a finite B >= 1 and K > 0")
    t = _table(mode, metric)
    check_metric(t.grid, mode, t.scale)
    d = t.grid
    (pb, qb), (pk, qk) = ratio(B), ratio(K)
    kg = pk * t.scale  # d <= K iff d * scale * qk <= kg
    step = tuple(tuple(v if v * qk <= kg else INF for v in row) for row in d)
    q = kleene_plus(step)
    bound = math.floor(2 * B * from_grid(mode, (max(map(max, d)),), t.scale)[0] / K + 1)
    # hop[y][x], the next point after x on a least path to y.  Points settle
    # in the order of q(x, y) (q is symmetric: q[y][x]), each on the least z
    # of least step(x, z) + q(z, y) among settled points a step away, so no
    # walk loops.  Exactly, every z with q(z, y) < q(x, y) settles first and
    # that least is q(x, y).  A step of length 0 can leave a point with no
    # settled neighbour yet: it goes to the back of the line, which moves
    # on, as steps join every point of finite q(x, y) to y.
    steps = [[(z, s) for z, s in enumerate(row) if s != INF] for row in step]
    hop = []
    for y, qy in enumerate(q):
        hy = [None] * n
        hy[y] = y
        todo = sorted((x for x, v in enumerate(qy) if v != INF and x != y), key=qy.__getitem__)
        for x in todo:
            near = [(s + qy[z], z) for z, s in steps[x] if hy[z] is not None]
            if near:
                hy[x] = min(near)[1]
            else:
                todo.append(x)
        hop.append(hy)
    chains: dict[tuple[int, int], tuple[int, ...]] = {}
    failures = []
    for x, (qrow, drow) in enumerate(zip(q, d)):
        for y, (qv, dv) in enumerate(zip(qrow, drow)):
            if mode.le(qb * qv, pb * dv, qb * t.scale):
                # walk the least path to y, thinned as it goes: a point
                # is dropped while its neighbours lie within K
                out, cur, hy = [x], x, hop[y]
                while cur != y:
                    z = hy[cur]
                    if cur != x and d[out[-1]][z] * qk > kg:
                        out.append(cur)
                    cur = z
                chains[(x, y)] = tuple(out) if x == y else (*out, y)
            else:
                failures.append((x, y))
    return LengthSpaceReport(B, K, not failures, chains, bound, tuple(failures))


# ---------------------------------------------------------------------------
# growth constants and Lipschitz-in-the-large checks
# ---------------------------------------------------------------------------

def growth_C(inst: CostInstance, k: Value) -> Value:
    """Tight super-linearity defect: C(k) = max over pairs of k*d - c."""
    _need_metric(inst)
    mode = inst.mode
    p, q = ratio(mode.coerce(k))
    t, d = inst.cost_grid, inst.metric_grid
    E = math.lcm(t.scale, d.scale)
    pairs = zip(chain.from_iterable(t.at(E)), chain.from_iterable(d.at(E)))
    top = max(p * dv - q * cv for cv, dv in pairs if not is_inf(cv))
    return from_grid(mode, (top,), q * E)[0]


def growth_A(inst: CostInstance, R: Value) -> Value:
    """Tight uniform bound: A(R) = max cost over pairs within distance R."""
    _need_metric(inst)
    mode = inst.mode
    p, q = ratio(mode.coerce(R))
    t, d = inst.cost_grid, inst.metric_grid
    pairs = zip(chain.from_iterable(t.grid), chain.from_iterable(d.grid))
    vals = [cv for cv, dv in pairs if dv * q <= p * d.scale and not is_inf(cv)]
    if not vals:
        raise InputError(f"no pair within distance {R}")
    return from_grid(mode, (max(vals),), t.scale)[0]


class LipschitzResult(NamedTuple):
    ok: bool
    witness: Optional[tuple[int, int]]


def lipschitz_large_check(
    inst: CostInstance, u: ValueFunction, k: Value, b: Value
) -> LipschitzResult:
    """Check |u(x) - u(y)| <= k*d(x,y) + b over all pairs, on one grid E,
    in float mode within ``Mode.le``'s band."""
    _need_metric(inst)
    check_function(inst, u)
    mode = inst.mode
    k, b = mode.coerce(k), mode.coerce(b)
    d = inst.metric_grid
    E = grid_scale((b,), math.lcm(u.grid_in(mode)[1], d.scale * grid_scale((k,))))
    (kk,), (bb,) = to_grid((k,), E // d.scale), to_grid((b,), E)
    g = u.at(mode, E)
    scale = inst.value_scale() * E
    for x, drow in enumerate(d.grid):
        for y, dv in enumerate(drow):
            if not mode.le(abs(g[x] - g[y]), kk * dv + bb, scale=scale):
                return LipschitzResult(False, (x, y))
    return LipschitzResult(True, None)


def lipschitz_constants(
    inst: CostInstance, alpha: Value, B: Value, K: Value
) -> tuple[Value, Value]:
    """Constants making every alpha-dominated function Lipschitz in the
    large on a B-length space at scale K: (2(A(K)+alpha)B/K, A(K)+alpha)."""
    aK = growth_A(inst, K)
    b = aK + alpha
    k = 2 * b * B / K
    return inst.mode.coerce(k), inst.mode.coerce(b)


def apriori_radius(
    inst: CostInstance, alpha: Value, B: Value, K: Value, r: Value = 0
) -> Optional[Value]:
    """Radius bound for backward-update argmins, or None when the slope
    constant degenerates to zero (all dominated functions are constant)."""
    k, b = lipschitz_constants(inst, alpha, B, K)
    if k == 0:
        return None
    return (growth_A(inst, r) + 2 * k * r + growth_C(inst, 2 * k) + b) / k


class AprioriResult(NamedTuple):
    ok: bool
    radius: Optional[Value]
    witness: Optional[tuple[int, int]]


def check_apriori(
    inst: CostInstance, u: ValueFunction, alpha: Value, B: Value, K: Value
) -> AprioriResult:
    """Every point's backward-update argmin sits within the a-priori radius."""
    _need_metric(inst)
    check_function(inst, u)
    R = apriori_radius(inst, alpha, B, K)
    if R is None:
        return AprioriResult(True, None, None)
    mode = inst.mode
    p, q = ratio(R)
    t, d = inst.cost_grid, inst.metric_grid
    E = math.lcm(t.scale, u.grid_in(mode)[1])
    vals = u.at(mode, E)
    for x, col in enumerate(zip(*t.at(E))):
        ys = (y for y in range(inst.n) if not is_inf(col[y]))
        arg = min(ys, key=lambda y: vals[y] + col[y], default=None)
        if arg is not None and d.grid[x][arg] * q > p * d.scale:
            return AprioriResult(False, R, (x, arg))
    return AprioriResult(True, R, None)


def _need_metric(inst: CostInstance) -> None:
    if inst.metric_grid is None:
        raise InputError("instance carries no metric")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def instance_to_dict(inst: CostInstance) -> dict:
    doc: dict = {
        "n": inst.n,
        "labels": list(inst.labels),
        "mode": inst.mode.kind,
    }
    if not inst.mode.exact:
        doc["tolerance"] = inst.mode.tolerance
    doc["cost"] = [[format_value(v) for v in row] for row in inst.cost]
    if inst.metric is not None:
        doc["metric"] = [[format_value(v) for v in row] for row in inst.metric]
    return doc


def instance_from_dict(doc: dict) -> CostInstance:
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    try:
        kind = doc.get("mode", "exact")
        tol = doc.get("tolerance", 1e-9)
        mode = Mode(kind, tol) if kind == "float" else Mode(kind)
        cost_doc = doc["cost"]
    except KeyError as exc:
        raise InputError(f"missing field {exc}") from exc
    if not isinstance(cost_doc, list) or not cost_doc:
        raise InputError("cost must be a nonempty matrix")
    n = doc.get("n", len(cost_doc))
    if n != len(cost_doc) or any(
        not isinstance(r, list) or len(r) != n for r in cost_doc
    ):
        raise InputError("cost matrix is not n x n")
    cost = [[parse_value(v, mode) for v in row] for row in cost_doc]
    metric_doc = doc.get("metric")
    metric = None
    if metric_doc is not None:
        if not isinstance(metric_doc, list) or not all(isinstance(r, list) for r in metric_doc):
            raise InputError("metric must be a matrix")
        metric = [[parse_value(v, mode) for v in row] for row in metric_doc]
        if any(is_inf(v) for row in metric for v in row):
            raise InputError("metric entries must be finite")
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(s, str) for s in labels)
    ):
        raise InputError("labels must be a list of strings")
    return make_instance(cost, labels=labels, mode=mode, metric=metric)


def dumps(inst: CostInstance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2) + "\n"


def loads(text: str) -> CostInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    return instance_from_dict(doc)


def save(inst: CostInstance, path: str | Path) -> None:
    Path(path).write_text(dumps(inst), encoding="utf-8")


def load(path: str | Path) -> CostInstance:
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such instance file: {p}")
    return loads(p.read_text(encoding="utf-8"))
