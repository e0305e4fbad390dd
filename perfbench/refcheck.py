"""Reference checker for wkam solver outputs.

It imports nothing from wkam.  From the cost matrix ``c`` and the solver's
critical constant ``alpha0`` it recomputes

* ``phi_1``, the least reduced weight of a walk with at least one edge, as
  the Kleene plus of ``r = c + alpha0`` by Floyd-Warshall; the Mane potential
  is the Kleene star (``phi_1`` with a zero diagonal);
* the Peierls barrier by the critical-graph closed form
  ``h(x,y) = min over a with phi_1(a,a) = 0 of phi_1(x,a) + phi_1(a,y)``;
* the Aubry vertices (zero diagonal of ``h``) and the Aubry edges
  (``c(x,y) + alpha0 + h(y,x) = 0``),

following Butkovic, *Max-linear Systems* (2010).  ``alpha0`` itself is
certified: ``r`` has no negative cycle and some zero cycle (the diagonal of
``phi_1``), the solver's witness cycle has mean ``-alpha0`` and its strict
sub-solution ``u1`` is dominated at ``alpha0``.

Exact inputs are compared exactly.  Float inputs are compared within the
float mode's band ``tol * max(1, |a|, |b|, n * max(1, max|c|))``.  Every
check returns a list of mismatch descriptions; an empty list means the
output agrees with the reference.
"""

from __future__ import annotations

from fractions import Fraction


class Band:
    """Equality and order, exact when ``tol`` is None, else banded."""

    def __init__(self, tol, scale):
        self.tol = tol
        self.scale = scale

    def _width(self, a, b):
        return self.tol * max(1.0, abs(a), abs(b), self.scale)

    def eq(self, a, b):
        if self.tol is None:
            return a == b
        return abs(a - b) <= self._width(a, b)

    def le(self, a, b):
        if self.tol is None:
            return a <= b
        return a <= b + self._width(a, b)

    def lt(self, a, b):
        if self.tol is None:
            return a < b
        return a < b - self._width(a, b)

    def zero(self, a):
        return self.eq(a, 0)


def kleene_plus(r):
    """Floyd-Warshall closure: least weight over walks with >= 1 edge."""
    d = [list(row) for row in r]
    n = len(d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            di = d[i]
            dik = di[k]
            for j in range(n):
                v = dik + dk[j]
                if v < di[j]:
                    di[j] = v
    return d


class Reference:
    """Reference objects for one instance at a candidate critical constant."""

    def __init__(self, cost, alpha0, tol=None):
        n = len(cost)
        self.n = n
        self.cost = cost
        self.alpha0 = alpha0
        top = max(abs(v) for row in cost for v in row)
        self.band = Band(tol, n * max(top, 1))
        zero = 0 if tol is None else 0.0
        self.phi1 = kleene_plus([[v + alpha0 for v in row] for row in cost])
        p = self.phi1
        self.star = [
            [min(zero, p[x][y]) if x == y else p[x][y] for y in range(n)]
            for x in range(n)
        ]
        self.aubry = [a for a in range(n) if self.band.zero(p[a][a])]
        if self.aubry:
            self.h = [
                [min(p[x][a] + p[a][y] for a in self.aubry) for y in range(n)]
                for x in range(n)
            ]
        else:
            self.h = None
        self.vertices = (
            [x for x in range(n) if self.band.zero(self.h[x][x])] if self.h else []
        )
        self.edges = (
            {
                (x, y)
                for x in range(n)
                for y in range(n)
                if self.band.zero(cost[x][y] + alpha0 + self.h[y][x])
            }
            if self.h
            else set()
        )

    # -- certificate ------------------------------------------------------

    def check_alpha0(self):
        """alpha0 is the critical value: c + alpha0 has a zero cycle and no
        negative one (diagonal of the Kleene plus)."""
        diag = [self.phi1[a][a] for a in range(self.n)]
        bad = [a for a, v in enumerate(diag) if not self.band.le(0, v)]
        errs = []
        if bad:
            errs.append(f"alpha0 below the critical value: negative cycle through {bad[0]}")
        if not self.aubry:
            errs.append("alpha0 above the critical value: no zero-reduced cycle")
        return errs

    def check_witness(self, cycle):
        if not cycle:
            return ["empty witness cycle"]
        total = sum(
            self.cost[a][b] for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]])
        )
        length = len(cycle)
        mean = Fraction(total) / length if self.band.tol is None else total / length
        if not self.band.eq(mean, -self.alpha0):
            return [f"witness cycle mean {mean} != -alpha0 {-self.alpha0}"]
        return []

    def check_dominated(self, u, what="u1"):
        for x in range(self.n):
            for y in range(self.n):
                if not self.band.le(u[y] - u[x], self.cost[x][y] + self.alpha0):
                    return [f"{what} not dominated at alpha0 on pair ({x},{y})"]
        return []

    def check_certificate(self, cycle, u1):
        return self.check_alpha0() + self.check_witness(cycle) + self.check_dominated(u1)

    # -- matrices and vectors --------------------------------------------

    def _matrix(self, what, got, want):
        if want is None:
            return [f"{what}: no reference (alpha0 not certified)"]
        if len(got) != self.n or any(len(row) != self.n for row in got):
            return [f"{what}: shape is not {self.n} x {self.n}"]
        for x in range(self.n):
            for y in range(self.n):
                if not self.band.eq(got[x][y], want[x][y]):
                    return [f"{what}({x},{y}) = {got[x][y]}, reference {want[x][y]}"]
        return []

    def _vector(self, what, got, want):
        if len(got) != self.n:
            return [f"{what}: length is not {self.n}"]
        for x in range(self.n):
            if not self.band.eq(got[x], want[x]):
                return [f"{what}({x}) = {got[x]}, reference {want[x]}"]
        return []

    def check_reduced(self, reduced):
        want = [[v + self.alpha0 for v in row] for row in self.cost]
        return self._matrix("reduced", reduced, want)

    def check_phi(self, phi):
        return self._matrix("phi", phi, self.star)

    def check_phi1(self, phi1):
        return self._matrix("phi_1", phi1, self.phi1)

    def check_h(self, h):
        return self._matrix("h", h, self.h)

    def check_F(self, F):
        """F(x) = min_z phi(x,z) + c(z,x) + alpha0."""
        s, c, a0, rng = self.star, self.cost, self.alpha0, range(self.n)
        want = [min(s[x][z] + c[z][x] for z in rng) + a0 for x in rng]
        return self._vector("F", F, want)

    def check_f(self, f):
        """f(x) = max_y -phi(y,x) - c(x,y) - alpha0."""
        s, c, a0, rng = self.star, self.cost, self.alpha0, range(self.n)
        want = [max(-s[y][x] - c[x][y] for y in rng) - a0 for x in rng]
        return self._vector("f", f, want)

    def check_vertices(self, vertices):
        if sorted(vertices) != self.vertices:
            return [f"Aubry vertices {sorted(vertices)}, reference {self.vertices}"]
        return []

    def check_edges(self, edges):
        got = {tuple(e) for e in edges}
        if got != self.edges:
            diff = sorted(got ^ self.edges)
            return [f"Aubry edges differ from the reference at {diff[:3]}"]
        return []

    def check_strict(self, u1, pairs=None):
        """Strict pairs of u1 are exactly the complement of the Aubry edges;
        when the solver also lists its strict pairs, they must match too."""
        rng = range(self.n)
        strict = {
            (x, y)
            for x in rng
            for y in rng
            if self.band.lt(u1[y] - u1[x], self.cost[x][y] + self.alpha0)
        }
        want = {(x, y) for x in rng for y in rng} - self.edges
        errs = []
        if strict != want:
            diff = sorted(strict ^ want)
            errs.append(f"strict pairs of u1 are not the Aubry-edge complement at {diff[:3]}")
        if pairs is not None and {tuple(p) for p in pairs} != strict:
            errs.append("listed strict pairs differ from the strict pairs of u1")
        return errs

    def check_mix(self, mix):
        """u_star = average over x of the potential row x shifted to vanish at 0."""
        n, s = self.n, self.star
        if self.band.tol is None:
            want = [sum(Fraction(s[x][i] - s[x][0]) for x in range(n)) / n for i in range(n)]
        else:
            want = [sum(s[x][i] - s[x][0] for x in range(n)) / n for i in range(n)]
        return self._vector("u_star", mix, want)


def negative_control(ref, h):
    """Raise if the checker fails to flag ``h`` with one entry changed."""
    bad = [list(row) for row in h]
    bad[0][ref.n - 1] = bad[0][ref.n - 1] + 1
    if not ref.check_h(bad):
        raise AssertionError("reference checker missed a corrupted barrier entry")
