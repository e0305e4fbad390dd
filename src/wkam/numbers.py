"""Numeric modes and extended-real values.

Every quantity in this package is an *extended value*: an exact rational
(:class:`fractions.Fraction`), a finite float, or ``+inf``.  ``+inf`` is the
absorbing element of min-plus arithmetic (``inf + r = inf``,
``min(inf, r) = r``); ``-inf`` is unrepresentable and any operation that
would produce it raises.

Two numeric modes exist.  Exact mode keeps every finite value a Fraction and
never rounds; it is the reference for all equality-based identities.  Float
mode compares with a relative-absolute hybrid tolerance and accepts an
optional *scale* so that accumulated sums (walks of length up to n) can widen
the absolute band.

``Mode`` decides one pair of values per call.  The solver decides whole rows
with ``Band``, which takes ``S = max(1, |scale|)`` and ``t = tol * S`` once
and gives ``Mode``'s answer for every entry with builtins alone (see
``Band`` for why each threshold is exactly ``Mode``'s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, isinf
from numbers import Real
from operator import eq, le, lt
from typing import Iterable, Sequence, Union

Value = Union[Fraction, float, int]

INF = math.inf


class InputError(ValueError):
    """Malformed instance data, file, or argument."""


class SizeGuardError(InputError):
    """Instance exceeds a brute-force oracle's size guard."""


class NonConvergenceError(RuntimeError):
    """An iteration hit a cap without settling.  Nothing in wkam raises it
    now; it stays exported because ``perfbench/workloads.py`` names it."""


class ConstructionError(RuntimeError):
    """A constructed object failed its own verification step."""


def is_inf(x: Value) -> bool:
    return isinstance(x, float) and math.isinf(x)


@dataclass(frozen=True)
class Mode:
    """Numeric mode: ``exact`` (rational) or ``float`` (tolerance eps).

    In float mode, with ``S = max(1, |scale|)``, two finite values a and b
    are within the band when ``|a - b| <= tol * max(S, |a|, |b|)``; ``le``
    and ``lt`` widen and narrow b by the same width, and ``is_zero(a)``
    reduces to ``|a| <= tol * S`` (see ``Band``).  When a or b is infinite
    (of either sign), ``eq`` holds iff both are, ``le`` iff b is, and
    ``lt`` iff a is not.
    """

    kind: str = "exact"
    tolerance: float = 1e-9
    # kind == "exact", stored once: hot loops read it on every call
    exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "float"):
            raise InputError(f"unknown mode {self.kind!r}")
        tol = self.tolerance
        real = isinstance(tol, Real) and not isinstance(tol, bool)
        # verify_all's row test needs tol < 1; from 2 up, le and eq hold for
        # every finite pair
        if self.kind == "float" and not (real and 0 < tol < 1):
            raise InputError("float mode needs a real tolerance in (0, 1)")
        object.__setattr__(self, "exact", self.kind == "exact")

    def coerce(self, x: Value) -> Value:
        """Bring a number into this mode's representation: +inf stays +inf
        and -inf raises."""
        if is_inf(x):
            if x < 0:
                raise InputError("-inf is not a value")
            return INF
        if self.exact:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            if isinstance(x, float):
                if math.isnan(x):
                    raise InputError("NaN is not a value")
                return Fraction(x)
            raise InputError(f"cannot use {type(x).__name__} in exact mode")
        try:
            xf = float(x)
        except OverflowError as exc:
            raise InputError("value beyond float range") from exc
        if math.isnan(xf):
            raise InputError("NaN is not a value")
        return xf

    def _band(self, a: Value, b: Value, scale: Value) -> float:
        return self.tolerance * max(1.0, abs(a), abs(b), abs(scale))

    def eq(self, a: Value, b: Value, scale: Value = 1) -> bool:
        if self.exact:
            return a == b
        if is_inf(a) or is_inf(b):
            return is_inf(a) and is_inf(b)
        return abs(a - b) <= self._band(a, b, scale)

    def le(self, a: Value, b: Value, scale: Value = 1) -> bool:
        if self.exact:
            return a <= b
        if is_inf(b):
            return True
        if is_inf(a):
            return False
        return a <= b + self._band(a, b, scale)

    def lt(self, a: Value, b: Value, scale: Value = 1) -> bool:
        """Strict comparison: in float mode, strictly below the band."""
        if self.exact:
            return a < b
        if is_inf(a):
            return False
        if is_inf(b):
            return True
        return a < b - self._band(a, b, scale)

    def is_zero(self, a: Value, scale: Value = 1) -> bool:
        if self.exact:
            return a == 0
        return not is_inf(a) and abs(a) <= self._band(a, 0, scale)


EXACT = Mode("exact")


class Band:
    """``Mode``'s tests over whole rows, one threshold per call.

    ``Band(mode, scale)`` takes ``S = max(1, |scale|)`` and ``t = tol * S``
    once, as ``floor`` and ``zero``.  ``zeros`` gives the indices of the
    entries that ``is_zero`` accepts; ``eq``, ``le`` and ``lt`` give
    ``Mode``'s answer for each pair of entries of two sequences, with
    builtins and no method call per entry.  In exact mode t is 0 and the
    tests are ``==``, ``<=`` and ``<``.

    Each answer is bit for bit ``Mode``'s, for 0 < tol < 1:

    * ``is_zero(a)`` is ``|a| <= t``.  When ``|a| <= S``, ``Mode``'s
      ``max(1, |a|, |scale|)`` is S.  When ``|a| > S``, both reject:
      t <= S < |a|, and as tol <= 1 - 2^-53, the exact ``tol * |a|`` is at
      most ``|a| - |a| * 2^-53``, which rounds to a float below ``|a|``.
    * ``eq``, ``le`` and ``lt`` take the width ``tol * max(S, |a|, |b|)``.
      ``max`` rounds nothing, so it is the number that ``Mode``'s
      ``max(1, |a|, |b|, |scale|)`` is and the product is the same float;
      when |a| and |b| are at most S, it is t.  As the width is positive
      and rounding is monotone, a == b and a <= b pass ``eq`` and ``le``,
      and a >= b fails ``lt``, with no width.
    * Two rows whose sums are not finite (an infinite entry, or an
      overflow) are decided entry by entry by ``Mode``'s rules for
      infinities.
    """

    __slots__ = ("exact", "tol", "floor", "zero")

    def __init__(self, mode: Mode, scale: Value) -> None:
        self.exact = mode.exact
        if self.exact:
            self.tol = self.floor = self.zero = 0
        else:
            self.tol = mode.tolerance
            self.floor = max(1.0, abs(scale))
            self.zero = self.tol * self.floor

    def zeros(self, row: Iterable[Value]) -> list[int]:
        """The indices of the entries within the band of 0."""
        t = self.zero
        return [i for i, a in enumerate(row) if -t <= a <= t]

    def eq(self, u: Sequence[Value], v: Sequence[Value]) -> list[bool]:
        """``Mode.eq(a, b, scale)`` for each pair of entries."""
        if self.exact:
            return list(map(eq, u, v))
        tol, S, t = self.tol, self.floor, self.zero
        if isfinite(sum(u) + sum(v)):
            return [
                a == b
                or (
                    -t <= a - b <= t
                    if -S <= a <= S and -S <= b <= S
                    else abs(a - b) <= tol * max(S, abs(a), abs(b))
                )
                for a, b in zip(u, v)
            ]
        return [
            isinf(a) and isinf(b)
            if isinf(a) or isinf(b)
            else abs(a - b) <= tol * max(S, abs(a), abs(b))
            for a, b in zip(u, v)
        ]

    def le(self, u: Sequence[Value], v: Sequence[Value]) -> list[bool]:
        """``Mode.le(a, b, scale)`` for each pair of entries."""
        if self.exact:
            return list(map(le, u, v))
        tol, S, t = self.tol, self.floor, self.zero
        if isfinite(sum(u) + sum(v)):
            return [
                a <= b
                or a <= b + (t if -S <= a <= S and -S <= b <= S else tol * max(S, abs(a), abs(b)))
                for a, b in zip(u, v)
            ]
        return [
            isinf(b) or not isinf(a) and a <= b + tol * max(S, abs(a), abs(b))
            for a, b in zip(u, v)
        ]

    def lt(self, u: Sequence[Value], v: Sequence[Value]) -> list[bool]:
        """``Mode.lt(a, b, scale)`` for each pair of entries."""
        if self.exact:
            return list(map(lt, u, v))
        tol, S, t = self.tol, self.floor, self.zero
        if isfinite(sum(u) + sum(v)):
            return [
                a < b
                and a < b - (t if -S <= a <= S and -S <= b <= S else tol * max(S, abs(a), abs(b)))
                for a, b in zip(u, v)
            ]
        return [
            not isinf(a) and (isinf(b) or a < b - tol * max(S, abs(a), abs(b)))
            for a, b in zip(u, v)
        ]


def parse_value(text: object, mode: Mode) -> Value:
    """Parse a JSON-level cost entry: number, "p/q" string, or "inf"."""
    if isinstance(text, str):
        s = text.strip().replace("−", "-")  # unicode minus
        if s.lower() in ("inf", "+inf", "infinity"):
            return INF
        try:
            f = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad numeric string {text!r}") from exc
        return mode.coerce(f)
    if isinstance(text, bool) or not isinstance(text, (int, float)):
        raise InputError(f"bad numeric entry {text!r}")
    if isinstance(text, float) and math.isnan(text):
        raise InputError("NaN entry rejected")
    if isinstance(text, float) and math.isinf(text):
        raise InputError('non-finite number rejected (a missing edge is the string "inf")')
    return mode.coerce(text)


def format_value(x: Value) -> object:
    """JSON-ready form: ints stay ints, rationals become "p/q", inf "inf"."""
    if is_inf(x):
        return "inf"
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return x
    return float(x)


def value_str(x: Value) -> str:
    """Plain-text form used by the CLI and CSV output."""
    return formatted_str(format_value(x))


def formatted_str(v: object) -> str:
    """The plain text of a ``format_value`` result."""
    return v if isinstance(v, str) else repr(v)
