"""Numeric modes and extended-real values.

Every quantity in this package is an *extended value*: an exact rational
(:class:`fractions.Fraction`), a finite float, or ``+inf``.  ``+inf`` is the
absorbing element of min-plus arithmetic (``inf + r = inf``,
``min(inf, r) = r``); ``-inf`` is unrepresentable and any operation that
would produce it raises.

Two numeric modes exist, and the solver computes exactly in both.  Exact
mode reads every input as a Fraction and prints rationals.  Float mode
means doubles in, exact in between, each output rounded once: ``coerce``
rounds each input to a double, whose exact (dyadic) value the solver then
uses on the integer grid of ``core``, and ``core.from_grid`` rounds each
value it reads off that grid to the nearest double.  The mode's tolerance
governs only ``Mode.le``, the banded order of the metric checks of
``models`` (the triangle inequality, the length-space bound and
Lipschitz-in-the-large).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real
from typing import Union

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

    In float mode, with ``S = max(1, |scale|)``, ``le(a, b)`` holds when
    ``a <= b + tol * max(S, |a|, |b|)``; an infinite b passes and an
    infinite a below a finite b fails.
    """

    kind: str = "exact"
    tolerance: float = 1e-9
    # kind == "exact", stored once: from_grid and coerce read it per call
    exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "float"):
            raise InputError(f"unknown mode {self.kind!r}")
        tol = self.tolerance
        real = isinstance(tol, Real) and not isinstance(tol, bool)
        # from 2 up, le holds for every finite pair
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

    def le(self, a: Value, b: Value, scale: Value = 1) -> bool:
        if self.exact:
            return a <= b
        if is_inf(b):
            return True
        if is_inf(a):
            return False
        return a <= b + self._band(a, b, scale)


EXACT = Mode("exact")


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
