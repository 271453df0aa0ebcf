"""Exact arithmetic in the algebraic Mukai lattice of a Picard-rank-1 K3 surface.

The surface enters every formula only through the self-intersection number
h^2 of its ample generator h, and a Mukai vector is the integer triple
(r, m, s) standing for (r, m*h, s).  All arithmetic is arbitrary-precision
integer or exact rational; nothing in this package touches floating point.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Immutable record whose fields are its constructor's parameters, in order.

    Each subclass's __init__ stores every field with one _set call, the
    only place that writes a field.  __init_subclass__ lists in _ints the
    fields whose __init__ parameter is annotated int (not `int | None`);
    _set refuses anything but an int there, a bool or a float included,
    with require_int's ValueError naming the class and the field.  Checks
    that relate a value to others or to a range stay in __init__.
    Instances compare equal only to instances of the same class with equal
    fields, hash as the tuple of their fields, print as
    `Name(field=value, ...)` and refuse assignment and deletion.
    """

    _fields: tuple[str, ...] = ()
    _ints: tuple[tuple[int, str], ...] = ()  # (position, label) of each int field

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._key = attrgetter(*cls._fields)
        annotations = cls.__init__.__annotations__
        cls._ints = tuple(
            (position, f"{cls.__qualname__} field {name}")
            for position, name in enumerate(cls._fields)
            if annotations.get(name) in ("int", int)
        )

    def _set(self, *values: object) -> None:
        """Check the _ints fields, then store values as the fields, in the
        order of _fields."""
        for position, what in self._ints:
            require_int(values[position], what)
        self.__dict__.update(zip(self._fields, values))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self._fields))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class K3Surface(Value):
    """A K3 surface X with NS(X) = Z*h, carried by the even integer h^2 >= 2."""

    def __init__(self, h_squared: int) -> None:
        self._set(h_squared)
        if h_squared < 2 or h_squared % 2 != 0:
            raise ValueError(
                f"h_squared must be a positive even integer, got {h_squared}"
            )


class MukaiVector(Value):
    """Integer triple (r, m, s) for the Mukai vector (r, m*h, s).

    Components are unconstrained so that sums, differences and duals stay
    inside the type; rank positivity is enforced by the operations that
    actually need a sheaf behind the vector.
    """

    def __init__(self, r: int, m: int, s: int) -> None:
        self._set(r, m, s)

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        if other.__class__ is not self.__class__:
            return NotImplemented
        return MukaiVector(self.r + other.r, self.m + other.m, self.s + other.s)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        if other.__class__ is not self.__class__:
            return NotImplemented
        return MukaiVector(self.r - other.r, self.m - other.m, self.s - other.s)

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, -self.m, -self.s)


class HypothesisNotMet(ValueError):
    """A verdict or certificate was requested outside the hypotheses that justify it."""


def require_primitive(v: MukaiVector) -> None:
    """Raise HypothesisNotMet unless c1 = m*h has m = 1, the case the theory covers."""
    if v.m != 1:
        raise HypothesisNotMet(f"the hypotheses need primitive c1 = h (m = 1), got m={v.m}")


def require_positive_rank(v: MukaiVector) -> None:
    """Raise ValueError unless v has rank r >= 1, as a sheaf behind it needs."""
    if v.r < 1:
        raise ValueError(f"rank must be positive, got r={v.r}")


def require_int(x: object, what: str, low: int | None = None) -> None:
    """Raise ValueError unless x is an int, never a bool or a float, and at
    least low (0 or 1) when low is given; the message names x as what."""
    if type(x) is not int or (low is not None and x < low):
        kind = {None: "an", 0: "a non-negative", 1: "a positive"}[low]
        raise ValueError(f"{what} must be {kind} integer, got {x!r}")


def require_positive_k(k: int) -> None:
    """Raise ValueError unless k, a count of points of a Hilbert scheme, is
    an int >= 1."""
    require_int(k, "k", 1)


def mukai_pairing(surface: K3Surface, v: MukaiVector, w: MukaiVector) -> int:
    """Mukai pairing <v, w> = m_v*m_w*h^2 - r_v*s_w - r_w*s_v.

    Symmetric and bilinear over the integers.
    """
    return v.m * w.m * surface.h_squared - v.r * w.s - w.r * v.s


def mukai_square(surface: K3Surface, v: MukaiVector) -> int:
    """Self-pairing v^2 = <v, v>; always even when h^2 is even."""
    return mukai_pairing(surface, v, v)


def euler_pair(surface: K3Surface, v: MukaiVector, w: MukaiVector) -> int:
    """Euler pairing chi(v, w) = sum_i (-1)^i ext^i = -<v, w>."""
    return -mukai_pairing(surface, v, w)


def euler_char(v: MukaiVector) -> int:
    """Euler characteristic chi = r + s (independent of m)."""
    return v.r + v.s


def twisted_chi(v: MukaiVector, k: int) -> int:
    """chi of the twist by the ideal sheaf of k points: r + s - r*k."""
    require_positive_k(k)
    return euler_char(v) - v.r * k


def dual_vector(v: MukaiVector) -> MukaiVector:
    """Mukai vector (r, -m, s) of the dual sheaf; an involution."""
    return MukaiVector(v.r, -v.m, v.s)


def ideal_sheaf_vector(k: int) -> MukaiVector:
    """Mukai vector (1, 0, 1-k) of the ideal sheaf of a length-k subscheme.

    Pinned by the two identities <v(I_Z), v(I_Z)> = 2k - 2 and
    chi(I_Z) = 2 - k, which the tests verify.
    """
    require_positive_k(k)
    return MukaiVector(1, 0, 1 - k)


def slope_on_X(surface: K3Surface, v: MukaiVector) -> Fraction:
    """Slope with respect to h on the surface itself: (c1.h)/r = m*h^2/r."""
    from fractions import Fraction  # not at top level: no CLI path needs it

    require_positive_rank(v)
    return Fraction(v.m * surface.h_squared, v.r)
