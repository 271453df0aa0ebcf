"""Graded Ext-dimension calculus for the ideal-sheaf transform to X^[k].

The integral transform D^b(X) -> D^b(X^[k]) with kernel the universal
ideal sheaf (a P^(k-1)-functor) multiplies graded Ext spaces by the
cohomology of P^(k-1):

    Ext^*(image of E, image of F)  =  Ext^*_X(E, F) (x) H^*(P^(k-1), C)

as graded vector spaces.  Only dimension vectors are modeled here, so the
tensor product is a convolution of integer sequences; ext_dims_on_hilb
writes it in closed form.  The Ext table on X between stable sheaves of
equal slope is itself pinned by lattice data:

    same object:      [1, v^2 + 2, 1]   (simple, Serre-dual ends, chi = -v^2)
    distinct objects: [0, <v, w>,  0]   (no homs between distinct stable
                                         sheaves of the same slope)

A table entry that would come out negative certifies that the claimed pair
of stable sheaves cannot exist, and raises NegativeExt.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from .lattice import K3Surface, MukaiVector, Value, mukai_pairing, mukai_square
from .lattice import require_int, require_positive_k, require_positive_rank


class NegativeExt(ValueError):
    """An Ext dimension came out negative: the input pair is inconsistent."""


class GradedDims(Value):
    """Dimensions of a graded vector space, indexed from degree 0.

    Trailing zeros are stripped on construction, so two values are equal
    exactly when they agree in every degree.
    """

    def __init__(self, dims: Iterable[int]) -> None:
        dims = tuple(dims)
        for d in dims:
            require_int(d, "graded dimension", 0)
        end = len(dims)
        while end and dims[end - 1] == 0:
            end -= 1
        self._set(dims[:end])

    def __getitem__(self, degree: int) -> int:
        if degree < 0:
            raise IndexError("cohomological degree must be non-negative")
        return self.dims[degree] if degree < len(self.dims) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return sum(self.dims)

    @property
    def euler(self) -> int:
        return sum(d if i % 2 == 0 else -d for i, d in enumerate(self.dims))


def projective_space_cohomology(n: int) -> GradedDims:
    """H^*(P^n, C): one dimension in each even degree 0, 2, ..., 2n."""
    require_int(n, "n", 0)
    return GradedDims(tuple(1 if i % 2 == 0 else 0 for i in range(2 * n + 1)))


def graded_tensor(a: GradedDims | Iterable[int], b: GradedDims | Iterable[int]) -> GradedDims:
    """Convolution product: result[n] = sum_{i+j=n} a[i]*b[j]."""
    da = tuple(a)
    db = tuple(b)
    if not da or not db:
        return GradedDims(())
    out = [0] * (len(da) + len(db) - 1)
    for i, x in enumerate(da):
        if x == 0:
            continue
        for j, y in enumerate(db):
            out[i + j] += x * y
    return GradedDims(tuple(out))


def ext_dims_on_X(
    surface: K3Surface, v: MukaiVector, w: MukaiVector, same_object: bool
) -> GradedDims:
    """Ext table between stable sheaves of equal slope with vectors v and w.

    The caller asserts stability and slope equality; both ranks must be
    positive, and same_object=True requires v = w, while False means two
    non-isomorphic sheaves (which may share the same Mukai vector).
    """
    require_positive_rank(v)
    require_positive_rank(w)
    if same_object:
        if v != w:
            raise ValueError("same_object=True requires identical Mukai vectors")
        ext1 = mukai_square(surface, v) + 2
        if ext1 < 0:
            raise NegativeExt(
                f"ext^1 = v^2 + 2 = {ext1} is negative: no such simple sheaf exists"
            )
        return GradedDims((1, ext1, 1))
    ext1 = mukai_pairing(surface, v, w)
    if ext1 < 0:
        raise NegativeExt(
            f"ext^1 = <v, w> = {ext1} is negative: no such pair of stable sheaves exists"
        )
    return GradedDims((0, ext1, 0))


def ext_dims_on_hilb(ext_on_X: GradedDims, k: int) -> GradedDims:
    """Ext table between the images on X^[k]: ext_on_X times H^*(P^(k-1)).

    With t = ext_on_X: t0 in degree 0, t1 in every odd degree, t0 + t2 in
    the even degrees 2..2k-2 and t2 in degree 2k.
    """
    require_positive_k(k)
    if len(ext_on_X) > 3:
        raise ValueError(f"a table on X lives in degrees 0..2, got {ext_on_X.dims}")
    t0, t1, t2 = ext_on_X[0], ext_on_X[1], ext_on_X[2]
    # one list, not tuple concatenation: ~15 MB less peak RSS at k = 10^6
    try:
        dims = [t0 + t2, t1] * k
    except (OverflowError, MemoryError):  # refused outright, before any allocation
        raise ValueError(f"k = {k} is too large for an Ext table of 2k + 1 degrees") from None
    dims[0] = t0
    dims.append(t2)
    return GradedDims(dims)


def moduli_dim(surface: K3Surface, v: MukaiVector) -> int:
    """Dimension v^2 + 2 of M(v): ext^1 of a stable sheaf with vector v."""
    return ext_dims_on_X(surface, v, v, same_object=True)[1]


TangentMatch = namedtuple("TangentMatch", ["dim_X", "dim_hilb", "match"])


def tangent_match(surface: K3Surface, v: MukaiVector, k: int) -> TangentMatch:
    """Compare moduli tangent dimensions on X and on X^[k].

    Both equal ext^1: degree 1 is odd and H^*(P^(k-1)) is concentrated in
    even degrees, so the convolution leaves the degree-1 entry untouched
    and the match holds for every valid input.
    """
    on_x = ext_dims_on_X(surface, v, v, same_object=True)
    dim_x, dim_hilb = on_x[1], ext_dims_on_hilb(on_x, k)[1]
    return TangentMatch(dim_x, dim_hilb, dim_x == dim_hilb)
