"""Duplication of a ring along an ideal, and its comparison with the
square-zero idealization.

The duplication of R along an ideal I lives on the carrier R x I with
componentwise addition and multiplication (r,i)(s,j) = (rs, rj+si+ij).
Mapping (r,i) to (r, r+i) identifies it with the subring
{(a,b) : b-a in I} of R x R; the idealization uses the same carrier but
drops the ij term, so the two coincide exactly when I*I = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .graphs import ZDGraph
from .rings import (
    _BLOCK_CELLS,
    TABLE_DTYPE,
    FiniteRing,
    Ideal,
    ideal_violations,
)
from .specs import MAX_DUPLICATION_ORDER

__all__ = [
    "NotAnIdealError",
    "DuplicationTooLargeError",
    "AmalgamRing",
    "amalgamated_duplication",
    "matches_idealization",
    "verify_product_embedding",
    "ZDClassification",
    "classify_zero_divisors",
    "StructureChecks",
    "structure_checks",
]


class NotAnIdealError(ValueError):
    """The member set handed to the duplication is not an ideal."""


class DuplicationTooLargeError(ValueError):
    """The duplication's carrier R x I is above MAX_DUPLICATION_ORDER."""


def _ideal_positions(base: FiniteRing, members: tuple[int, ...]):
    """Positions inside the ideal of i+j (k x k) and of r*j (n x k).

    The carrier element (r, i) has index r*k + t where i = members[t].
    Second coordinates never leave position form, and an escape from the
    ideal shows in these two tables before anything of the carrier's
    squared size is built.
    """
    m = np.array(members, dtype=np.intp)
    pos = np.full(base.order, -1, dtype=np.intp)
    pos[m] = np.arange(len(members))
    sum_pos = pos[base.add_table[m[:, None], m[None, :]]]
    prod_pos = pos[base.mul_table[:, m]]
    if (sum_pos < 0).any() or (prod_pos < 0).any():
        raise NotAnIdealError("second coordinates escape the ideal carrier")
    return pos, sum_pos, prod_pos


def _mul_block_filler(
    base: FiniteRing,
    members: tuple[int, ...],
    sum_pos: np.ndarray,
    prod_pos: np.ndarray,
    with_product_term: bool,
) -> tuple[int, Callable[[int, int, np.ndarray], None]]:
    """``(step, fill)``: ``fill(lo, hi, out)`` writes the multiplication
    table's rows of first coordinates lo..hi-1, shape (hi-lo, k, n, k) in
    carrier order, into ``out``; a block of ``step`` first coordinates
    holds about _BLOCK_CELLS cells, and never less than one coordinate.

    Entry [r, i, s, j] is the carrier index of (r, i)(s, j): r*s times k
    plus the position of u*j + s*i, where u = r+i for the duplication
    (rj+si+ij = (r+i)j + si) and u = r for the idealization, with i and j
    given by position in the ideal.  Over j those k positions are row
    u*k + pos(s*i) of one small table ``rows[u*k + b, j] = pos(u*j + m_b)``,
    so a block is one gather of whole k-wide rows, driven by an index
    array of 1/k of its cells.  ``out`` is a TABLE_DTYPE array, and every
    carrier index fits in it.
    """
    n, k = base.order, len(members)
    rows = sum_pos.astype(TABLE_DTYPE)[prod_pos[:, None, :], np.arange(k)[:, None]]
    rows = rows.reshape(n * k, k)
    if with_product_term:
        u = base.add_table[:, list(members)].astype(np.intp)
    else:
        u = np.arange(n)[:, None]
    cross = prod_pos.T
    mul_t = base.mul_table
    step = max(1, min(n, _BLOCK_CELLS // (n * k * k)))

    def fill(lo: int, hi: int, out: np.ndarray) -> None:
        # Every row index u*k + pos(s*i) is below n*k by construction;
        # "raise" mode would gather into a scratch block and copy it over.
        np.take(rows, u[lo:hi, :, None] * k + cross, axis=0, out=out, mode="clip")
        out += (mul_t[lo:hi] * k)[:, None, :, None]

    return step, fill


def _pair_tables(base: FiniteRing, members: tuple[int, ...]):
    """The duplication's addition/multiplication tables over the carrier
    base x members, built in the shape (n, k, n, k) from the two position
    tables: addition by one broadcast add, multiplication one block of
    first coordinates at a time.  Both are written as TABLE_DTYPE from the
    start: the caller's order check keeps every carrier index r*k + t
    below MAX_DUPLICATION_ORDER, so the arithmetic on base-table entries
    cannot wrap."""
    n, k = base.order, len(members)
    pos, sum_pos, prod_pos = _ideal_positions(base, members)
    sums = sum_pos.astype(TABLE_DTYPE)
    add = (base.add_table * k)[:, None, :, None] + sums[None, :, None, :]
    step, fill = _mul_block_filler(base, members, sum_pos, prod_pos, with_product_term=True)
    mul = np.empty((n, k, n, k), dtype=TABLE_DTYPE)
    for lo in range(0, n, step):
        fill(lo, min(lo + step, n), mul[lo : lo + step])
    size = n * k
    labels = [f"({base.labels[r]},{base.labels[i]})" for r in range(n) for i in members]
    zero = int(base.zero * k + pos[base.zero])
    one = int(base.one * k + pos[base.zero])
    return add.reshape(size, size), mul.reshape(size, size), zero, one, labels


# Members of a refused ideal named in the error message; the rest are
# elided and counted, so the message stays short for any ideal.
_SHOWN_MEMBERS = 8


def _check_duplication_order(base: FiniteRing, ideal: Ideal) -> None:
    order = base.order * len(ideal)
    if order > MAX_DUPLICATION_ORDER:
        members = sorted(ideal.members)
        if len(members) <= _SHOWN_MEMBERS:
            shown = base.format_subset(members)
        else:
            head = ", ".join(base.labels[e] for e in members[:_SHOWN_MEMBERS])
            shown = f"{{{head}, …}} ({len(members)} members)"
        raise DuplicationTooLargeError(
            f"the duplication of {base.spec_name} along {shown} has order "
            f"{order}, above the limit of {MAX_DUPLICATION_ORDER}"
        )


def _checked_ideal(base: FiniteRing, ideal: Ideal) -> tuple[int, ...]:
    """The ideal's sorted members, once they are known to form an ideal of
    ``base`` whose duplication is within MAX_DUPLICATION_ORDER; nothing of
    the carrier's size has been allocated when either check fails."""
    if ideal.ring is not base:
        raise NotAnIdealError("ideal belongs to a different ring")
    _check_duplication_order(base, ideal)
    violations = ideal_violations(base, ideal.members)
    if violations:
        raise NotAnIdealError(
            f"member set is not an ideal of {base.spec_name}: "
            + "; ".join(violations)
        )
    return ideal.sorted_members


class AmalgamRing:
    """The duplication of ``base`` along ``ideal`` in pair-carrier form."""

    def __init__(self, base: FiniteRing, ideal: Ideal) -> None:
        members = _checked_ideal(base, ideal)
        self.base = base
        self.ideal = ideal
        self.ideal_elements = members
        self._pos = {elem: t for t, elem in enumerate(members)}
        add, mul, zero, one, labels = _pair_tables(base, members)
        name = f"{base.spec_name} join {base.format_subset(members)}"
        self.ring = FiniteRing(
            base.order * len(members), add, mul, zero, one, labels, name, _owned=True
        )

    def __repr__(self) -> str:
        return f"AmalgamRing({self.ring.spec_name!r})"

    def pair_of(self, e: int) -> tuple[int, int]:
        """Decode a carrier index into base-ring element indices (r, i)."""
        r, t = divmod(e, len(self.ideal_elements))
        return r, self.ideal_elements[t]

    def index_of(self, r: int, i: int) -> int:
        """Encode base-ring element indices (r, i) with i in the ideal."""
        try:
            t = self._pos[i]
        except KeyError:
            raise ValueError(
                f"{self.base.labels[i]} is not a member of the ideal"
            ) from None
        return r * len(self.ideal_elements) + t

    @cached_property
    def o1(self) -> Ideal:
        """Kernel of the first coordinate projection: {(0, i)}."""
        zero = self.base.zero
        return Ideal(
            self.ring, frozenset(self.index_of(zero, i) for i in self.ideal_elements)
        )

    @cached_property
    def o2(self) -> Ideal:
        """Kernel of the second projection of the product form: {(-i, i)}."""
        return Ideal(
            self.ring,
            frozenset(self.index_of(self.base.neg(i), i) for i in self.ideal_elements),
        )


def amalgamated_duplication(base: FiniteRing, ideal: Ideal) -> AmalgamRing:
    """Build the duplication of ``base`` along ``ideal`` (may be {0} or R)."""
    return AmalgamRing(base, ideal)


def matches_idealization(amalgam: AmalgamRing) -> bool:
    """True iff the duplication's multiplication table equals the
    idealization's on the same carrier.

    The idealization's table is gathered one block of first coordinates at
    a time, from the same row table as the duplication's but with u = r in
    place of r+i, and each block's values are compared with the matching
    rows of ``amalgam.ring.mul_table``; the first block that differs ends
    the scan.  Only one block of the idealization is ever held, never a
    second ring.  When I*I != 0 the first block already differs (at
    r = s = 0 it holds the i*j terms).
    """
    base = amalgam.base
    members = amalgam.ideal_elements
    n, k = base.order, len(members)
    _, sum_pos, prod_pos = _ideal_positions(base, members)
    step, fill = _mul_block_filler(base, members, sum_pos, prod_pos, with_product_term=False)
    built = amalgam.ring.mul_table.reshape(n, k, n, k)
    block = np.empty((step, k, n, k), dtype=TABLE_DTYPE)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        gathered = block[: hi - lo]
        fill(lo, hi, gathered)
        if not np.array_equal(gathered, built[lo:hi]):
            return False
    return True


def verify_product_embedding(amalgam: AmalgamRing) -> list[str]:
    """Exhaustively check the product-form embedding (r,i) -> (r, r+i).

    Empty list iff the map is injective, lands exactly on
    {(a,b) : b-a in ideal}, and preserves both operations into R x R.
    """
    base = amalgam.base
    ring = amalgam.ring
    size = ring.order
    k = len(amalgam.ideal_elements)
    rv = np.repeat(np.arange(base.order), k)
    iv = np.tile(np.array(amalgam.ideal_elements, dtype=np.intp), base.order)
    f1 = rv
    f2 = base.add_table[rv, iv]
    out: list[str] = []

    images = set(zip(f1.tolist(), f2.tolist()))
    if len(images) != size:
        out.append("embedding is not injective")
    member_mask = np.zeros(base.order, dtype=bool)
    member_mask[list(amalgam.ideal_elements)] = True
    expected = {
        (int(x), int(y))
        for x in range(base.order)
        for y in range(base.order)
        if member_mask[base.sub(y, x)]
    }
    if images != expected:
        out.append("embedding image differs from {(a,b) : b-a in ideal}")

    added = ring.add_table
    if not (
        np.array_equal(f1[added], base.add_table[f1[:, None], f1[None, :]])
        and np.array_equal(f2[added], base.add_table[f2[:, None], f2[None, :]])
    ):
        out.append("embedding does not preserve addition")
    multiplied = ring.mul_table
    if not (
        np.array_equal(f1[multiplied], base.mul_table[f1[:, None], f1[None, :]])
        and np.array_equal(f2[multiplied], base.mul_table[f2[:, None], f2[None, :]])
    ):
        out.append("embedding does not preserve multiplication")
    return out


@dataclass(frozen=True)
class ZDClassification:
    """The zero-divisors of a duplication split into four descriptive sets.

    t1: pairs (0, i); t2: pairs (-i, i); t3: pairs whose first coordinate is
    a nonzero zero-divisor of the base; t4: pairs (x, i) with x regular,
    x+i nonzero, and some nonzero j in the ideal killing x+i.
    """

    t1: frozenset[int]
    t2: frozenset[int]
    t3: frozenset[int]
    t4: frozenset[int]

    def union(self) -> frozenset[int]:
        return self.t1 | self.t2 | self.t3 | self.t4


def classify_zero_divisors(
    amalgam: AmalgamRing, base_zd: frozenset[int]
) -> ZDClassification:
    """The classification of the duplication's zero-divisors, given the
    base ring's zero-divisors ``base_zd`` (0 included)."""
    base = amalgam.base
    members = np.array(amalgam.ideal_elements, dtype=np.intp)
    n, k, zero = base.order, len(members), base.zero
    zd_mask = np.zeros(n, dtype=bool)
    zd_mask[list(base_zd)] = True

    # Masks over the carrier in its (n, k) shape: [r, t] is (r, members[t]).
    t1 = np.zeros((n, k), dtype=bool)
    t1[zero] = True
    t2 = np.zeros((n, k), dtype=bool)
    t2[base._neg_table[members], np.arange(k)] = True
    t3 = np.zeros((n, k), dtype=bool)
    t3[zd_mask] = True
    t3[zero] = False

    nonzero_members = members[members != zero]
    killed = (base.mul_table[nonzero_members] == zero).any(axis=0)
    sums = base.add_table[:, members]
    t4 = ~zd_mask[:, None] & (sums != zero) & killed[sums]
    return ZDClassification(
        *(frozenset(np.flatnonzero(mask).tolist()) for mask in (t1, t2, t3, t4))
    )


@dataclass(frozen=True)
class StructureChecks:
    """Structural facts about the duplication graph, checked exhaustively.

    crossings_complete: every nonzero (0,i) -- (j,-j) pair is an edge, so a
    complete bipartite pattern on two parts of size |I|-1 is present.
    regular_members_exclusive: for ideal members outside Z(R), (0,i) touches
    only the (j,-j) side and (i,-i) only the (0,j) side.
    embeds_base: x -> (x,0) carries the base graph onto a subgraph.
    vacuous: the ideal is {0}, so there is nothing to check.
    """

    crossings_complete: bool
    regular_members_exclusive: bool
    embeds_base: bool
    vacuous: bool

    def all_hold(self) -> bool:
        return self.crossings_complete and self.regular_members_exclusive and self.embeds_base


def _carrier_mask(ring: FiniteRing, elems: list[int]) -> np.ndarray:
    mask = np.zeros(ring.order, dtype=bool)
    mask[elems] = True
    return mask


def structure_checks(
    amalgam: AmalgamRing,
    base_zd: frozenset[int],
    base_graph: ZDGraph,
    dup_graph: ZDGraph,
) -> StructureChecks:
    """The structure checks of the duplication, given the base ring's
    zero-divisors ``base_zd`` (0 included) and the graphs of both rings."""
    base = amalgam.base
    ring = amalgam.ring
    members = amalgam.ideal_elements
    if len(members) < 2:
        return StructureChecks(True, True, True, vacuous=True)
    zero = base.zero
    t1_nonzero = sorted(amalgam.index_of(zero, i) for i in members if i != zero)
    t2_nonzero = sorted(amalgam.index_of(base.neg(i), i) for i in members if i != zero)

    crossings = bool(
        (ring.mul_table[np.ix_(t1_nonzero, t2_nonzero)] == ring.zero).all()
    )

    # The rows of (0, i) and (-i, i) for each member i outside Z(R) may
    # meet only the other kernel's nonzero elements.
    regular = [i for i in members if i not in base_zd]
    adj = dup_graph.adjacency
    vertices = list(dup_graph.vertices)
    rows1 = [dup_graph.position(amalgam.index_of(zero, i)) for i in regular]
    rows2 = [dup_graph.position(amalgam.index_of(base.neg(i), i)) for i in regular]
    exclusive = not (
        adj[rows1][:, ~_carrier_mask(ring, t2_nonzero)[vertices]].any()
        or adj[rows2][:, ~_carrier_mask(ring, t1_nonzero)[vertices]].any()
    )

    # x -> (x, 0) must land on vertices, and every base edge on a product zero.
    images = [amalgam.index_of(x, zero) for x in base_graph.vertices]
    products = ring.mul_table[np.ix_(images, images)][base_graph.adjacency]
    embeds = bool(
        _carrier_mask(ring, vertices)[images].all() and (products == ring.zero).all()
    )

    return StructureChecks(crossings, exclusive, embeds, vacuous=False)
