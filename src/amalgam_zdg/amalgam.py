"""Duplication of a ring along an ideal, and its comparison with the
square-zero idealization.

The duplication of R along an ideal I lives on the carrier R x I with
componentwise addition and multiplication (r,i)(s,j) = (rs, rj+si+ij).
Mapping (r,i) to (r, r+i) identifies it with the subring
{(a,b) : b-a in I} of R x R; the idealization uses the same carrier but
drops the ij term, so the two coincide exactly when I*I = 0.

``DuplicationCarrier`` is the carrier alone, with its element encoding,
labels, projection kernels, and the product form (r, r+i) as the base
addition table's columns at the ideal; ``AmalgamRing`` adds the two
operation tables.  The verification sweep reads everything off the
carrier and the base ring's tables, and builds no table of the
duplication.
"""

from __future__ import annotations

import numpy as np

from .graphs import ClassGraph, ZDGraph
from .rings import (
    _BLOCK_CELLS,
    TABLE_DTYPE,
    FiniteRing,
    Ideal,
    _all,
    _any,
    _ideal_test,
    _mask,
    _minimal_rows,
    _primes_from_idempotents,
    _sorted_sets,
    cached_fact,
)
from .specs import MAX_DUPLICATION_ORDER

__all__ = [
    "NotAnIdealError",
    "DuplicationTooLargeError",
    "DuplicationCarrier",
    "AmalgamRing",
    "amalgamated_duplication",
    "matches_idealization",
    "classify_zero_divisors",
    "structure_checks",
]


class NotAnIdealError(ValueError):
    """The member set handed to the duplication is not an ideal."""


class DuplicationTooLargeError(ValueError):
    """The duplication's carrier R x I is above MAX_DUPLICATION_ORDER."""


def _pair_tables(carrier: DuplicationCarrier):
    """The duplication's addition/multiplication tables over the carrier
    base x members, built in the shape (n, k, n, k) from two position
    tables, of i+j (k x k) and of r*j (n x k), with second coordinates
    given by their position in the ideal: the carrier's columns ``plus``
    and ``times`` read through ``pos``, each member's position.  The
    carrier's ideal test keeps every such sum and product inside the
    ideal.  Addition is one broadcast add, multiplication one block of
    first coordinates at a time.  Both are written as TABLE_DTYPE from the
    start: the carrier's order check keeps every carrier index r*k + t
    below MAX_DUPLICATION_ORDER, so the arithmetic on base-table entries
    cannot wrap.

    Entry [r, i, s, j] of the multiplication is the carrier index of
    (r, i)(s, j): r*s times k plus the position of u*j + s*i with u = r+i
    (rj+si+ij = (r+i)j + si), with i and j given by position in the
    ideal.  Over j those k positions are row u*k + pos(s*i) of one small
    table ``rows[u*k + b, j] = pos(u*j + m_b)``, so a block is one gather
    of whole k-wide rows, driven by an index array of 1/k of its cells; a
    block of ``step`` first coordinates holds about _BLOCK_CELLS cells,
    and never less than one coordinate.  The row table itself is one
    gather of whole rows of ``sums`` by ``prod_pos``,
    [u, j, b] = sums[pos(u*m_j), b], and one transposing copy to
    [u, b, j]."""
    base, members = carrier.base, carrier.members
    n, k = base.order, len(members)
    pos = np.zeros(n, dtype=TABLE_DTYPE)
    pos[members] = np.arange(k)
    sums = pos[carrier.plus[members]]
    prod_pos = pos[carrier.times]
    add = (base.add_table * k)[:, None, :, None] + sums[None, :, None, :]
    gathered = sums[prod_pos]
    rows = np.ascontiguousarray(gathered.transpose(0, 2, 1)).reshape(n * k, k)
    u = carrier.plus.astype(np.intp)
    # Every block reads cross along the base ring, so it is held row-major.
    cross = np.ascontiguousarray(prod_pos.T)
    mul = np.empty((n, k, n, k), dtype=TABLE_DTYPE)
    step = max(1, min(n, _BLOCK_CELLS // (n * k * k)))
    for lo in range(0, n, step):
        block = mul[lo : lo + step]
        # Every row index u*k + pos(s*i) is below n*k by construction;
        # "raise" mode would gather into a scratch block and copy it over.
        np.take(rows, u[lo : lo + step, :, None] * k + cross, axis=0, out=block, mode="clip")
        block += (base.mul_table[lo : lo + step] * k)[:, None, :, None]
    size = n * k
    return add.reshape(size, size), mul.reshape(size, size)


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


def _checked_ideal(base: FiniteRing, ideal: Ideal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ideal's sorted members as an index array, and the base tables'
    columns at them, r + i and r*i (see ``DuplicationCarrier``), once the
    member set is known to be an ideal of ``base`` whose duplication is
    within MAX_DUPLICATION_ORDER.  The order is checked first, so nothing
    of the carrier's size has been allocated when it fails.  The ideal
    test reads the two columns."""
    if ideal.ring is not base:
        raise NotAnIdealError("ideal belongs to a different ring")
    _check_duplication_order(base, ideal)
    members = np.array(ideal.sorted_members, dtype=np.intp)
    plus = base.add_table.take(members, axis=1)
    times = base.mul_table.take(members, axis=1)
    violations = _ideal_test(base, members, plus.take(members, axis=0), times)
    if violations:
        raise NotAnIdealError(
            f"member set is not an ideal of {base.spec_name}: " + "; ".join(violations)
        )
    return members, plus, times


class DuplicationCarrier:
    """The duplication of ``base`` along ``ideal`` as its carrier R x I,
    with no operation table.

    The element (r, i) has index r*k + t, where i = members[t], the
    ideal's t-th member in ascending order, and k = |I|.  Its product-form
    image in R x R, where the multiplication is componentwise, is
    (r, plus[r, t]) = (r, r+i).  The ideal and the order limit are checked
    at construction, before anything of the carrier's size exists.

    ``members`` is the ideal as an index array, and ``plus`` and ``times``
    are the base tables' columns at its members, n x k: [r, t] holds r + i
    and r*i for i = members[t].  Every reader of the carrier gathers from
    these three, so they are read-only, as are the masks built from them.
    """

    def __init__(self, base: FiniteRing, ideal: Ideal) -> None:
        self.members, self.plus, self.times = _checked_ideal(base, ideal)
        for shared in (self.members, self.plus, self.times):
            shared.setflags(write=False)
        self.base = base
        self.ideal = ideal
        k = len(self.members)
        self.order = base.order * k
        # (0, 0) and (1, 0): the ideal test has put 0 among the members.
        at = int(self.members.searchsorted(base.zero))
        self.zero, self.one = base.zero * k + at, base.one * k + at

    @cached_fact
    def spec_name(self) -> str:
        return f"{self.base.spec_name} join {self.base.format_subset(self.members.tolist())}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_name!r})"

    def pair_of(self, e: int) -> tuple[int, int]:
        """Decode a carrier index into base-ring element indices (r, i)."""
        r, t = divmod(e, len(self.members))
        return r, int(self.members[t])

    def index_of(self, r: int, i: int) -> int:
        """Encode base-ring element indices (r, i) with i in the ideal."""
        members = self.members
        t = int(members.searchsorted(i))
        if t == len(members) or members[t] != i:
            raise ValueError(f"{self.base.labels[i]} is not a member of the ideal")
        return r * len(members) + t

    def label(self, e: int) -> str:
        r, i = self.pair_of(e)
        return f"({self.base.labels[r]},{self.base.labels[i]})"

    def format_subset(self, elems) -> str:
        """Render a set of carrier elements as ``{(r,i), ...}`` in index order."""
        return "{" + ", ".join(self.label(e) for e in sorted(elems)) + "}"

    @cached_fact
    def _kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """Carrier indices of (0, i) and of (-i, i) for every member i, in
        the ideal's ascending order: r*k plus i's position."""
        k = len(self.members)
        at = np.arange(k)
        return self.base.zero * k + at, self.base._neg_table.take(self.members) * k + at

    @cached_fact
    def kernel_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only masks over the carrier of the kernels of the first
        coordinate projection, {(0, i)}, and of the product form's second
        projection, {(-i, i)}."""
        masks = [_mask(self.order, kernel) for kernel in self._kernels]
        for mask in masks:
            mask.setflags(write=False)
        return tuple(masks)

    @cached_fact
    def nilpotent_count(self) -> int:
        """The number of nilpotent elements: (a, b) is nilpotent iff a and b
        both are, so only the rows of a nilpotent first coordinate count."""
        nil = self.base._nilpotent_mask
        return int(np.count_nonzero(nil[self.plus[nil]]))

    @cached_fact
    def minimal_prime_masks(self) -> np.ndarray:
        """Boolean (minimal primes, carrier): the membership masks of the
        minimal prime ideals, by the primitive-idempotent rule of
        ``prime_ideals`` applied to the product-form coordinates (r, r+i)
        on the (n, k) grid of ``plus``: every fact it reads holds iff it
        holds in both coordinates of R x R."""
        return _minimal_rows(_primes_from_idempotents(self.base, self.plus))

    @property
    def minimal_primes(self) -> list[frozenset[int]]:
        """Members of the minimal prime ideals, sorted by (size, member
        indices)."""
        return _sorted_sets(self.minimal_prime_masks)


class AmalgamRing(DuplicationCarrier):
    """The duplication of ``base`` along ``ideal`` in pair-carrier form,
    with its operation tables as the FiniteRing ``ring``."""

    def __init__(self, base: FiniteRing, ideal: Ideal) -> None:
        super().__init__(base, ideal)
        add, mul = _pair_tables(self)
        labels = [self.label(e) for e in range(self.order)]
        self.ring = FiniteRing(
            self.order, add, mul, self.zero, self.one, labels, self.spec_name, _owned=True
        )


def amalgamated_duplication(base: FiniteRing, ideal: Ideal) -> AmalgamRing:
    """Build the duplication of ``base`` along ``ideal`` (may be {0} or R)."""
    return AmalgamRing(base, ideal)


def matches_idealization(dup: DuplicationCarrier) -> bool:
    """True iff the duplication's multiplication table equals the
    idealization's on the same carrier, read off the base tables.

    Both tables hold (rs, w + s*i) in cell (r, i)(s, j), with w = (r+i)*j
    in the duplication's (rj+si+ij = (r+i)j + si) and w = r*j in the
    idealization's.  Where the two w are equal, both cells are the same
    lookup; where they differ, the cells differ exactly where the sums
    w + s*i do.  The w are compared for every r, i and j, first
    coordinate 0 on its own first (in a ring its w are i*j and 0), then
    all of them a block of first coordinates at a time, a block covering
    about _BLOCK_CELLS cells of either table; at each w that differs the
    sums over every s are compared, and the first difference ends the
    scan (in a ring, at the first w that differs).  So every cell is
    compared, no ring axiom is assumed, and the answer is never read off
    I*I itself; no block of either table is built.
    """
    base, times, plus = dup.base, dup.times, dup.plus
    n, k = times.shape
    add = base.add_table
    step = max(1, _BLOCK_CELLS // (n * k * k))
    zero = slice(base.zero, base.zero + 1)
    for rows in [zero, *[slice(lo, lo + step) for lo in range(0, n, step)]]:
        # [h, i, j]: (r+i)*j and r*j for the block's h-th first coordinate r.
        w_dup = times.take(plus[rows], axis=0)
        w_ideal = times[rows, None, :]
        for h, i, j in zip(*(w_dup != w_ideal).nonzero()):
            si = times[:, i]
            if _any(add[w_dup[h, i, j]].take(si) != add[w_ideal[h, 0, j]].take(si)):
                return False
    return True


def classify_zero_divisors(
    dup: DuplicationCarrier, zd_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The duplication's zero-divisors split into four descriptive sets,
    as boolean masks over the carrier, given the mask ``zd_mask`` of the
    base ring's zero-divisors (0 included).

    t1: pairs (0, i); t2: pairs (-i, i); t3: pairs whose first coordinate is
    a nonzero zero-divisor of the base; t4: pairs (x, i) with x regular,
    x+i nonzero, and some nonzero j in the ideal killing x+i.  t1 and t2
    are the carrier's read-only kernel masks, and both hold the zero.
    """
    base, members = dup.base, dup.members
    n, k, zero = base.order, len(members), base.zero

    t1, t2 = dup.kernel_masks
    # [r, t] is (r, members[t]).
    t3 = np.zeros((n, k), dtype=bool)
    t3[zd_mask] = True
    t3[zero] = False

    nonzero_members = members[members != zero]
    killed = (base.mul_table.take(nonzero_members, axis=0) == zero).any(axis=0)
    sums = dup.plus
    # killed[...] by the uint16 table, which take would widen to intp.
    t4 = ~zd_mask[:, None] & (sums != zero) & killed[sums]
    return t1, t2, t3.ravel(), t4.ravel()


def _products_vanish(base: FiniteRing, r, i, s, j) -> np.ndarray:
    """Whether (r,i)(s,j) = (rs, (r+i)j + si) is zero, elementwise over
    broadcast arrays of base-ring indices, from the definition."""
    add, mul, zero = base.add_table, base.mul_table, base.zero
    second = add[mul[add[r, i], j], mul[s, i]]
    return (mul[r, s] == zero) & (second == zero)


def _neighbours_inside(classes: ClassGraph, elems: np.ndarray, allowed: np.ndarray) -> bool:
    """True iff every neighbour of every vertex in ``elems`` is in
    ``allowed``, both arrays of distinct element indices, read on the
    classes: the neighbours of a vertex v of class a are the members of
    the classes adjacent to a, and the other members of a when a is a
    clique.  With out[b] the members of class b outside ``allowed``, v has
    q[a] @ out neighbours outside it in other classes, and in a clique
    class out[a] less one if v itself is outside.  Raises ValueError when
    an element of ``elems`` is not a vertex."""
    class_of = classes.class_of
    at = class_of[elems].astype(np.intp)
    if _any(at < 0):
        raise ValueError("element index is not a vertex")
    inside = _mask(len(class_of), allowed[allowed < len(class_of)])
    kept = class_of[inside]
    out = classes.sizes - np.bincount(kept[kept >= 0], minlength=len(classes.q))
    own = out[at] - ~inside[elems]
    return not (_any(classes.q.take(at, axis=0) @ out) or _any(classes.clique[at] & (own > 0)))


def _edge_images_vanish(base: FiniteRing, graph: ZDGraph) -> bool:
    """R2.3's ring-only half: every edge {x, y} of the base graph ``graph``
    maps under x -> (x, 0) to a zero product (x, 0)(y, 0), computed from
    the definition of the multiplication over the base ring's tables, so
    it can fail on tables that are not a ring's.  0 is a member of every
    ideal, so this holds for every duplication of ``base`` or for none."""
    verts = np.array(graph.vertices, dtype=np.intp)
    zero = base.zero
    products = _products_vanish(base, verts[:, None], zero, verts[None, :], zero)
    return _all(products[graph.adjacency])


def structure_checks(
    dup: DuplicationCarrier,
    zd_mask: np.ndarray,
    base_vertices: np.ndarray,
    dup_classes: ClassGraph,
    edge_images_vanish: bool,
) -> list[str]:
    """The names of the duplication's structure checks that fail, in the
    order "crossings", "exclusive neighbors", "base embedding"; empty when
    all three hold, or when the ideal is {0} and there is nothing to check.

    crossings: every nonzero (0,i) -- (j,-j) pair is an edge, so a complete
    bipartite pattern on two parts of size |I|-1 is present.
    exclusive neighbors: for ideal members outside Z(R), (0,i) touches only
    the (j,-j) side and (i,-i) only the (0,j) side.
    base embedding: x -> (x,0) carries the base graph onto a subgraph.

    Given are the mask ``zd_mask`` of the base ring's zero-divisors (0
    included), the base graph's vertices as an index array, the
    duplication's graph as classes over the carrier indices (the sweep's
    key classes, or a materialized graph's ``ZDGraph.classes``), and
    ``_edge_images_vanish`` of the base ring, which holds for all of its
    duplications or for none.

    The crossing products are computed from the definition of the
    multiplication over the base ring's tables, so they can fail on
    tables that are not a ring's.  Every set of carrier elements is an
    index array r*k + t or a boolean mask over the carrier.
    """
    base, members = dup.base, dup.members
    k = len(members)
    if k < 2:
        return []
    zero = base.zero
    nonzero = members != zero
    nonzero_members = members[nonzero]
    negated = base._neg_table[nonzero_members]
    o1, o2 = dup._kernels

    # (0, i)(-j, j) for every pair of nonzero members i, j.
    crossings = _all(
        _products_vanish(
            base, zero, nonzero_members[:, None], negated[None, :], nonzero_members[None, :]
        )
    )

    # The neighbours of (0, i) and (-i, i) for each member i outside Z(R)
    # may be only the other kernel's nonzero elements; with no such member
    # there is nothing to check.
    regular = ~zd_mask[members]
    exclusive = True
    if _any(regular):
        first = _neighbours_inside(dup_classes, o1[regular], o2[nonzero])
        second = _neighbours_inside(dup_classes, o2[regular], o1[nonzero])
        exclusive = first and second

    # x -> (x, 0) must land on vertices; (x, 0) is x*k plus the position
    # of 0 among the members, as in the carrier's zero (0, 0).  A class_of
    # that stops short of an image (a materialized graph's) leaves it off
    # the graph.
    class_of = dup_classes.class_of
    images = base_vertices * k + (dup.zero - zero * k)
    on_graph = _all(images < len(class_of)) and _all(class_of[images] >= 0)
    embeds = edge_images_vanish and on_graph

    return [
        name
        for name, holds in (
            ("crossings", crossings),
            ("exclusive neighbors", exclusive),
            ("base embedding", embeds),
        )
        if not holds
    ]
