"""Finite commutative rings with identity, backed by dense operation tables.

Rings are immutable after construction and every operation in this module is
a pure function of its inputs, so instances can be shared freely across
worker processes.  Elements are plain integer indices into the tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "TABLE_DTYPE",
    "MAX_TABLE_ORDER",
    "FiniteRing",
    "Ideal",
    "make_zn",
    "product_ring",
    "verify_ring_axioms",
    "zero_divisors",
    "annihilator",
    "principal_ideal",
    "ideal_from_generators",
    "all_ideals",
    "ideal_violations",
    "is_ideal",
    "is_prime_ideal",
    "is_reduced",
    "is_field",
    "prime_ideals",
]

# Every operation table holds element indices as two-byte unsigned integers,
# so a ring's order is at most the number of values they can hold.
TABLE_DTYPE = np.uint16
MAX_TABLE_ORDER = int(np.iinfo(TABLE_DTYPE).max) + 1


class cached_fact:
    """An attribute computed on first read and kept in the instance
    ``__dict__``, where later reads find it without calling the
    descriptor; assigning to the attribute plants a value.  This is
    ``functools.cached_property`` without the lock that Python 3.10 and
    3.11 take on every first read.  The facts are pure functions of
    their object, so two threads that read one at once would only compute
    it twice."""

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _check_table_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"ring order must be positive, got {order}")
    if order > MAX_TABLE_ORDER:
        raise ValueError(
            f"ring order {order} is above {MAX_TABLE_ORDER}, the number of "
            "element indices an operation table can hold"
        )


def _frozen_table(table, name: str, order: int, owned: bool) -> np.ndarray:
    """A read-only order x order TABLE_DTYPE table.

    The package's builders hand fresh TABLE_DTYPE arrays (``owned``) that
    are never touched again, so those are frozen in place.  A caller's
    table is copied, so it is neither aliased nor frozen, and its range is
    checked while it is still wide: narrowing first would wrap an entry
    such as 65539 to 3.
    """
    if owned:
        table = np.asarray(table, dtype=TABLE_DTYPE)
    else:
        table = np.array(table, dtype=np.intp)
    shape = (order, order)
    if table.shape != shape:
        raise ValueError(f"{name} has shape {table.shape}, expected {shape}")
    if not owned:
        if table.min() < 0 or table.max() >= order:
            raise ValueError(f"{name} entries out of range [0, {order})")
        table = table.astype(TABLE_DTYPE)
    table.setflags(write=False)
    return table


class FiniteRing:
    """A finite commutative ring with nonzero unity, elements 0..order-1.

    ``add_table`` and ``mul_table`` are read-only TABLE_DTYPE arrays.
    """

    def __init__(
        self,
        order: int,
        add_table: Sequence[Sequence[int]] | np.ndarray,
        mul_table: Sequence[Sequence[int]] | np.ndarray,
        zero: int,
        one: int,
        labels: Sequence[str],
        spec_name: str = "",
        *,
        _owned: bool = False,
    ) -> None:
        self.order = int(order)
        _check_table_order(self.order)
        self.add_table = _frozen_table(add_table, "add_table", self.order, _owned)
        self.mul_table = _frozen_table(mul_table, "mul_table", self.order, _owned)
        self.zero = int(zero)
        self.one = int(one)
        # The builders' labels are fresh strings; a caller's are converted.
        self.labels = tuple(labels) if _owned else tuple(str(lbl) for lbl in labels)
        if len(self.labels) != self.order:
            raise ValueError(f"{len(self.labels)} labels for order {self.order}")
        if not _owned and len(set(self.labels)) != self.order:
            raise ValueError("labels must be distinct")
        self.spec_name = spec_name or f"ring<{self.order}>"

    def __repr__(self) -> str:
        return f"FiniteRing({self.spec_name!r}, order={self.order})"

    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self._neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self._neg_table[b]])

    @cached_fact
    def _neg_table(self) -> np.ndarray:
        rows, cols = (self.add_table == self.zero).nonzero()
        neg = np.empty(self.order, dtype=np.intp)
        neg[rows] = cols
        neg.setflags(write=False)
        return neg

    @cached_fact
    def _nilpotent_mask(self) -> np.ndarray:
        """Read-only boolean mask over the elements, True exactly on the
        nilpotents.

        In a finite ring the nilpotency index of any element is at most the
        order, so it suffices to square the power table ceil(log2 n) times.
        """
        powers = np.arange(self.order)
        for _ in range(max(1, (self.order - 1).bit_length())):
            powers = self.mul_table[powers, powers]
        nil = powers == self.zero
        nil.setflags(write=False)
        return nil

    @cached_fact
    def _prime_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """What ``_primes_from_idempotents`` reads of the ring, whichever
        subring of R x R it lists the primes of, as four read-only arrays:

        - ``idempotents``: E, the x with x*x = x, ascending;
        - ``position``: each element's place in E, -1 off it;
        - ``below``: |E| x |E|, [a, b] says E[a]*E[b] = E[b];
        - ``nil_times``: n x |E|, [x, a] says x*E[a] is nilpotent, held
          column by column, so that a gather of columns is a gather of
          whole rows of its transpose.
        """
        idempotents = (self.mul_table.diagonal() == np.arange(self.order)).nonzero()[0]
        position = np.full(self.order, -1, dtype=np.intp)
        position[idempotents] = np.arange(len(idempotents))
        columns = self.mul_table.take(idempotents, axis=1)
        below = columns.take(idempotents, axis=0) == idempotents
        nil_times = np.ascontiguousarray(self._nilpotent_mask[columns].T).T
        table = (idempotents, position, below, nil_times)
        for array in table:
            array.setflags(write=False)
        return table

    def label(self, a: int) -> str:
        return self.labels[a]

    def format_subset(self, elems: Iterable[int]) -> str:
        """Render a set of elements as ``{l1, l2, ...}`` in index order."""
        return "{" + ", ".join(self.labels[e] for e in sorted(elems)) + "}"

    @cached_fact
    def _label_index(self) -> dict[str, int]:
        return {lbl: idx for idx, lbl in enumerate(self.labels)}

    def element_index(self, label: str) -> int:
        """Resolve an element label (as printed) back to its index."""
        try:
            return self._label_index[label]
        except KeyError:
            raise ValueError(
                f"unknown element label '{label}' for ring {self.spec_name}"
            ) from None


@dataclass(frozen=True)
class Ideal:
    """An ideal of a finite commutative ring, stored as a member set."""

    ring: FiniteRing
    members: frozenset[int]

    def __post_init__(self) -> None:
        _check_elements(self.ring, self.members, "ideal members out of range:")

    @cached_fact
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, elem: int) -> bool:
        return elem in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted_members)

    def labels(self) -> tuple[str, ...]:
        return tuple([self.ring.labels[m] for m in self.sorted_members])

    @property
    def is_zero(self) -> bool:
        return len(self.members) == 1

    @property
    def is_full(self) -> bool:
        return len(self.members) == self.ring.order

    def __repr__(self) -> str:
        return f"Ideal({self.ring.spec_name}, {self.ring.format_subset(self.members)})"


# ---------------------------------------------------------------------------
# Constructors


# make_zn fills its tables, and the zero-product pass compares and gathers
# them, a block of rows of about this many cells at a time, so their
# intermediates stay this small whatever the order.
_BLOCK_CELLS = 1 << 16


def make_zn(n: int) -> FiniteRing:
    """The ring of integers modulo ``n`` (``n >= 2``)."""
    if n < 2:
        raise ValueError(f"Z_n requires n >= 2, got {n}")
    _check_table_order(n)
    idx = np.arange(n)
    add = np.empty((n, n), dtype=TABLE_DTYPE)
    mul = np.empty((n, n), dtype=TABLE_DTYPE)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, n, step):
        rows = idx[lo : lo + step, None]
        # Every remainder is below n, so the unsafe cast into the table is exact.
        np.remainder(rows + idx, n, out=add[lo : lo + step], casting="unsafe")
        np.remainder(rows * idx, n, out=mul[lo : lo + step], casting="unsafe")
    labels = [str(i) for i in range(n)]
    return FiniteRing(n, add, mul, 0, 1, labels, f"Z{n}", _owned=True)


def product_ring(factors: Sequence[FiniteRing]) -> FiniteRing:
    """Direct product of two or more rings with componentwise operations."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise ValueError("product_ring needs at least two factors")
    order = 1
    for f in factors:
        order *= f.order
    _check_table_order(order)
    idx = np.arange(order)
    digits = []
    weight = order
    for f in factors:
        weight //= f.order
        digits.append((idx // weight) % f.order)
    # Mixed-radix accumulation: every partial value is an index below order.
    add = np.zeros((order, order), dtype=TABLE_DTYPE)
    mul = np.zeros((order, order), dtype=TABLE_DTYPE)
    for f, d in zip(factors, digits):
        for table, factor_table in ((add, f.add_table), (mul, f.mul_table)):
            table *= f.order
            table += factor_table[d[:, None], d[None, :]]
    labels = [
        "(" + ",".join(f.labels[int(d[i])] for f, d in zip(factors, digits)) + ")"
        for i in range(order)
    ]
    zero = one = 0
    for f in factors:
        zero = zero * f.order + f.zero
        one = one * f.order + f.one
    name = "x".join(f.spec_name for f in factors)
    return FiniteRing(order, add, mul, zero, one, labels, name, _owned=True)


# ---------------------------------------------------------------------------
# Axioms


def verify_ring_axioms(ring: FiniteRing) -> list[str]:
    """Exhaustively check the commutative-ring axioms.

    Returns a list of human-readable violations; an empty list means the
    tables describe a commutative ring with nonzero unity.  Each axiom
    reports only its first offending tuple.
    """
    n = ring.order
    add, mul = ring.add_table, ring.mul_table
    lab = ring.labels
    out: list[str] = []

    if ring.zero == ring.one:
        out.append("unity coincides with zero (the one-element ring is rejected)")

    def first2(mask: np.ndarray) -> tuple[int, int]:
        a, b = np.argwhere(mask)[0]
        return int(a), int(b)

    if (add != add.T).any():
        a, b = first2(add != add.T)
        out.append(f"addition not commutative at ({lab[a]}, {lab[b]})")
    arange = np.arange(n)
    if (add[ring.zero] != arange).any():
        b = int(np.nonzero(add[ring.zero] != arange)[0][0])
        out.append(f"zero is not an additive identity at {lab[b]}")
    if (np.sort(add, axis=1) != arange).any():
        a = int(np.argwhere((np.sort(add, axis=1) != arange).any(axis=1))[0][0])
        out.append(f"addition row of {lab[a]} is not a permutation")
    missing_inverse = ~(add == ring.zero).any(axis=1)
    if missing_inverse.any():
        a = int(np.nonzero(missing_inverse)[0][0])
        out.append(f"{lab[a]} has no additive inverse")
    for a in range(n):
        lhs = add[add[a], :]
        rhs = add[a, add]
        if (lhs != rhs).any():
            b, c = first2(lhs != rhs)
            out.append(f"addition not associative at ({lab[a]}, {lab[b]}, {lab[c]})")
            break

    if (mul != mul.T).any():
        a, b = first2(mul != mul.T)
        out.append(f"multiplication not commutative at ({lab[a]}, {lab[b]})")
    if (mul[ring.one] != arange).any():
        b = int(np.nonzero(mul[ring.one] != arange)[0][0])
        out.append(f"one is not a multiplicative identity at {lab[b]}")
    for a in range(n):
        lhs = mul[mul[a], :]
        rhs = mul[a, mul]
        if (lhs != rhs).any():
            b, c = first2(lhs != rhs)
            out.append(
                f"multiplication not associative at ({lab[a]}, {lab[b]}, {lab[c]})"
            )
            break

    for a in range(n):
        lhs = mul[a, add]
        rhs = add[mul[a][:, None], mul[a][None, :]]
        if (lhs != rhs).any():
            b, c = first2(lhs != rhs)
            out.append(f"distributivity fails at ({lab[a]}, {lab[b]}, {lab[c]})")
            break

    return out


# ---------------------------------------------------------------------------
# Zero-divisors, annihilators, nilpotents


def zero_divisors(ring: FiniteRing) -> frozenset[int]:
    """The set Z(R) of zero-divisors, including 0 (order >= 2).

    x is a zero-divisor when x*y = 0 for some y != 0.  The rows of
    ``mul_table == zero`` are compared a block of about _BLOCK_CELLS cells
    at a time, so no order x order boolean is ever allocated.
    """
    mul, n = ring.mul_table, ring.order
    mask = np.empty(n, dtype=bool)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, n, step):
        block = mul[lo : lo + step] == ring.zero
        block[:, ring.zero] = False
        block.any(axis=1, out=mask[lo : lo + step])
    return frozenset(mask.nonzero()[0].tolist())


def _zero_product_adjacency(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero zero-divisors in ascending order and the fresh boolean
    block of x*y == 0 over them with the diagonal cleared: the vertices and
    adjacency of the zero-divisor graph.

    The block is gathered from ``mul_table`` a block of about _BLOCK_CELLS
    cells at a time.
    """
    mul, zero, n = ring.mul_table, ring.zero, ring.order
    zd = np.array(sorted(zero_divisors(ring)), dtype=np.intp)
    verts = zd[zd != zero]
    adj = np.empty((len(verts), len(verts)), dtype=bool)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, len(verts), step):
        rows = mul.take(verts[lo : lo + step], axis=0)
        np.equal(rows.take(verts, axis=1), zero, out=adj[lo : lo + step])
    adj.flat[:: len(adj) + 1] = False
    return verts, adj


def annihilator(ring: FiniteRing, a: int) -> Ideal:
    """Ann(a) = {r : r*a = 0}."""
    _check_elements(ring, (a,), "element index")
    members = (ring.mul_table[:, a] == ring.zero).nonzero()[0]
    return Ideal(ring, frozenset(members.tolist()))


def is_reduced(ring: FiniteRing) -> bool:
    """True iff the ring has no nonzero nilpotents."""
    nil = ring._nilpotent_mask
    return int(np.count_nonzero(nil)) == int(nil[ring.zero])


def is_field(ring: FiniteRing) -> bool:
    """True iff every nonzero element has a multiplicative inverse."""
    invertible = (ring.mul_table == ring.one).any(axis=1)
    invertible[ring.zero] = True
    return _all(invertible)


# ---------------------------------------------------------------------------
# Ideals


def _check_elements(ring: FiniteRing, elems: Iterable, what: str) -> None:
    """Raise ValueError naming, after ``what``, the first of ``elems`` that
    is not an int or numpy integer in 0..order-1: a gather would truncate
    it, wrap it (a negative index) or overflow on it."""
    for e in elems:
        if not isinstance(e, (int, np.integer)) or not 0 <= e < ring.order:
            raise ValueError(f"{what} {e} is outside 0..{ring.order - 1}")


def ideal_violations(ring: FiniteRing, members: Iterable[int]) -> list[str]:
    """Why a member set fails to be an ideal; empty list iff it is one."""
    given = tuple(members)
    try:
        _check_elements(ring, given, "member")
    except ValueError as err:
        return [str(err)]
    elems = np.array(sorted(set(given)), dtype=np.intp)
    sums = ring.add_table.take(elems, axis=0).take(elems, axis=1)
    return _ideal_test(ring, elems, sums, ring.mul_table.take(elems, axis=1))


def _ideal_test(
    ring: FiniteRing, elems: np.ndarray, sums: np.ndarray, times: np.ndarray
) -> list[str]:
    """Why the ascending index array ``elems`` fails to be an ideal, empty
    iff it is one, read off the tables' gathers ``sums[s, t]`` = elems[s] +
    elems[t] and ``times[r, t]`` = r*elems[t]."""
    out: list[str] = []
    lab = ring.labels
    mask = _mask(ring.order, elems)
    if not mask[ring.zero]:
        out.append("does not contain zero")
    # mask[...] by the uint16 tables, not mask.take: take would first widen
    # each order x |s| table into an intp copy four times its size.
    inside = mask[sums]
    if not _all(inside):
        i, j = np.argwhere(~inside)[0]
        out.append(
            f"not closed under addition: {lab[elems[int(i)]]} + {lab[elems[int(j)]]}"
            f" = {lab[int(sums[i, j])]} is outside"
        )
    inside = mask[times]
    if not _all(inside):
        r, j = np.argwhere(~inside)[0]
        out.append(
            f"not absorbing: {lab[int(r)]} * {lab[elems[int(j)]]}"
            f" = {lab[int(times[r, j])]} is outside"
        )
    return out


def is_ideal(ring: FiniteRing, members: Iterable[int]) -> bool:
    return not ideal_violations(ring, members)


def _mask(order: int, elems: np.ndarray) -> np.ndarray:
    """Boolean membership mask over the elements of the set ``elems``."""
    mask = np.zeros(order, dtype=bool)
    mask[elems] = True
    return mask


# ndarray.any, all and sum run through numpy's Python-level wrappers; a
# whole-array test is one np.count_nonzero call instead, and the sum of a
# boolean mask is its count.  A reduction along an axis keeps the method.


def _any(values: np.ndarray) -> bool:
    """``values.any()``: some entry is nonzero."""
    return int(np.count_nonzero(values)) > 0


def _all(values: np.ndarray) -> bool:
    """``values.all()``: every entry is nonzero."""
    return int(np.count_nonzero(values)) == values.size


def _multiples(ring: FiniteRing, a: int) -> np.ndarray:
    """{r*a : r in R} in ascending order."""
    _check_elements(ring, (a,), "element index")
    return _mask(ring.order, ring.mul_table[:, a]).nonzero()[0]


def principal_ideal(ring: FiniteRing, a: int) -> Ideal:
    """(a) = {r*a : r in R}."""
    return Ideal(ring, frozenset(_multiples(ring, a).tolist()))


def ideal_from_generators(ring: FiniteRing, generators: Iterable[int]) -> Ideal:
    """Smallest ideal containing the generators (a sum of principal ideals)."""
    members = np.array([ring.zero])
    for g in generators:
        members = _sums_with(ring, [members], [_multiples(ring, g)])[0].nonzero()[0]
    return Ideal(ring, frozenset(members.tolist()))


def _principal_ideals(ring: FiniteRing) -> np.ndarray:
    """Boolean (p, order): the membership masks of the p distinct
    principal ideals (a) = {r*a}.

    The multiples of a block of elements, columns of ``mul_table``, are
    scattered into a membership matrix a block of about _BLOCK_CELLS cells
    at a time and packed into one byte row per element; equal byte rows
    are one ideal, in the order of their first element.
    """
    n = ring.order
    multiples = ring.mul_table.T
    packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, n, step):
        block = multiples[lo : lo + step]
        member = np.zeros((len(block), n), dtype=bool)
        member[np.arange(len(block))[:, None], block] = True
        packed[lo : lo + step] = np.packbits(member, axis=1)
    distinct = b"".join(dict.fromkeys([row.tobytes() for row in packed]))
    rows = np.frombuffer(distinct, dtype=np.uint8).reshape(-1, packed.shape[1])
    return np.unpackbits(rows, axis=1, count=n).view(bool)


def _sums_with(
    ring: FiniteRing, lefts: list[np.ndarray], known: list[np.ndarray]
) -> np.ndarray:
    """Boolean (len(lefts) * len(known), order): row a*K + t, with K =
    len(known), marks the sum of the ideals ``lefts[a]`` and ``known[t]``,
    {x + y : x in lefts[a], y in known[t]}, all given as member arrays.

    The members of every ideal of ``lefts`` are stacked, those of every
    ideal of ``known`` laid side by side, and the addition table's block of
    the one against the other is scattered into the rows at once, a block
    of stacked left members of about _BLOCK_CELLS cells at a time.
    """
    n, width = ring.order, len(known)
    stacked = np.concatenate(lefts)
    rights = np.concatenate(known)
    row_of = (np.arange(len(lefts)) * (width * n)).repeat([len(m) for m in lefts])
    offsets = (np.arange(width) * n).repeat([len(m) for m in known])
    sums = np.zeros((len(lefts) * width, n), dtype=bool)
    step = max(1, _BLOCK_CELLS // max(n, len(rights)))
    for lo in range(0, len(stacked), step):
        block = ring.add_table.take(stacked[lo : lo + step], axis=0).take(rights, axis=1)
        at = block + offsets
        if len(lefts) > 1:  # with one left ideal every row offset is 0
            at += row_of[lo : lo + step, None]
        sums.reshape(-1)[at] = True
    return sums


def all_ideals(ring: FiniteRing) -> list[Ideal]:
    """Every ideal of the ring, exactly once.

    Computed as the closure of the principal ideals under pairwise ideal
    sum, then sorted by (size, member indices).  Each ideal is held as its
    ascending member array, keyed by the bytes of its membership mask.  A
    round sums every ideal of its frontier with every ideal known at its
    start, and the sums not known yet are the next round's frontier, so
    every pair of ideals is summed in at least one order.  The frontier's
    sums are one scatter (``_sums_with``) for each group of frontier
    ideals whose rows of sums hold about _BLOCK_CELLS cells.  No ring
    axiom is assumed, so a sum that gives an ideal already known is still
    taken.  The tests compare it with a per-element, per-pair construction
    of the same closure, and with a brute-force subset scan for small
    orders.
    """
    ideals = {row.tobytes(): row.nonzero()[0] for row in _principal_ideals(ring)}
    frontier = list(ideals.values())
    while frontier:
        known = list(ideals.values())
        step = max(1, _BLOCK_CELLS // (len(known) * ring.order))
        fresh: list[np.ndarray] = []
        for lo in range(0, len(frontier), step):
            for row in _sums_with(ring, frontier[lo : lo + step], known):
                key = row.tobytes()
                if key not in ideals:
                    ideals[key] = row.nonzero()[0]
                    fresh.append(ideals[key])
        frontier = fresh
    return [Ideal(ring, m) for m in _sorted_members(ideals.values())]


def is_prime_ideal(ring: FiniteRing, members: Iterable[int]) -> bool:
    """True iff the set is one of the ring's prime ideals: its membership
    mask is a row of ``_primes_from_idempotents``."""
    given = tuple(members)
    try:
        _check_elements(ring, given, "member")
    except ValueError:
        return False
    masks = _primes_from_idempotents(ring, np.arange(ring.order)[:, None])
    return _any((masks == _mask(ring.order, list(given))).all(axis=1))


def _primes_from_idempotents(ring: FiniteRing, second: np.ndarray) -> np.ndarray:
    """Boolean (primes, elements): the membership masks of every prime
    ideal of a finite commutative subring S of R x R, R = ``ring``, one
    row per primitive idempotent: element r*k + t of S has the
    coordinates r and ``second[r, t]``, for an (n, k) index array over R.
    R itself is the grid ``np.arange(n)[:, None]``; a duplication's
    carrier is its ``plus``.

    A finite commutative ring is the product of local rings, one for each
    primitive idempotent e, so its primes are exactly the ideals
    M_e = {x : x*e nilpotent}.  A nonzero idempotent is primitive when no
    other nonzero idempotent f satisfies e*f = f.  Idempotency, e*f = f
    and nilpotency of x*e all hold iff they hold in both coordinates, so
    each is read off R's prime table (``FiniteRing._prime_table``), which
    is computed once per ring; a call pays only for its own grid: the
    idempotent pairs on it, the primitive test by table position, and one
    column gather of the nilpotency table per coordinate.  No ideal
    lattice is needed.
    """
    idempotents, position, below, nil_times = ring._prime_table
    # [a, t]: the place in E of second[E[a], t], -1 off E.  Fancy indexing
    # by the uint16 grid, which take would widen to intp; the grid is read
    # only on the rows whose first coordinate is idempotent, so a is the
    # first coordinate's place too.
    pairs = position[second[idempotents]]
    a, t = (pairs >= 0).nonzero()
    b = pairs[a, t]
    zero = position[ring.zero]
    nonzero = (a != zero) | (b != zero)
    a, b = a[nonzero], b[nonzero]
    # The diagonal of below is set, so a primitive pair is below itself only.
    related = below.take(a, axis=0).take(a, axis=1) & below.take(b, axis=0).take(b, axis=1)
    primitive = related.sum(axis=1) == 1
    # Rows [p, x]: x times primitive p's coordinate is nilpotent.  A table
    # that is no ring's may have no primitive idempotent, and then no row.
    rows = nil_times.T
    first = rows.take(a[primitive], axis=0)[:, :, None]
    masks = first & rows.take(b[primitive], axis=0)[:, second]
    return masks.reshape(len(masks), second.size)


def _minimal_rows(masks: np.ndarray) -> np.ndarray:
    """The rows of a boolean (sets, elements) matrix whose set contains no
    other one strictly, counted on the rows packed eight elements a byte:
    row b lies inside row a when their common bits number b's size, its
    count with itself.  The
    pairwise count is a transient of sets**2 * elements / 8 bytes; a ring
    of order N has at most log2(N) primes, one per nonzero factor, so at
    the duplication order limit 2**14 it is at most 14**2 * 2048 bytes,
    about 0.4 MB.  A matrix that loses no row is returned as it is."""
    if len(masks) < 2:
        return masks
    packed = np.packbits(masks, axis=1)
    common = packed[:, None] & packed
    common = np.bitwise_count(common, out=common).sum(axis=2)
    sizes = common.diagonal()
    inside = (common == sizes) & (sizes < sizes[:, None])
    keep = ~inside.any(axis=1)
    return masks if _all(keep) else masks[keep]


def _sorted_members(arrays: Iterable[np.ndarray]) -> list[frozenset[int]]:
    """The sets of distinct ascending index arrays, sorted by (size,
    member indices): the order of every ideal listing.  Each array's
    list is its own sort key."""
    return [frozenset(m) for _, m in sorted([(len(m), m.tolist()) for m in arrays])]


def _sorted_sets(masks: np.ndarray) -> list[frozenset[int]]:
    """The member sets of a boolean (sets, elements) matrix's rows, sorted
    by (size, member indices)."""
    return _sorted_members(row.nonzero()[0] for row in masks)


def prime_ideals(ring: FiniteRing) -> list[Ideal]:
    """Every prime ideal, sorted by (size, member indices), from the
    ring's primitive idempotents (``_primes_from_idempotents``); the tests
    compare against a complement scan over the ideal lattice."""
    masks = _primes_from_idempotents(ring, np.arange(ring.order)[:, None])
    return [Ideal(ring, m) for m in _sorted_sets(masks)]
