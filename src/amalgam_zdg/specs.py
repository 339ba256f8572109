"""Parsers for the textual ring and ideal grammars used by the CLI.

Ring specs: ``Z<n>`` with ``n >= 2``, optionally multiplied with the infix
``x`` (up to three factors), e.g. ``Z6``, ``Z2xZ3``, ``Z2xZ2xZ2``.  The
leading ``Z`` is case-insensitive; no whitespace inside a spec.

Ideal specs (relative to a base ring): ``zero``, ``full``, or
``gen(e1,e2,...)`` where each ``e`` is an element label of the base ring
("3" for Z_n, "(1,0)" for products).

A ring's order is the product of its moduli and may not exceed
``MAX_RING_ORDER``; larger specs are rejected before any table is built.
A duplication's order |R|*|I| may not exceed ``MAX_DUPLICATION_ORDER``
(checked by ``amalgam`` when it builds one).
"""

from __future__ import annotations

import math
import re

from .rings import FiniteRing, Ideal, ideal_from_generators, make_zn, product_ring

__all__ = [
    "MAX_RING_ORDER",
    "MAX_DUPLICATION_ORDER",
    "SpecError",
    "parse_ring_spec",
    "ring_spec_name",
    "expand_family",
    "parse_ideal_spec",
]

# A ring of order n is stored as two dense n x n uint16 tables, 32 MiB each
# at this order; product_ring briefly holds one more.
MAX_RING_ORDER = 4096

# The duplication of R along I has order |R|*|I|.  This limit is sized for
# the table path, the library's ``amalgamated_duplication``, which the
# tests' oracles and the benchmark's graph workload build and no command
# does: its two uint16 tables take 512 MiB each at this order, 1 GiB
# together, and its zero-divisor graph adds a boolean adjacency over the
# nonzero zero-divisors, 144 MiB for Z128 along itself (12287 vertices).
# The order is checked before any of its tables is allocated.
MAX_DUPLICATION_ORDER = 16384

_FACTOR_RE = re.compile(r"[Zz]([0-9]+)")
_RANGE_RE = re.compile(r"[Zz]([0-9]+)\.\.[Zz]([0-9]+)")
_GEN_RE = re.compile(r"gen\((.*)\)", re.DOTALL)


class SpecError(ValueError):
    """A ring or ideal spec string could not be parsed."""


def parse_ring_spec(text: str) -> FiniteRing:
    """Build the ring named by a spec string, or raise SpecError."""
    factors = [make_zn(n) for n in _ring_moduli(text)]
    if len(factors) == 1:
        return factors[0]
    return product_ring(factors)


def ring_spec_name(text: str) -> str:
    """The canonical name of the ring a spec string names, which is the
    ``spec_name`` of ``parse_ring_spec(text)``, without building it; raises
    SpecError as that does."""
    return "x".join(f"Z{n}" for n in _ring_moduli(text))


def _ring_moduli(text: str) -> list[int]:
    """The moduli of a ring spec's factors, once the spec is known to be
    well formed and within MAX_RING_ORDER."""
    spec = text.strip()
    if not spec:
        raise SpecError("empty ring spec")
    if any(map(str.isspace, spec)):
        raise SpecError(f"ring spec '{text}' contains whitespace")
    parts = spec.split("x")
    if len(parts) > 3:
        raise SpecError(f"ring spec '{text}' has more than three factors")
    moduli = []
    for part in parts:
        m = _FACTOR_RE.fullmatch(part)
        if m is None:
            raise SpecError(f"unrecognized ring token '{part}' in '{text}'")
        n = _modulus(m.group(1))
        if n < 2:
            raise SpecError(f"modulus in '{part}' must be at least 2")
        moduli.append(n)
    _check_order(math.prod(moduli), text)
    return moduli


def _modulus(digits: str) -> int:
    """The value of a modulus's digit string.  A string of more than
    MAX_RING_ORDER significant digits is above the order limit whatever its
    value, and is rejected before int(), which refuses more than 4300."""
    significant = digits.lstrip("0")
    if len(significant) > MAX_RING_ORDER:
        raise SpecError(
            f"a modulus of {len(significant)} digits puts the ring order "
            f"above the limit of {MAX_RING_ORDER}"
        )
    return int(significant or "0")


def _check_order(order: int, text: str) -> None:
    if order > MAX_RING_ORDER:
        raise SpecError(
            f"ring '{text}' has order {order}, above the limit of {MAX_RING_ORDER}"
        )


def expand_family(text: str) -> list[str]:
    """Expand a comma-separated family list with inclusive ``Za..Zb`` ranges.

    Every entry is validated and returned in canonical spelling.
    """
    if not text or not text.strip():
        raise SpecError("empty ring family")
    out: list[str] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise SpecError(f"empty entry in family '{text}'")
        m = _RANGE_RE.fullmatch(item)
        if m is not None:
            lo, hi = _modulus(m.group(1)), _modulus(m.group(2))
            if lo < 2 or hi < lo:
                raise SpecError(f"bad modulus range '{item}'")
            _check_order(hi, f"Z{hi}")
            out.extend(f"Z{n}" for n in range(lo, hi + 1))
        else:
            out.append(ring_spec_name(item))
    return out


def _split_top_level(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecError(f"unbalanced parentheses in '{text}'")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise SpecError(f"unbalanced parentheses in '{text}'")
    parts.append("".join(current))
    return parts


def parse_ideal_spec(ring: FiniteRing, text: str) -> Ideal:
    """Build an ideal of ``ring`` from ``zero``, ``full``, or ``gen(...)``."""
    spec = text.strip()
    if spec == "zero":
        return Ideal(ring, frozenset({ring.zero}))
    if spec == "full":
        return Ideal(ring, frozenset(ring.elements()))
    m = _GEN_RE.fullmatch(spec)
    if m is None:
        raise SpecError(
            f"unrecognized ideal spec '{text}' (expected zero, full, or gen(...))"
        )
    body = m.group(1).strip()
    if not body:
        raise SpecError("gen(...) needs at least one element label")
    generators = []
    for token in _split_top_level(body):
        token = token.replace(" ", "")
        if not token:
            raise SpecError(f"empty element label in '{text}'")
        try:
            generators.append(ring.element_index(token))
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    return ideal_from_generators(ring, generators)
