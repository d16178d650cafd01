"""Howe-subgroup labels of SU(n) and their partial order.

A Howe subgroup of SU(n) (a subgroup that is the centralizer of some subset)
is determined, up to conjugacy, by a pair of positive integer sequences
(k, m) with sum(k_i * m_i) = n, taken up to simultaneous permutation.
This module provides canonical representatives of these labels, the
splitting/merging calculus that generates direct successors in the
subgroup-inclusion order, and the resulting Hasse diagram.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import or_


class LabelError(ValueError):
    """Invalid label data or malformed label string."""


@dataclass(frozen=True, order=True)
class HoweLabel:
    """Canonical label (k, m) with all entries >= 1 and sum(k_i*m_i) = n.

    The pairs (k_i, m_i) are stored in descending lexicographic order, so
    two labels related by a simultaneous permutation compare equal. Use
    :func:`canonicalize` to build one from arbitrary input order.
    """

    k: tuple[int, ...]
    m: tuple[int, ...]

    def __post_init__(self):
        if len(self.k) != len(self.m):
            raise LabelError(f"length mismatch: k has {len(self.k)} entries, m has {len(self.m)}")
        if len(self.k) == 0:
            raise LabelError("label must have at least one factor")
        for seq in (self.k, self.m):
            if any(not isinstance(x, int) or x < 1 for x in seq):
                raise LabelError(f"entries must be positive integers, got {seq}")
        if list(self.pairs) != sorted(self.pairs, reverse=True):
            raise LabelError(f"pairs {self.pairs} not in canonical order; use canonicalize()")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.k, self.m))

    @property
    def r(self) -> int:
        """Number of factors."""
        return len(self.k)

    @property
    def n(self) -> int:
        return sum(ki * mi for ki, mi in zip(self.k, self.m))

    def __str__(self) -> str:
        return format_label(self)


def canonicalize(k, m) -> HoweLabel:
    """Build the canonical representative of the label class of (k, m).

    Inputs related by a simultaneous permutation of k and m yield the
    identical result. Raises LabelError on length mismatch or entries < 1.
    """
    k = tuple(k)
    m = tuple(m)
    if len(k) != len(m):
        raise LabelError(f"length mismatch: k has {len(k)} entries, m has {len(m)}")
    pairs = sorted(zip(k, m), reverse=True)
    return HoweLabel(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


_LABEL_RE = re.compile(r"^\s*\(\s*([0-9,\s]+)\|\s*([0-9,\s]+)\)\s*$")


def parse_label(text: str) -> HoweLabel:
    """Parse a label string `(k1 k2 ...|m1 m2 ...)`.

    Separators may be spaces, commas, or both; the result is canonical.
    """
    match = _LABEL_RE.match(text)
    if not match:
        raise LabelError(f"cannot parse label {text!r}; expected '(k1 k2 ...|m1 m2 ...)'")
    try:
        k = [int(tok) for tok in re.split(r"[,\s]+", match.group(1).strip()) if tok]
        m = [int(tok) for tok in re.split(r"[,\s]+", match.group(2).strip()) if tok]
    except ValueError as exc:
        raise LabelError(f"bad integer in label {text!r}") from exc
    if not k or not m:
        raise LabelError(f"empty sequence in label {text!r}")
    return canonicalize(k, m)


def format_label(label: HoweLabel) -> str:
    """Emit the grammar form with single-space separators, e.g. `(6 4 4|2 1 1)`."""
    return "({}|{})".format(" ".join(map(str, label.k)), " ".join(map(str, label.m)))


def enumerate_labels(n: int) -> list[HoweLabel]:
    """All canonical labels with total n, sorted deterministically.

    Labels are emitted directly in canonical form by descending over pair
    multisets, so no dedup pass is needed.
    """
    if n < 1:
        raise LabelError(f"n must be positive, got {n}")
    out: list[HoweLabel] = []

    def descend(remaining: int, max_pair: tuple[int, int], acc: list[tuple[int, int]]):
        if remaining == 0:
            out.append(HoweLabel(tuple(p[0] for p in acc), tuple(p[1] for p in acc)))
            return
        for ki in range(min(max_pair[0], remaining), 0, -1):
            m_top = remaining // ki
            if ki == max_pair[0]:
                m_top = min(m_top, max_pair[1])
            for mi in range(m_top, 0, -1):
                acc.append((ki, mi))
                descend(remaining - ki * mi, (ki, mi), acc)
                acc.pop()

    descend(n, (n, n), [])
    return sorted(out)


def dual(label: HoweLabel) -> HoweLabel:
    """Centralizer label: swap the roles of k and m.

    An involution on canonical labels; it inverts the partial order.
    """
    return canonicalize(label.m, label.k)


def split(label: HoweLabel, i: int, m1: int, m2: int) -> HoweLabel:
    """Split factor i (0-based): duplicate k_i and replace m_i by (m1, m2).

    Requires m_i >= 2 and m1 + m2 = m_i with both parts positive.
    """
    if not 0 <= i < label.r:
        raise LabelError(f"index {i} out of range for r={label.r}")
    if label.m[i] < 2:
        raise LabelError(f"cannot split factor {i}: m_i = 1")
    if m1 < 1 or m2 < 1 or m1 + m2 != label.m[i]:
        raise LabelError(f"split parts ({m1}, {m2}) must be positive and sum to m_i = {label.m[i]}")
    k = label.k[: i + 1] + (label.k[i],) + label.k[i + 1 :]
    m = label.m[:i] + (m1, m2) + label.m[i + 1 :]
    return canonicalize(k, m)


def merge(label: HoweLabel, i: int, j: int) -> HoweLabel:
    """Merge factors i < j (0-based): replace k_i by k_i + k_j, drop factor j.

    Requires m_i = m_j.
    """
    if not 0 <= i < j < label.r:
        raise LabelError(f"need 0 <= i < j < r, got i={i}, j={j}, r={label.r}")
    if label.m[i] != label.m[j]:
        raise LabelError(f"cannot merge: m_i = {label.m[i]} != m_j = {label.m[j]}")
    k = list(label.k)
    m = list(label.m)
    k[i] += k[j]
    del k[j], m[j]
    return canonicalize(k, m)


def direct_successors(label: HoweLabel) -> frozenset[HoweLabel]:
    """Labels covering this one, from all admissible splits and merges."""
    out = set()
    for i in range(label.r):
        mi = label.m[i]
        for m1 in range(1, mi // 2 + 1):
            out.add(split(label, i, m1, mi - m1))
        for j in range(i + 1, label.r):
            if label.m[i] == label.m[j]:
                out.add(merge(label, i, j))
    return frozenset(out)


def descendants(label: HoweLabel) -> frozenset[HoweLabel]:
    """All labels strictly above `label`."""
    labels, pos, up = _order_index(label.n)
    return frozenset(labels[i] for i in _bits(up[pos[label]]))


def leq(a: HoweLabel, b: HoweLabel) -> bool:
    """Partial order: SU(a) is conjugate to a subgroup of SU(b)."""
    if a.n != b.n:
        raise LabelError(f"labels have different totals: {a.n} != {b.n}")
    return a == b or b in descendants(a)


@dataclass(frozen=True)
class HasseDiagram:
    """Covering relation of a finite set of labels, as a DAG."""

    n: int
    nodes: frozenset[HoweLabel]
    edges: frozenset[tuple[HoweLabel, HoweLabel]]

    def successors(self, label: HoweLabel) -> frozenset[HoweLabel]:
        return frozenset(b for a, b in self.edges if a == label)

    def sorted_nodes(self) -> list[HoweLabel]:
        return sorted(self.nodes)

    def sorted_edges(self) -> list[tuple[HoweLabel, HoweLabel]]:
        return sorted(self.edges)


class TransitiveReductionError(RuntimeError):
    """The covering relation implied an edge by a longer path."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _order_index(n: int) -> tuple[list[HoweLabel], dict[HoweLabel, int], list[int]]:
    """Labels of total n, their positions, and each label's up-set as a bitmask.
    Labels are visited in decreasing sum(k_i^2), which strictly increases along
    successor edges; a successor also reachable through another one raises."""
    labels = enumerate_labels(n)
    pos = {label: i for i, label in enumerate(labels)}
    up = [0] * len(labels)
    for label in sorted(labels, key=lambda j: sum(ki * ki for ki in j.k), reverse=True):
        succ = [pos[s] for s in direct_successors(label)]
        succ_mask = sum(1 << i for i in succ)
        implied = reduce(or_, (up[i] for i in succ), 0)
        if succ_mask & implied:
            raise TransitiveReductionError(f"{format_label(label)} has an implied successor")
        up[pos[label]] = succ_mask | implied
    return labels, pos, up


def covering_relation(n: int, nodes) -> HasseDiagram:
    """Covering relation of the label order on `nodes`, labels of total n:
    (a, b) is an edge iff a < b and no node lies strictly between."""
    labels, pos, up = _order_index(n)
    nodes = frozenset(nodes)
    for a in nodes:
        if a.n != n:
            raise LabelError(f"label {format_label(a)} has total {a.n}, expected {n}")
    node_mask = sum(1 << pos[a] for a in nodes)
    edges = set()
    for a in nodes:
        above = up[pos[a]] & node_mask
        implied = reduce(or_, (up[i] for i in _bits(above)), 0)
        edges.update((a, labels[i]) for i in _bits(above & ~implied))
    return HasseDiagram(n=n, nodes=nodes, edges=frozenset(edges))


def hasse_diagram(n: int) -> HasseDiagram:
    """Hasse diagram of all labels with total n."""
    return covering_relation(n, enumerate_labels(n))
