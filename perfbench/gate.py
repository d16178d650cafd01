"""Correctness gate: output parsers, independent oracles and reference checks.

Nothing here imports gaugestrata. Labels are handled as canonical pair
tuples ((k1, m1), (k2, m2), ...) sorted in descending order, so a parsed
label compares equal to the oracle's label whatever order the program
printed it in.

Per query the gate compares parsed fields, never raw bytes, so additive
output (extra JSON keys, extra text after a verdict, extra dot attributes)
passes:

* the label set against an independent enumeration of pair multisets;
* d_S4 and d_S2xS2 against the closed formulas re-implemented below;
* S^4, S^2xS^2, T^4 and dim-2/3 verdicts against the divisibility rules;
* CP^2 verdicts against references recorded by ``record.py``;
* edge sets against recorded SHA-256 digests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from functools import lru_cache

Pairs = tuple  # canonical label: tuple of (k, m) pairs, descending

_LABEL_RE = re.compile(r"\(\s*([0-9,\s]+)\|\s*([0-9,\s]+)\)")
_LABEL_TEXT = r"\([0-9 ,]+\|[0-9 ,]+\)"


class Mismatch(Exception):
    """A query's output disagrees with the reference or an oracle."""


# --- labels -----------------------------------------------------------------

def canon(ks, ms) -> Pairs:
    return tuple(sorted(zip(ks, ms), reverse=True))


def parse(text: str) -> Pairs:
    match = _LABEL_RE.fullmatch(text.strip())
    if not match:
        raise Mismatch(f"unparsable label {text!r}")
    ks = [int(t) for t in re.split(r"[,\s]+", match.group(1).strip()) if t]
    ms = [int(t) for t in re.split(r"[,\s]+", match.group(2).strip()) if t]
    if len(ks) != len(ms) or not ks:
        raise Mismatch(f"malformed label {text!r}")
    return canon(ks, ms)


def fmt(pairs: Pairs) -> str:
    return "({}|{})".format(" ".join(str(k) for k, _ in pairs),
                            " ".join(str(m) for _, m in pairs))


def total(pairs: Pairs) -> int:
    return sum(k * m for k, m in pairs)


def order_key(pairs: Pairs):
    return (tuple(k for k, _ in pairs), tuple(m for _, m in pairs))


@lru_cache(maxsize=None)
def labels_of(n: int) -> tuple:
    """Every pair multiset with sum(k*m) = n, in ``order_key`` order."""
    out = []

    def descend(rem, top, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for k in range(1, rem + 1):
            for m in range(1, rem // k + 1):
                if (k, m) <= top:
                    acc.append((k, m))
                    descend(rem - k * m, (k, m), acc)
                    acc.pop()

    descend(n, (n + 1, n + 1), [])
    return tuple(sorted(out, key=order_key))


@lru_cache(maxsize=None)
def count_labels(n: int) -> int:
    """Number of labels of SU(n) from the generating function
    prod_j (1 - x^j)^(-tau(j)), tau(j) = number of divisors of j: each part
    size j = k*m can be written as tau(j) distinct pairs."""
    coeffs = [1] + [0] * n
    for j in range(1, n + 1):
        for _ in range(sum(1 for d in range(1, j + 1) if j % d == 0)):
            for s in range(j, n + 1):
                coeffs[s] += coeffs[s - j]
    return coeffs[n]


# --- closed-form oracles ----------------------------------------------------

def d_s4(pairs: Pairs) -> int:
    return math.gcd(*(k for k, m in pairs if m != 1))


def d_s2xs2(pairs: Pairs) -> int:
    ks = [k for k, _ in pairs]
    g = math.gcd(*ks)
    kt = [k // g for k in ks]
    acc = d_s4(pairs)
    for a, b in itertools.combinations(range(len(kt)), 2):
        acc = math.gcd(acc, g * kt[a] * kt[b] * (kt[a] + kt[b]))
    for a, b, c in itertools.combinations(range(len(kt)), 3):
        acc = math.gcd(acc, g * kt[a] * kt[b] * kt[c])
    return acc


def divides(d: int, c: int) -> bool:
    return c == 0 if d == 0 else c % d == 0


def gcd_verdict(manifold: str, c2: int, pairs: Pairs) -> bool | None:
    """Presence by the closed rules, or None for CP^2 (recorded instead)."""
    if manifold in ("dim2", "dim3"):
        return True
    if manifold == "s4":
        return divides(d_s4(pairs), c2)
    if manifold in ("s2xs2", "t4"):
        return divides(d_s2xs2(pairs), c2)
    return None


def kernel_basis(ks) -> list[list[int]]:
    """Basis of {a in Z^r : sum k_i a_i = 0}, by unimodular column reduction
    of the row k to (gcd, 0, ..., 0); the columns that end at 0 span it."""
    r = len(ks)
    row = list(ks)
    cols = [[int(i == j) for i in range(r)] for j in range(r)]
    while sum(1 for v in row if v) > 1:
        piv = min((j for j in range(r) if row[j]), key=lambda j: abs(row[j]))
        for j in range(r):
            if j != piv and row[j]:
                q = row[j] // row[piv]
                row[j] -= q * row[piv]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[piv])]
    return [cols[j] for j in range(r) if row[j] == 0]


def cp2_modular(pairs: Pairs, c2: int) -> bool:
    """CP^2 verdict for a label with g = d_S4 > 0: is there a in the kernel
    lattice with c2 + sum(k_i a_i^2)/2 = 0 mod g? Only a mod g*lattice
    matters, so g^(r-1) kernel coordinates suffice."""
    g = d_s4(pairs)
    if g == 0:
        raise ValueError("cp2_modular needs d_S4 > 0")
    ks = [k for k, _ in pairs]
    basis = kernel_basis(ks)
    for t in itertools.product(range(g), repeat=len(basis)):
        a = [sum(ti * v[i] for ti, v in zip(t, basis)) for i in range(len(ks))]
        if (c2 + sum(k * x * x for k, x in zip(ks, a)) // 2) % g == 0:
            return True
    return False


def scaled_jones_c(pairs: Pairs) -> int | None:
    """c for a rank-2 torus (c c c|1 1 1), where the CP^2 form is c times the
    form of Jones' closed criterion; None for any other label."""
    if len(pairs) == 3 and all(m == 1 for _, m in pairs) and len({k for k, _ in pairs}) == 1:
        return pairs[0][0]
    return None


# --- digests and masks -------------------------------------------------------

def edge_digest(edges) -> str:
    lines = sorted(f"{fmt(a)}>{fmt(b)}" for a, b in edges)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


def label_digest(labels) -> str:
    lines = sorted(fmt(j) for j in labels)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


def mask_of(n: int, present: dict) -> str:
    """Presence as a hex bit mask over ``labels_of(n)``."""
    bits = 0
    for i, j in enumerate(labels_of(n)):
        if present[j]:
            bits |= 1 << i
    return format(bits, "x")


# --- output parsers -----------------------------------------------------------

class Parsed:
    """Fields read from one output: labels with optional divisors and
    verdicts, and edges."""

    def __init__(self):
        self.labels: list = []
        self.divisors: dict = {}
        self.present: dict = {}
        self.edges: set = set()

    def add(self, label, ds4=None, ds2=None, present=None):
        self.labels.append(label)
        if ds4 is not None:
            self.divisors[label] = (ds4, ds2)
        if present is not None:
            self.present[label] = present


_TEXT_NODE = re.compile(rf"^({_LABEL_TEXT})(?:\s+(\d+)/(\d+))?(?:\s+(present|absent)\b)?")
_TEXT_EDGE = re.compile(rf"^({_LABEL_TEXT}) -> ({_LABEL_TEXT})\s*$")
_DOT_NODE = re.compile(rf'^\s*"({_LABEL_TEXT})"\s*(?:\[(.*)\])?;\s*$')
_DOT_EDGE = re.compile(rf'^\s*"({_LABEL_TEXT})" -> "({_LABEL_TEXT})"')
_DOT_DIV = re.compile(r"\\n(\d+)/(\d+)")


def parse_text(out: str) -> Parsed:
    p = Parsed()
    for line in out.splitlines():
        edge = _TEXT_EDGE.match(line)
        if edge:
            p.edges.add((parse(edge.group(1)), parse(edge.group(2))))
            continue
        node = _TEXT_NODE.match(line)
        if node:
            ds4 = int(node.group(2)) if node.group(2) else None
            ds2 = int(node.group(3)) if node.group(3) else None
            verdict = None if node.group(4) is None else node.group(4) == "present"
            p.add(parse(node.group(1)), ds4, ds2, verdict)
    return p


def parse_json(out: str) -> Parsed:
    doc = json.loads(out)
    p = Parsed()
    nodes = doc.get("types", doc.get("nodes")) if isinstance(doc, dict) else doc
    for node in nodes:
        if isinstance(node, str):
            p.add(parse(node))
        else:
            p.add(parse(node["label"]), node.get("d_s4"), node.get("d_s2xs2"),
                  node.get("present"))
    if isinstance(doc, dict):
        p.edges = {(parse(a), parse(b)) for a, b in doc.get("edges", [])}
    return p


def parse_dot(out: str, grayed_is_absent: bool) -> Parsed:
    p = Parsed()
    for line in out.splitlines():
        edge = _DOT_EDGE.match(line)
        if edge:
            p.edges.add((parse(edge.group(1)), parse(edge.group(2))))
            continue
        node = _DOT_NODE.match(line)
        if node:
            attrs = node.group(2) or ""
            div = _DOT_DIV.search(attrs)
            verdict = ("fillcolor=lightgray" not in attrs) if grayed_is_absent else None
            p.add(parse(node.group(1)), int(div.group(1)) if div else None,
                  int(div.group(2)) if div else None, verdict)
    return p


def parse_output(out: str, fmt_name: str, grayed_is_absent: bool = False) -> Parsed:
    try:
        if fmt_name == "json":
            return parse_json(out)
        if fmt_name == "dot":
            return parse_dot(out, grayed_is_absent)
        return parse_text(out)
    except (ValueError, KeyError, TypeError) as exc:
        raise Mismatch(f"unparsable {fmt_name} output: {exc}") from exc


# --- checks -----------------------------------------------------------------------

def check_divisors(p: Parsed, require: bool) -> None:
    if require and len(p.divisors) != len(p.labels):
        raise Mismatch("divisors missing from output")
    for label, (ds4, ds2) in p.divisors.items():
        if (ds4, ds2) != (d_s4(label), d_s2xs2(label)):
            raise Mismatch(f"{fmt(label)}: divisors {ds4}/{ds2}, "
                           f"expected {d_s4(label)}/{d_s2xs2(label)}")


def check_label_set(p: Parsed, n: int) -> None:
    if len(p.labels) != len(set(p.labels)) or set(p.labels) != set(labels_of(n)):
        raise Mismatch(f"label set of n={n} differs: {len(p.labels)} printed, "
                       f"{len(labels_of(n))} expected")


def check_verdicts(n: int, manifold: str, c2: int, present: dict, ref_mask: str,
                   jones=None) -> None:
    """Verdicts against the recorded mask; off CP^2 against the closed rules,
    and on CP^2 for (c c c|1 1 1) against ``jones``, the program's closed
    form for -(a1^2 + a1*a2 + a2^2) = c2, a code path apart from its search."""
    if set(present) != set(labels_of(n)):
        raise Mismatch("verdict missing for some label")
    for label, verdict in present.items():
        expected = gcd_verdict(manifold, c2, label)
        if expected is not None and verdict != expected:
            raise Mismatch(f"{fmt(label)} over {manifold} c2={c2}: "
                           f"{'present' if verdict else 'absent'}, rule says otherwise")
        jc = scaled_jones_c(label) if jones and manifold == "cp2" else None
        if jc is not None and verdict != (c2 % jc == 0 and jones(c2 // jc)):
            raise Mismatch(f"{fmt(label)} over cp2 c2={c2} disagrees with Jones' criterion")
    if mask_of(n, present) != ref_mask:
        raise Mismatch(f"verdicts for n={n} {manifold} c2={c2} differ from the reference")


def check_edges(p: Parsed, ref: dict) -> None:
    if len(p.edges) != ref["edges"] or edge_digest(p.edges) != ref["edge_digest"]:
        raise Mismatch(f"edge set differs from the reference: {len(p.edges)} edges, "
                       f"{ref['edges']} expected")

