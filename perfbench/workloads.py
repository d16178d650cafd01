"""Seeded query decks for the three workloads.

A run replays one deck of queries, pass after pass. Every deck of a
workload has the same shape (the same number of queries of each class and
cost group); the seed picks the concrete inputs inside each class, and
the order. So the mix of cheap and expensive queries is the same for every
seed, and the end-to-end numbers of two seeds are comparable.

Why these workloads:

* ``poset`` -- CLI ``hasse N`` and full ``strata`` queries, n = 7..11.
  Nearly all the work is the label order (``labels``) and the covering
  loop of ``strata.stratification_graph``; ``diophantine`` only takes
  gcds. Full ``strata`` stops at n = 9: one n = 10 query takes 1.5-2.5 s
  on a 2-core x86 host, so a 30 s run holds only 8-12 of them, and the
  tail latency (the 11th-largest sample) flips between them and the
  n = 9 queries with the number of passes that fit. ``hasse`` covers
  n = 10 and 11. The (manifold, c2) of each ``strata`` query comes from
  {s4, s2xs2, t4} x {0, -5, 6, -200} and dim2/dim3 with c2 = 0, drawn
  from four groups of about equal cost: per deck 8 queries at n = 7 and
  at n = 8 (2 per group), 6 at n = 9 (3 from the dearest group, where all
  labels are present, and 1 from each other group), and hasse n = 7..11:
  27 queries. A pass takes about 3 s on a 2-core x86 host, so a 30 s run
  gets about 10 attempts at each query; a deck twice as large, which
  would put the tail at p81 instead of p63, gets 5 to 7, and its
  figures spread about half as much again from seed to seed.
* ``cp2`` -- library ``orbit_types`` sweeps over CP^2 bundles, n = 6..10
  with c2 in [-cap(n), 12], plus n = 11..12 with |c2| <= 12. Nearly all
  the work is ``diophantine.cp2_solvable``: its modular branch (d_S4 > 0)
  and its box branch (d_S4 = 0). c2 takes one value in each of twelve
  equal bands of the range (24 for the cheap n = 6..8, so that the
  median query is the median of many), so every deck has the same
  spread of search sizes; the seed moves it by up to 1 from the band
  centre at n <= 8. The cap is 150, and 120 at n = 10, because the box search ignores the
  budget and grows about as |c2|^3: n = 10 takes 0.5 s at c2 = -100,
  1.8 s at -150 and 7 s at -200 on a 2-core x86 host. Every n = 11..12
  query exits on the default budget today; they stay in as the failures
  a better CP^2 solver has to remove.
* ``lookup`` -- small CLI queries: ``check LABEL M C2`` and
  ``strata --only LABEL`` on labels with n = 14..30, sampled directly as
  random pair multisets, plus ``enumerate N`` twice for each N = 6..18
  and three more times for N = 14 (29 of about 2000 queries, text and
  json in turn). The fixed per-query cost (argparse, ``parse_label``, the
  O(r^3) divisor formula) dominates, so added per-query set-up shows
  here. The eight dearest queries are the enumerate queries with
  N >= 15, the next five those with N = 14: the tail, the eleventh
  dearest, is the middle one of these five, about twice as dear as any
  small query. A garbage collection lands on the same queries in every
  pass, and can make one or two of the five a third dearer; the middle
  one of five stays put from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Full strata kinds (manifold, c2), grouped by cost: at a given n the kinds
# of one group take about as long (the covering loop is cubic in the number
# of present labels), so drawing the same number from each group keeps the
# cost of a deck nearly the same for every seed.
POSET_GROUPS = (
    (("s4", 0), ("s2xs2", 0), ("t4", 0), ("dim2", 0), ("dim3", 0)),
    (("s4", -5), ("s4", 6), ("s4", -200)),
    (("s2xs2", -5), ("t4", -5)),
    (("s2xs2", 6), ("s2xs2", -200), ("t4", 6), ("t4", -200)),
)
POSET_KINDS = [kind for group in POSET_GROUPS for kind in group]
LOOKUP_MANIFOLDS = ("s4", "s2xs2", "t4", "dim3")


@dataclass
class Query:
    """One query: CLI argv, or a library CP^2 sweep, and what to check."""

    check: str               # strata, hasse, only, check, enumerate, cp2
    argv: list = field(default_factory=list)
    n: int = 0
    manifold: str = ""
    c2: int = 0
    fmt: str = "text"
    annotate: bool = False
    label: tuple = ()        # canonical pairs, for only/check


@dataclass(frozen=True)
class Shape:
    """Deck sizes; ``FULL`` is measured, ``SMOKE`` is the self-test."""

    strata_n: dict           # n -> full strata queries from each cost group
    hasse_n: tuple           # one hasse query each
    cp2_n: dict              # n -> (c2 bands, one query each; largest shift of c2)
    cp2_budget_n: tuple
    cp2_budget_copies: int
    lookup_n: tuple
    lookup_small: int        # check queries, and as many strata --only
    enumerate_n: tuple       # one enumerate query each


def cp2_cap(n: int) -> int:
    return 120 if n >= 10 else 150


FULL = Shape(strata_n={7: (2, 2, 2, 2), 8: (2, 2, 2, 2), 9: (3, 1, 1, 1)},
             hasse_n=tuple(range(7, 12)),
             cp2_n={6: (24, 1), 7: (24, 1), 8: (24, 1), 9: (12, 0), 10: (12, 0)}, cp2_budget_n=(11, 12),
             cp2_budget_copies=2, lookup_n=(14, 30), lookup_small=990,
             enumerate_n=tuple(range(6, 19)) * 2 + (14, 14, 14))
SMOKE = Shape(strata_n={4: (1, 1, 1, 1), 5: (1, 0, 0, 1)}, hasse_n=(4, 5),
              cp2_n={4: (2, 1), 5: (2, 1)}, cp2_budget_n=(11,), cp2_budget_copies=1, lookup_n=(6, 9),
              lookup_small=5, enumerate_n=(4, 5, 6))


def _strata_query(n, manifold, c2, fmt, annotate) -> Query:
    argv = ["strata", "--n", str(n), "--manifold", manifold, "--c2", str(c2),
            "--format", fmt] + (["--annotate"] if annotate else [])
    return Query("strata", argv, n=n, manifold=manifold, c2=c2, fmt=fmt, annotate=annotate)


# (format, --annotate) of the i-th query of a class: fixed, so that the
# rendering cost of a deck does not depend on the seed.
RENDER = (("text", False), ("json", False), ("dot", True), ("dot", False))


def poset_deck(rng: random.Random, shape: Shape) -> list:
    deck = []
    for n, copies in shape.strata_n.items():
        kinds = [kind for group, c in zip(POSET_GROUPS, copies) for kind in rng.sample(group, c)]
        deck += [_strata_query(n, *kind, *RENDER[i % len(RENDER)])
                 for i, kind in enumerate(kinds)]
    for i, n in enumerate(shape.hasse_n):
        fmt, annotate = RENDER[i % len(RENDER)]
        deck.append(Query("hasse", ["hasse", str(n), "--format", fmt]
                          + (["--annotate"] if annotate else []),
                          n=n, fmt=fmt, annotate=annotate))
    return deck


def cp2_deck(rng: random.Random, shape: Shape) -> list:
    """c2 on a grid of equal bands per n, one query per band at the band's
    centre moved by at most ``shift``: the search cost grows steeply with
    |c2| and jumps between neighbouring c2, so a wider draw would make the
    deck's cost depend on the seed. At n = 9 and 10, the dearest queries,
    which set the tail and most of queries_per_s, c2 is the band centre."""
    deck = []
    for n, (bands, shift) in shape.cp2_n.items():
        lo, hi = -cp2_cap(n), 12
        width = (hi - lo + 1) / bands
        for band in range(bands):
            c2 = lo + int((band + 0.5) * width) + rng.randint(-shift, shift)
            deck.append(Query("cp2", n=n, manifold="cp2", c2=max(lo, min(hi, c2))))
    for n in shape.cp2_budget_n:
        deck += [Query("cp2", n=n, manifold="cp2", c2=rng.randint(-12, 12))
                 for _ in range(shape.cp2_budget_copies)]
    return deck


def random_label(rng: random.Random, n: int) -> tuple:
    """A random pair multiset with sum(k*m) = n, as canonical pairs."""
    pairs = []
    rem = n
    while rem:
        k = rng.randint(1, min(rem, 8))
        m = rng.randint(1, max(1, min(4, rem // k)))
        pairs.append((k, m))
        rem -= k * m
    return tuple(sorted(pairs, reverse=True))


def _label_arg(rng: random.Random, pairs: tuple) -> str:
    """The label as the CLI reads it, in a random pair order and separator,
    so the program's own canonicalisation is exercised."""
    order = list(pairs)
    rng.shuffle(order)
    sep = rng.choice((" ", ", "))
    return "({}|{})".format(sep.join(str(k) for k, _ in order),
                            sep.join(str(m) for _, m in order))


def lookup_deck(rng: random.Random, shape: Shape) -> list:
    deck = []
    for check in ("check", "only"):
        for _ in range(shape.lookup_small):
            n = rng.randint(*shape.lookup_n)
            pairs = random_label(rng, n)
            manifold = rng.choice(LOOKUP_MANIFOLDS)
            c2 = 0 if manifold == "dim3" else rng.randint(-60, 60)
            text = _label_arg(rng, pairs)
            if check == "check":
                argv = ["check", text, manifold, str(c2)]
                fmt = "text"
            else:
                fmt = rng.choice(("text", "text", "json", "dot"))
                argv = ["strata", "--n", str(n), "--manifold", manifold,
                        "--c2", str(c2), "--only", text, "--format", fmt]
            deck.append(Query(check, argv, n=n, manifold=manifold, c2=c2,
                              fmt=fmt, label=pairs))
    for i, n in enumerate(shape.enumerate_n):
        fmt = ("text", "json")[i % 2]
        deck.append(Query("enumerate", ["enumerate", str(n), "--format", fmt],
                          n=n, fmt=fmt))
    return deck


DECKS = {"poset": poset_deck, "cp2": cp2_deck, "lookup": lookup_deck}


def make_deck(workload: str, seed: int, shape: Shape = FULL) -> list:
    """The seeded queries of one pass, in a seeded order."""
    rng = random.Random(seed)
    deck = DECKS[workload](rng, shape)
    rng.shuffle(deck)
    return deck
