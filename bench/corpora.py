"""Seeded inputs for the benchmark workloads.

Every generator takes its own ``random.Random`` and returns plain data:
expression text, edge lists, expected closed-form values or CLI argument
vectors.  Nothing here imports wqometer, so a change to the program cannot
change the inputs it is measured on.

Each workload repeats a fixed *design* (sizes, shapes, densities) and lets
the seed draw only the content inside it.  Cost depends mostly on the
design, so two seeds give comparable runs while still feeding the program
different inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import comb


def _cycles(n_ops: int, cycle_len: int) -> int:
    """Whole design cycles needed for at least `n_ops` ops: runs always
    cover whole cycles, so every run has the same make-up."""
    return max(1, -(-n_ops // cycle_len))


def design_rng(workload: str, cycle: int) -> random.Random:
    """The generator for the fixed part of a workload's design: it does
    not depend on the seed."""
    return random.Random(f"{workload}:design:{cycle}")


# ---------------------------------------------------------------------------
# engine-elementary
# ---------------------------------------------------------------------------

# multiplicatively indecomposable leaves >= w^w: the fragment the rewrite
# system normalises completely
ELEMENTARY_LEAVES = ("w^w", "w^(w^2)", "w^(w^3)", "w^(w^w)")

# criterion 01 of the acceptance suite, with the exact values written out
CRITERION_01 = {
    "(w+w)|(w+w)": ("w*4", "w*2", "2"),
    "(w|w)++(w|w)": ("w*4", "w*2", "2"),
    "Pf((w+w)|(w+w))": ("w^2*4", "w*3", "w*3"),
    "Pf((w|w)++(w|w))": ("w^2*2", "w*2", "w"),
}


@dataclass(frozen=True)
class ElementaryItem:
    text: str
    strategy: str  # innermost | outermost
    expected: tuple[str, str, str] | None = None  # hand-written (o, h, w)


def elementary_text(shape: random.Random, size: int, leaves: random.Random) -> str:
    """An elementary expression with exactly `size` constructors: `shape`
    draws the constructors, `leaves` the ordinal leaves."""
    if size == 0:
        return leaves.choice(ELEMENTARY_LEAVES)
    kind = shape.choice(("union", "prod", "words", "multisets", "pf", "pf"))
    if kind in ("union", "prod"):
        left = shape.randint(0, size - 1)
        op = "|" if kind == "union" else "*"
        return (
            f"({elementary_text(shape, left, leaves)}{op}"
            f"{elementary_text(shape, size - 1 - left, leaves)})"
        )
    inner = elementary_text(shape, size - 1, leaves)
    if kind == "words":
        return f"({inner})^<w"
    return f"{'M' if kind == 'multisets' else 'Pf'}({inner})"


def engine_elementary(rng: random.Random, n_ops: int) -> list[ElementaryItem]:
    """The four criterion-01 rows, then cycles of one term for each size
    from 1 to 30 constructors, with the strategy alternating by size.

    The term shapes come from the fixed design, and the seed draws the
    leaves and the order within each cycle.  Normalisation cost varies by
    three orders of magnitude with a term's shape, so with shapes drawn
    from the seed the latency tail followed whichever few shapes a seed
    happened to draw (its spread over ten seeds was 0.23)."""
    items = [ElementaryItem(t, "innermost", v) for t, v in CRITERION_01.items()]
    for c in range(_cycles(n_ops - len(items), 30)):
        shape = design_rng("engine-elementary", c)
        cycle = [
            ElementaryItem(
                elementary_text(shape, size, rng),
                ("innermost", "outermost")[(size + c) % 2],
            )
            for size in range(1, 31)
        ]
        rng.shuffle(cycle)
        items.extend(cycle)
    return items


# ---------------------------------------------------------------------------
# engine-wide
# ---------------------------------------------------------------------------

_PHI_INDICES = ("3", "w", "w+1", "w*2", "w^2", "w^w", "w^2+w*3+1")
_SIM_INDICES = ("w^w", "w^(w^2)", "w^(w^w)")

# Widths stop at 300 parts: left-deep chains of about 335 parts exceed
# CPython's default recursion limit (a known defect of the program), and
# the benchmark only draws inputs on which every operation completes.
WIDE_MIN_PARTS = 10
WIDE_MAX_PARTS = 300
_WIDE_STEP = 10


@dataclass(frozen=True)
class WideItem:
    text: str
    call: str  # invariants | pf_bounds


def wide_part(shape: random.Random, params: random.Random) -> str:
    """A small non-elementary subterm, optionally under Pf, M or ^<w:
    `shape` draws its kind and wrapper, `params` the numbers inside."""
    k = shape.randrange(6)
    if k == 0:
        atom = "o(w+1)"
    elif k == 1:
        atom = str(params.randint(1, 9))
    elif k == 2:
        atom = f"G({params.randint(1, 6)})"
    elif k == 3:
        atom = f"Phi({params.choice(_PHI_INDICES)})"
    elif k == 4:
        atom = "Sim(w)"
    else:  # the elementary members, which the engine normalises
        atom = f"Sim({params.choice(_SIM_INDICES)})"
    wrap = shape.randrange(6)
    if wrap == 3:
        return f"Pf({atom})"
    if wrap == 4:
        return f"M({atom})"
    if wrap == 5:
        return f"{atom}^<w"
    return atom


def wide_text(shape: random.Random, params: random.Random, parts: int, joiner: str) -> str:
    """`parts` subterms joined by one operator throughout (`|` or `++`),
    or by a mix in which `*` runs stay at most three factors long: a long
    product of infinite ordinals makes the natural product's result grow
    with every factor, and single operations then took up to 30 s."""
    out = [wide_part(shape, params)]
    run = 1
    for _ in range(parts - 1):
        if joiner != "mixed":
            op = joiner
        elif run < 3:
            op = shape.choice(("|", "++", "*"))
        else:
            op = shape.choice(("|", "++"))
        run = run + 1 if op == "*" else 1
        out.append(op)
        out.append(wide_part(shape, params))
    return "".join(out)


def engine_wide(rng: random.Random, n_ops: int) -> list[WideItem]:
    """Cycles of one op for each width 10, 20, ..., 300.  The joiner goes
    by rank in the width grid, rotating from cycle to cycle, so each cycle
    costs the same (`|` chains cost most) and every width meets every
    joiner; about one op in four asks for the powerset bounds instead of
    the invariants.

    As for engine-elementary, the shapes (part kinds, wrappers, joiners)
    come from the fixed design and the seed draws the numbers and indices
    inside the parts and the order within each cycle."""
    grid = range(WIDE_MIN_PARTS, WIDE_MAX_PARTS + 1, _WIDE_STEP)
    joiners = ("|", "++", "mixed")
    items: list[WideItem] = []
    for c in range(_cycles(n_ops, len(grid))):
        shape = design_rng("engine-wide", c)
        cycle = [
            WideItem(
                wide_text(shape, rng, parts, joiners[(rank + c) % 3]),
                "pf_bounds" if (rank + c) % 4 == 3 else "invariants",
            )
            for rank, parts in enumerate(grid)
        ]
        rng.shuffle(cycle)
        items.extend(cycle)
    return items


# ---------------------------------------------------------------------------
# oracle-finite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleItem:
    """One finite order: an expression with closed-form invariants, or a
    random quasi-order given as an edge list (`expected` is then None)."""

    family: str
    text: str | None = None
    n: int = 0
    pairs: tuple[tuple[int, int], ...] = ()
    expected: tuple[int, int, int] | None = None  # (mot, height, width)
    iso: tuple[str, str, bool] | None = None  # (A, B, isomorphic?)


def _box_partitions(m: int, k: int) -> list[int]:
    """Coefficients of the Gaussian binomial [m+k choose m]_q: entry r
    counts the partitions of r into at most m parts, each at most k."""
    top = m * k
    # table[p][r] for parts <= j, built up from j = 0 with
    # p(r; p, j) = p(r; p, j-1) + p(r-j; p-1, j)
    table = [[1] + [0] * top for _ in range(m + 1)]
    for j in range(1, k + 1):
        new = [[0] * (top + 1) for _ in range(m + 1)]
        for p in range(m + 1):
            for r in range(top + 1):
                v = table[p][r]
                if p and r >= j:
                    v += new[p - 1][r - j]
                new[p][r] = v
        table = new
    return table[m]


def mn_chain_values(k: int, m: int) -> tuple[int, int, int]:
    """Multisets of size m over a k-chain, ordered by domination: sorted
    tuples compared componentwise, the poset L(m, k-1)."""
    size = comb(k + m - 1, m)
    return size, m * (k - 1) + 1, max(_box_partitions(m, k - 1))


def _lex_tree(rng: random.Random, budget: int) -> tuple[str, tuple[int, int, int]]:
    """A small tree of chains and antichains under `|`, `++` and `.`, with
    the closed form of its invariants (all exact for finite orders)."""
    if budget <= 6:
        k = max(1, budget)
        if rng.random() < 0.5:
            return f"o({k})", (k, k, 1)
        return f"G({k})", (k, 1, k)
    op = rng.choice(("|", "++", "."))
    if op == ".":
        left_budget = rng.randint(2, max(2, int(budget ** 0.5)))
        left, (m1, h1, w1) = _lex_tree(rng, left_budget)
        right, (m2, h2, w2) = _lex_tree(rng, max(1, budget // m1))
        return f"({left}).({right})", (m1 * m2, h1 * h2, w1 * w2)
    left_budget = rng.randint(1, budget - 1)
    left, (m1, h1, w1) = _lex_tree(rng, left_budget)
    right, (m2, h2, w2) = _lex_tree(rng, budget - left_budget)
    if op == "|":
        return f"({left})|({right})", (m1 + m2, max(h1, h2), w1 + w2)
    return f"({left})++({right})", (m1 + m2, h1 + h2, max(w1, w2))


def _family_item(rng: random.Random, family: str, target: int) -> OracleItem:
    """An expression from `family` with roughly `target` elements."""
    if family == "chain-product":
        # near-square shapes: the cost of a chain product depends on its
        # shape as well as its size
        side = int(target ** 0.5)
        n = rng.randint(max(2, side - 3), max(2, side))
        m = max(1, target // n)
        return OracleItem(family, f"o({n})*o({m})", expected=(n * m, n + m - 1, min(n, m)))
    if family == "powerset-antichain":
        k = max(1, target.bit_length() - 1)
        return OracleItem(family, f"Pf(G({k}))", expected=(2**k, k + 1, comb(k, k // 2)))
    if family == "multisets-antichain":
        m = rng.randint(2, 4)
        k = 2
        while comb(k + m, m) <= target:
            k += 1
        size = comb(k + m - 1, m)
        return OracleItem(family, f"Mn(G({k}),{m})", expected=(size, 1, size))
    if family == "multisets-chain":
        m = rng.randint(2, 4)
        k = 2
        while comb(k + m, m) <= target:
            k += 1
        return OracleItem(family, f"Mn(o({k}),{m})", expected=mn_chain_values(k, m))
    if family == "lex":
        text, values = _lex_tree(rng, target)
        return OracleItem(family, text, expected=values)
    raise ValueError(family)


def _random_item(rng: random.Random, n: int, degree: int, glue: int) -> OracleItem:
    """A random DAG on a shuffled order with mean out-degree about
    `degree`, plus `glue` random pairs related both ways, which glues
    each pair, and whatever lies between them, into one class."""
    perm = list(range(n))
    rng.shuffle(perm)
    density = degree / n
    pairs = [
        (perm[a], perm[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    ]
    for _ in range(glue):
        i, j = rng.randrange(n), rng.randrange(n)
        pairs += [(i, j), (j, i)]
    return OracleItem("random", n=n, pairs=tuple(pairs))


def _iso_pair(rng: random.Random) -> tuple[str, str, bool]:
    """Two finite orders with quotients of at most 14 elements, and
    whether they are isomorphic (by a lemma or by a counted invariant)."""
    kind = rng.randrange(4)
    small = ("0", "o(1)", "o(2)", "o(3)", "G(1)", "G(2)", "G(3)")
    pf_sizes = {"0": 1, "o(1)": 2, "o(2)": 3, "o(3)": 4, "G(1)": 2, "G(2)": 4, "G(3)": 8}
    if kind == 0:  # Pf(A | B) = Pf(A) * Pf(B)
        while True:
            a, b = rng.choice(small), rng.choice(small)
            if pf_sizes[a] * pf_sizes[b] <= 14:
                return f"Pf(({a})|({b}))", f"Pf({a})*Pf({b})", True
    if kind == 1:  # Pf(o(n)) = o(n + 1)
        n = rng.randint(0, 12)
        return f"Pf(o({n}))", f"o({n + 1})", True
    if kind == 2:  # products of chains commute
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        return f"o({n})*o({m})", f"o({m})*o({n})", True
    # same number of elements, different heights
    n = rng.choice((2, 3))
    return f"o({n})*o({n + 1})", f"o(1)*o({n * (n + 1)})", False


# One design cycle: (kind, parameter) pairs, in three cost tiers.  Random
# orders span 50..600 elements at four mean degrees, with and without
# glued classes; the expression families span 12..700 elements, so
# build-heavy items (Mn, Pf) sit beside measure-heavy ones (dense random
# orders, large chain products).  Nine slots cost under 30 ms, nine over
# 70 ms, and three copies of Pf(G(8)) at about 40 ms sit between them, so
# over whole cycles the median op falls among those copies, and the ops
# just below the tail percentile come from the three costliest slots.
# Random orders stop at 600 elements: `width` recurses once per
# augmenting-path step, so near 1000 elements it can exceed the default
# recursion limit, and a dense 1000-element order costs about 3.5 s.
ORACLE_CYCLE = (
    ("random", (50, 3, 0)),
    ("chain-product", 700),
    ("random", (100, 10, 0)),
    ("multisets-chain", 200),
    ("powerset-antichain", 16),
    ("random", (400, 1, 0)),
    ("powerset-antichain", 256),
    ("random", (200, 40, 10)),
    ("random", (450, 3, 20)),
    ("lex", 12),
    ("chain-product", 400),
    ("multisets-antichain", 40),
    ("random", (450, 40, 0)),
    ("powerset-antichain", 256),
    ("random", (100, 40, 5)),
    ("multisets-antichain", 150),
    ("chain-product", 12),
    ("random", (600, 3, 0)),
    ("powerset-antichain", 256),
    ("lex", 60),
    ("random", (600, 10, 0)),
)


def oracle_finite(rng: random.Random, n_ops: int) -> list[OracleItem]:
    items = []
    for i in range(_cycles(n_ops, len(ORACLE_CYCLE)) * len(ORACLE_CYCLE)):
        kind, param = ORACLE_CYCLE[i % len(ORACLE_CYCLE)]
        if kind == "random":
            item = _random_item(rng, *param)
        else:
            item = _family_item(rng, kind, param)
        if i % 10 == 9:
            item = replace(item, iso=_iso_pair(rng))
        items.append(item)
    return items


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------


def _small_finite(rng: random.Random) -> str:
    return rng.choice(
        (
            f"o({rng.randint(1, 6)})*o({rng.randint(1, 6)})",
            f"Pf(G({rng.randint(1, 5)}))",
            f"G({rng.randint(1, 4)})++o({rng.randint(1, 5)})",
            f"Mn(G({rng.randint(2, 4)}),{rng.randint(1, 3)})",
            f"o({rng.randint(1, 4)}).G({rng.randint(1, 4)})",
        )
    )


def cli_oneshot(rng: random.Random, n_ops: int) -> list[list[str]]:
    """Argument vectors cycling through all seven subcommands."""
    def make(i: int) -> list[str]:
        cmd = i % 7
        json_flag = ["--json"] if rng.random() < 0.3 else []
        if cmd == 0:
            return ["invariants", elementary_text(rng, rng.randint(1, 6), rng), *json_flag]
        if cmd == 1:
            trace = ["--trace"] if rng.random() < 0.5 else []
            return ["normalize", elementary_text(rng, rng.randint(1, 6), rng), *trace, *json_flag]
        if cmd == 2:
            return ["bounds", wide_text(rng, rng, rng.randint(2, 6), "mixed"), *json_flag]
        if cmd == 3:
            return ["weakmot", elementary_text(rng, rng.randint(1, 6), rng), *json_flag]
        if cmd == 4:
            if rng.random() < 0.5:
                return ["oracle", "--random", str(rng.randint(5, 40)),
                        "--seed", str(rng.randrange(10**6)), *json_flag]
            return ["oracle", _small_finite(rng), *json_flag]
        if cmd == 5:
            return ["check", _small_finite(rng), *json_flag]
        a, b, _ = _iso_pair(rng)
        return ["iso", a, b, *json_flag]

    return [make(i) for i in range(_cycles(n_ops, 7) * 7)]


def corpus_rng(workload: str, seed: int, phase: str = "timed") -> random.Random:
    """A generator private to one workload, seed and phase.  String seeds
    go through SHA-512, so they do not depend on hash randomisation."""
    return random.Random(f"{workload}:{seed}:{phase}")
