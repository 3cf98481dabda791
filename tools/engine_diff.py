"""Compare the engine's reports at a git revision with the working tree's.

    python3 tools/engine_diff.py REF

It extracts REF's `src/wqometer` with `git archive` into a temporary
directory, imports it as the package `wqometer_ref`, and compares, term by
term, what `invariants`, `pf_bounds`, `weak_mot` and `eliminate_pf` give
there and in the working tree's `src/wqometer`: a report's JSON, a printed
ordinal or term, or the type and text of a refusal (parse errors
included).  On an elementary term it also compares the rewrite layer:
`normalize_elementary`, as the printed normal form and the number of
steps, or the refusal, and `is_normal`.  The terms are the first 300 texts of each engine corpus of
the benchmark for the seeds 101 and 7, 6,000 printed `random_any_expr`
terms (`tests/genlib.py`, seed 34), 600 printed elementary terms of
`elementary_terms()`, of which 60 are products of unions, some with
normal forms past `NF_SIZE_LIMIT`, the 10 terms of `refusals()`, which
reach refusals no other term does: a part whose values are too large to
print, a Sim index that fails its hypothesis, a binomial too large, and
chains at the print limit, and the 80 terms of `over_leaves()`, a Pf, M,
^<w or Pf+ directly over each kind of leaf, elementary ones included,
alone and as a part, and the 14 terms of `kept_forms()`, chains of
constructors over a leaf, each twice in a row, so that its second run
meets the eliminated forms its first kept, and the 12 terms of
`chain_laws()`, one for each law at the root of a chain and for each
shape of chain that the engine reads off its built spine.  It prints
the counts and the first difference, and exits 1 on any difference.  Standard library
only; it reads nothing over a network.
"""

from __future__ import annotations

import importlib.util
import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLS = ("invariants", "pf_bounds", "weak_mot", "eliminate_pf")
# compared on the elementary terms only
REWRITE_CALLS = ("normalize_elementary", "is_normal")
SEEDS = (101, 7)
CORPUS_OPS = 300
RANDOM_TERMS = 6000
ELEMENTARY_TERMS = 600


def load(package_dir: Path, name: str):
    """Import the package in `package_dir` under the name `name`; its
    modules import each other relatively, so they load as `name.<module>`."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _report(package, call: str, text: str) -> str:
    try:
        out = getattr(package, call)(package.parse_expr(text))
    except Exception as exc:  # a refusal is compared by its type and text
        return f"{type(exc).__name__}: {exc}"
    if call == "normalize_elementary":
        nf, trace = out
        return f"{package.print_expr(nf)} in {len(trace)} steps"
    return json.dumps(out.to_json()) if hasattr(out, "to_json") else str(out)


def _elementary(package, text: str) -> bool:
    try:
        return package.parse_expr(text).fragment == "elementary"
    except Exception:  # a parse error, compared by the other calls
        return False


def compare(old, new, texts) -> tuple[int, list[tuple[str, str, str, str]]]:
    """The number of comparisons, and each (call, text, old, new) on which
    the packages `old` and `new` differ."""
    diffs = []
    count = 0
    for text in texts:
        for call in CALLS + REWRITE_CALLS * _elementary(new, text):
            count += 1
            a, b = _report(old, call, text), _report(new, call, text)
            if a != b:
                diffs.append((call, text, a, b))
    return count, diffs


def terms(
    corpus_ops: int = CORPUS_OPS,
    random_terms: int = RANDOM_TERMS,
    elementary: int = ELEMENTARY_TERMS,
) -> list[str]:
    """The benchmark's engine texts for `SEEDS`, then the random terms."""
    for path in (ROOT / "bench", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.append(str(path))
    import corpora
    from genlib import random_any_expr, random_elementary, random_union_product
    from wqometer import print_expr

    out = []
    for seed in SEEDS:
        for name, make in (
            ("engine-elementary", corpora.engine_elementary),
            ("engine-wide", corpora.engine_wide),
        ):
            items = make(corpora.corpus_rng(name, seed), corpus_ops)
            out += [item.text for item in items[:corpus_ops]]
    rng = random.Random(34)
    out += [print_expr(random_any_expr(rng, rng.randint(0, 4))) for _ in range(random_terms)]
    rng = random.Random(38)
    for i in range(elementary):
        if i % 10:
            e = random_elementary(rng, rng.randint(1, 40))
        else:
            e = random_union_product(rng, rng.randint(3, 9))
        out.append(print_expr(e))
    return out + refusals() + over_leaves() + kept_forms() + chain_laws()


def refusals() -> list[str]:
    """Terms on which `invariants` or `pf_bounds` meets a refused value
    or hypothesis, which the corpora and the random terms never do."""
    # 15 factors of two leaves: every call refuses its natural product
    p = "*".join(f"(o(w^(w^{2 * i + 1}))|o(w^(w^{2 * i + 2})))" for i in range(15))
    # o <= h (x) w is checked from the leading terms, as h (x) w is refused
    n = 129
    sanity = (
        "(" + "|".join(f"Phi(w^{k})" for k in range(1, n + 1)) + ")++"
        + "++".join(f"Phi(w^{k})" for k in range(n - 1, 0, -1))
    )
    big = "9" * 4300  # the longest literal that prints at the default digit limit
    return [
        p,
        f"({p})++G(2)",
        f"M({p})|G(2)",
        sanity,
        "Sim(3)|G(2)",
        "Pf(Sim(3))",
        "SimExt(w^2,2)",
        "Pf(G(14281))",  # w is C(k, k // 2), refused past k = 14,280 there
        f"o({big})|1|w",
        f"o({big})++o({big})++w",
    ]


def over_leaves() -> list[str]:
    """Each constructor that the engine keeps over a leaf, and Pf+, over
    each kind of leaf, alone and followed by ``++G(2)``: a leaf below w,
    w, one not elementary, an elementary one, an antichain and each
    family, one member failing its hypothesis."""
    leaves = (
        "3", "w", "o(w+1)", "o(w^w)", "G(3)",
        "Phi(w)", "Sim(w)", "Sim(w^w)", "SimExt(w^w,2)", "Sim(3)",
    )
    forms = ("Pf({})", "M({})", "({})^<w", "Pf+({})")
    return [form.format(x) + tail for x in leaves for form in forms for tail in ("", "++G(2)")]


def kept_forms() -> list[str]:
    """Chains of Pf, M and ^<w over leaves that elimination rewrites (Pf
    of a natural, M and ^<w over G(1)) or keeps, with the unit and zero
    laws and a repeated part, each twice in a row, so that the second run
    reads the eliminated forms that the first kept on the nodes."""
    texts = (
        "Pf(3)++Pf(4)++w",
        "0|Pf(3)|0|G(2)",
        "w*Pf(1)",
        "Pf(1).w",
        "M(G(1))|G(1)^<w|Pf(0)",
        "Pf(o(w))|w",
        "Pf(5)|Pf(5)|Pf(5)*G(2)",
    )
    return [text for text in texts for _ in range(2)]


def chain_laws() -> list[str]:
    """One chain for each law at its root: a 0 part first, inside and
    last; `++` fusion, printable and at the print limit; a first part that
    elimination turns into a chain of the same kind, a `|` chain whose
    first two parts turn elementary, and one whose parts all do; and
    chains whose parts are omega-elementary."""
    big = "9" * 4300
    return [
        "0|G(2)|w",
        "G(2)|0|w",
        "G(2)|w|0",
        "0++0++w",
        "1++2++w",
        "w++1++2",
        f"o({big})++o({big})++w",
        "((G(2)|w)*1)|G(3)",
        "(o(w^w)*1)|o(w^(w^2))|G(2)",
        "(o(w^w)*1)|o(w^(w^2))",
        "(w|w)++(w|w)",
        "w|w|w",
    ]


def _extract(ref: str, into: Path) -> Path:
    """`ref`'s `src/wqometer`, extracted under `into`."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", ref, "src/wqometer"],
        cwd=ROOT,
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src" / "wqometer"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/engine_diff.py REF", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    texts = terms()
    with tempfile.TemporaryDirectory() as tmp:
        old = load(_extract(argv[0], Path(tmp)), "wqometer_ref")
        import wqometer as new

        count, diffs = compare(old, new, texts)
    print(f"{len(texts)} terms, {count} comparisons, {len(diffs)} differences")
    if diffs:
        call, text, a, b = diffs[0]
        print(f"first: {call}({text})\n  {argv[0]}: {a}\n  working tree: {b}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
