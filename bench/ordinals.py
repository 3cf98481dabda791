"""Just enough ordinal arithmetic to check the engine's printed answers.

The checks compare what the program prints, so they must not lean on the
program's own `cmp` or `nat_prod`.  An ordinal below epsilon_0 is held
here as its Cantor normal form: a tuple of (exponent, coefficient) pairs
with strictly decreasing exponents, each exponent again such a tuple.
Python's tuple order on that form is the ordinal order.
"""

from __future__ import annotations

Cnf = tuple  # tuple[tuple["Cnf", int], ...]

ZERO: Cnf = ()
ONE: Cnf = ((ZERO, 1),)


def parse(text: str) -> Cnf:
    """Read the engine's ordinal syntax: `5`, `w`, `w^2*3+w+1`,
    `w^(w^2+1)*2`."""
    value, pos = _sum(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing text in ordinal {text!r} at {pos}")
    return value


def _sum(text: str, pos: int) -> tuple[Cnf, int]:
    terms: list[tuple[Cnf, int]] = []
    while True:
        term, pos = _term(text, pos)
        terms.append(term)
        if pos < len(text) and text[pos] == "+":
            pos += 1
        else:
            break
    value: Cnf = ZERO
    for term in terms:  # ordinal sum absorbs smaller terms on the left
        if term[1]:
            value = add(value, (term,))
    return value, pos


def _term(text: str, pos: int) -> tuple[tuple[Cnf, int], int]:
    if text.startswith("w", pos):
        pos += 1
        exponent = ONE
        if text.startswith("^", pos):
            pos += 1
            if text.startswith("(", pos):
                exponent, pos = _sum(text, pos + 1)
                if not text.startswith(")", pos):
                    raise ValueError(f"unclosed exponent in {text!r}")
                pos += 1
            elif text.startswith("w", pos):
                exponent, pos = (((ONE, 1),), pos + 1)
            else:
                n, pos = _nat(text, pos)
                exponent = _finite(n)
        coeff = 1
        if text.startswith("*", pos):
            coeff, pos = _nat(text, pos + 1)
        return (exponent, coeff), pos
    n, pos = _nat(text, pos)
    return (ZERO, n), pos


def _nat(text: str, pos: int) -> tuple[int, int]:
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        raise ValueError(f"expected a number in {text!r} at {pos}")
    return int(text[pos:end]), end


def _finite(n: int) -> Cnf:
    return ((ZERO, n),) if n else ZERO


def add(a: Cnf, b: Cnf) -> Cnf:
    """Ordinal sum a + b."""
    if not b:
        return a
    lead = b[0][0]
    kept = tuple(t for t in a if t[0] > lead)
    same = [c for e, c in a if e == lead]
    if same:
        return kept + ((lead, same[0] + b[0][1]),) + b[1:]
    return kept + b


def nat_sum(a: Cnf, b: Cnf) -> Cnf:
    """Hessenberg natural sum: merge the terms, adding coefficients."""
    coeffs: dict[Cnf, int] = {}
    for e, c in a + b:
        coeffs[e] = coeffs.get(e, 0) + c
    return tuple(sorted(coeffs.items(), reverse=True))


def nat_prod(a: Cnf, b: Cnf) -> Cnf:
    """Hessenberg natural product: w^x (.) w^y = w^(x (+) y), distributed."""
    out: Cnf = ZERO
    for ea, ca in a:
        for eb, cb in b:
            out = nat_sum(out, ((nat_sum(ea, eb), ca * cb),))
    return out
