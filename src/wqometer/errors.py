"""Shared exception types.

Each class carries the exit code the CLI returns for it, so raising the
right class matters: parse failures (2), failed side conditions of a
computation rule (3), computations the calculator honestly cannot do (4)
and brute-force size limits (5) are four different kinds of "no".
"""


class WqometerError(Exception):
    """Base class for all calculator errors."""

    exit_code: int


class ParseError(WqometerError):
    """Syntax error, with position and expectation info."""

    exit_code = 2

    def __init__(self, text: str, pos: int, expected: str, found: str | None = None):
        self.text = text
        self.pos = pos
        self.expected = expected
        self.found = found if found is not None else _peek(text, pos)
        super().__init__(
            f"parse error at position {pos}: expected {expected}, found {self.found!r}"
        )


def _peek(text: str, pos: int) -> str:
    return text[pos : pos + 8] if pos < len(text) else "end of input"


class HypothesisNotMet(WqometerError):
    """A rule's side condition failed and there is no fallback.

    ``rule`` names the computation rule, ``condition`` the failed hypothesis.
    """

    exit_code = 3

    def __init__(self, rule: str, condition: str):
        self.rule = rule
        self.condition = condition
        super().__init__(f"hypothesis not met for {rule}: requires {condition}")

    @property
    def reason(self) -> str:
        return f"hypothesis-not-met:{self.rule}:{self.condition}"


class UnsupportedComputation(WqometerError):
    """The calculator has no sound rule for this input."""

    exit_code = 4

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        msg = f"unsupported computation: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class TooLargeError(WqometerError):
    """A brute-force structure or a normal form would exceed its size limit."""

    exit_code = 5

    def __init__(self, what: str, size, limit, unit: str = "elements"):
        self.what = what
        self.size = size
        self.limit = limit
        super().__init__(f"too large: {what} needs {size} {unit}, limit is {limit}")
