"""Finitely supported exponent tuples.

A column-exponent tuple alpha = (a1, a2, ...) has nonnegative integer
entries, finitely many of them nonzero.  It is stored as a plain Python
tuple with trailing zeros stripped, so two tuples are equal iff they
describe the same exponents.  Entry i (1-based) belongs to column i.

The text form is "(a1,a2,...)" with trailing zeros suppressed; the zero
tuple prints as "(0)".
"""

from __future__ import annotations

ExpTuple = tuple[int, ...]


def exp_tuple(entries) -> ExpTuple:
    """Normalize to canonical form: int entries >= 0, no trailing zeros."""
    t = tuple(int(a) for a in entries)
    if any(a < 0 for a in t):
        raise ValueError(f"negative exponent in tuple {t}")
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def degree(alpha: ExpTuple) -> int:
    """Sum of the entries, |alpha|."""
    return sum(alpha)


def length(alpha: ExpTuple) -> int:
    """Largest index with a nonzero entry; 0 for the zero tuple."""
    return len(exp_tuple(alpha))


def unit(i: int) -> ExpTuple:
    """The tuple e_i with a single 1 in position i (1-based)."""
    if i < 1:
        raise ValueError(f"unit index must be >= 1, got {i}")
    return (0,) * (i - 1) + (1,)


def entry(alpha: ExpTuple, i: int) -> int:
    """Entry at 1-based position i (0 beyond the stored length)."""
    return alpha[i - 1] if 1 <= i <= len(alpha) else 0


def add_at(alpha: ExpTuple, i: int, delta: int) -> ExpTuple:
    """Return alpha with position i changed by delta (result must stay >= 0)."""
    width = max(len(alpha), i)
    entries = list(alpha) + [0] * (width - len(alpha))
    entries[i - 1] += delta
    return exp_tuple(entries)


def scale(alpha: ExpTuple, k: int) -> ExpTuple:
    """Entrywise multiple k*alpha."""
    if k < 0:
        raise ValueError("scale factor must be nonnegative")
    return exp_tuple(a * k for a in alpha)


def add(alpha: ExpTuple, beta: ExpTuple) -> ExpTuple:
    width = max(len(alpha), len(beta))
    return exp_tuple(
        entry(alpha, i) + entry(beta, i) for i in range(1, width + 1)
    )


def compositions(total: int, parts: int):
    """All ways to write `total` as an ordered sum of `parts` >= 0 terms."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def tuples_up_to(maxdeg: int, width: int) -> list[ExpTuple]:
    """Every nonzero tuple with |alpha| <= maxdeg and support within the
    first `width` columns, normalized, in sorted order (which is the
    lexicographic order of the zero-padded tuples)."""
    return sorted(
        exp_tuple(vec) for d in range(1, maxdeg + 1)
        for vec in compositions(d, width)
    )


def format_tuple(alpha: ExpTuple) -> str:
    if not alpha:
        return "(0)"
    return "(" + ",".join(str(a) for a in alpha) + ")"


def parse_tuple(text: str) -> ExpTuple:
    """Parse "(a1,a2,...)"; surrounding parentheses optional."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ValueError(f"empty exponent tuple in {text!r}")
    try:
        return exp_tuple(int(part) for part in s.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse exponent tuple {text!r}: {exc}") from None
