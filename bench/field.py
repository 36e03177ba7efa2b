"""Seeded batches of public `Hyperrational` operations, and their checker.

Operands come from a per-seed pool with a fixed mix of shapes: the values
the engine produces (``k*aleph/n``, ``1/aleph``, plain rationals, Laurent
sums) and quotients of integer polynomials of every degree pair up to 3,
as in ``suites.random_hyperrational``.  The generator keeps each operand's
own coefficient lists, so results are checked by exact rational arithmetic
on those lists (substitution of a large integer for ``aleph``, and the
sign of a cross product for comparisons), not by the field code.
"""

from __future__ import annotations

import operator
import random
import re
from fractions import Fraction

# Operations per batch.  A batch of about 30 ms averages over its operand
# draws, and the tail of a run then holds heavy batches, not scheduler
# hiccups.
BATCH_MIX = (
    ("add", 160),
    ("sub", 140),
    ("mul", 160),
    ("div", 120),
    ("lt", 50),
    ("le", 50),
    ("gt", 50),
    ("ge", 50),
    ("str", 80),
    ("parse", 70),
    ("approx", 70),
)
BATCH_SIZE = sum(n for _, n in BATCH_MIX)

# -- operands ------------------------------------------------------------------------------


def _trim(p: list[int]) -> tuple[int, ...]:
    while p and p[-1] == 0:
        p = p[:-1]
    return tuple(p)


def _poly_text(p) -> str:
    terms = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if c == 0:
            continue
        base = "" if d == 0 else ("aleph" if d == 1 else f"aleph^{d}")
        mag = abs(c)
        body = str(mag) if not base else (base if mag == 1 else f"{mag}*{base}")
        if not terms:
            terms.append(("-" if c < 0 else "") + body)
        else:
            terms.append((" - " if c < 0 else " + ") + body)
    return "".join(terms)


def _poly(rng: random.Random, degree: int) -> tuple[int, ...]:
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    coeffs.append(rng.choice([c for c in range(-9, 10) if c]))
    return tuple(coeffs)


def operand_pool(rng: random.Random) -> list[tuple[str, tuple, tuple]]:
    """(text, numerator, denominator) triples, coefficients lowest degree
    first.  The shape mix is fixed; the seed picks the coefficients."""
    pool = []
    for _ in range(16):
        k, n = rng.randint(1, 60), rng.randint(2, 60)
        pool.append((f"{k}*aleph/{n}", (0, k), (n,)))
        p, q = rng.randint(0, 40), rng.randint(1, 40)
        pool.append((f"{p}/{q}", _trim([p]), (q,)))
        c, n, k = rng.randint(1, 9), rng.randint(2, 9), rng.randint(1, 9)
        pool.append((f"{c}/{n} + {k}/aleph", (k * n, c), (0, n)))
        k, n = rng.randint(1, 9), rng.randint(2, 9)
        pool.append((f"{k}/({n}*aleph)", (k,), (0, n)))
    pool.append(("1/aleph", (1,), (0, 1)))
    pool.append(("aleph", (0, 1), (1,)))
    for _ in range(4):
        for dn in range(4):
            for dd in range(4):
                num, den = _poly(rng, dn), _poly(rng, dd)
                pool.append((f"({_poly_text(num)})/({_poly_text(den)})", num, den))
    return pool


# -- batches -------------------------------------------------------------------------------


def _str(x, _):
    return str(x)


def make_batches(rng: random.Random, pool, values, count: int, hyperrational) -> list[list]:
    """``count`` batches of BATCH_SIZE operations each, as (name, fn, x, y,
    operand indices) entries.  Names are looked up on the module and class
    at call time, so wrappers installed for tracing see every call."""
    h = hyperrational.Hyperrational

    def parse(text, _):
        return h.parse(text)

    def approx(x, _):
        return hyperrational.decimal_approximation(x, 6)

    fns = {
        "add": operator.add,
        "sub": operator.sub,
        "mul": operator.mul,
        "div": operator.truediv,
        "lt": operator.lt,
        "le": operator.le,
        "gt": operator.gt,
        "ge": operator.ge,
        "str": _str,
        "parse": parse,
        "approx": approx,
    }
    quotients = [i for i, (text, _, _) in enumerate(pool) if text.startswith("(")]
    shaped = sorted(set(range(len(pool))) - set(quotients))

    def draw(share: float, ok) -> int:
        while True:
            i = rng.choice(quotients if rng.random() < share else shaped)
            if ok(i):
                return i

    batches = []
    for b in range(count):
        # Most batches draw a quarter of their operands from the polynomial
        # quotients; the last eighth draw only quotients.  The heavy batches
        # are then an eighth of every run, and the tail (the top ten
        # samples) falls inside them rather than on scheduler noise.
        share = 1.0 if b >= count - max(1, count // 8) else 0.25
        names = [name for name, n in BATCH_MIX for _ in range(n)]
        rng.shuffle(names)
        batch = []
        for name in names:
            i = draw(share, lambda k: name != "approx" or len(pool[k][1]) <= len(pool[k][2]))
            j = draw(share, lambda k: name != "div" or bool(pool[k][1]))
            x = pool[i][0] if name == "parse" else values[i]
            batch.append((name, fns[name], x, values[j], i, j))
        batches.append(batch)
    return batches


def run_batch(batch) -> list:
    return [fn(x, y) for _, fn, x, y, _, _ in batch]


# -- checking ------------------------------------------------------------------------------


def _at(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _value(num, den, x) -> Fraction:
    return _at(num, x) / _at(den, x)


def _bound(*polys) -> int:
    """Beyond every real root of every polynomial given (Cauchy bound)."""
    return 1 + max((sum(abs(c) for c in p) for p in polys if p), default=1)


def _mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _sign(p) -> int:
    return 0 if not p else (1 if p[-1] > 0 else -1)


def _compare(a, b) -> int:
    """Sign of a - b for operands (num, den): the sign of the leading
    coefficient of na*db - nb*da, times the signs of the denominators."""
    (na, da), (nb, db) = a, b
    left, right = _mul(na, db), _mul(nb, da)
    width = max(len(left), len(right))
    diff = _trim([(left[i] if i < len(left) else 0) - (right[i] if i < len(right) else 0) for i in range(width)])
    return _sign(diff) * _sign(da) * _sign(db)


_TOKEN = re.compile(r"\s*(?:(\d+)|(aleph)|(\S))")


def evaluate_text(text: str, x: Fraction) -> Fraction:
    """Value of a rendered hyperrational at ``aleph = x``, read with a
    parser of this file's own."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot read {text!r}")
            break
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    tokens.append("")
    at = [0]

    def peek():
        return tokens[at[0]]

    def take():
        at[0] += 1
        return tokens[at[0] - 1]

    def expr():
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    def term():
        value = factor()
        while peek() in ("*", "/"):
            value = value * factor() if take() == "*" else value / factor()
        return value

    def factor():
        tok = take()
        if tok == "-":
            return -factor()
        if tok == "(":
            value = expr()
            if take() != ")":
                raise ValueError(f"unbalanced {text!r}")
            return value
        if tok.isdigit():
            return Fraction(int(tok))
        if tok == "aleph":
            if peek() == "^":
                take()
                return x ** int(take())
            return x
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    value = expr()
    if peek() != "":
        raise ValueError(f"trailing input in {text!r}")
    return value


def signature(result):
    """Comparable form of one result: coefficients for field values."""
    coeffs = getattr(result, "numerator_coefficients", None)
    if coeffs is None:
        return result
    return coeffs, result.denominator_coefficients


def check_result(name, result, i, j, pool, values, substitution_bound, approx_text) -> str | None:
    """None when one operation's result is right.  ``values`` are the
    operands as field values, used only for ``suites.substitution_bound``."""
    a, b = pool[i][1:], pool[j][1:]
    if name in ("lt", "le", "gt", "ge"):
        want = getattr(operator, name)(_compare(a, b), 0)
        return None if result is want else f"{name}({pool[i][0]}, {pool[j][0]}) gave {result!r}"
    if name == "approx":
        num, den = a
        std = Fraction(num[-1], den[-1]) if len(num) == len(den) else Fraction(0)
        want = approx_text(std)
        return None if result == want else f"approx({pool[i][0]}) gave {result!r}, expected {want!r}"
    if name == "str":
        x = Fraction(max(substitution_bound(values[i]), _bound(*a)))
        ok = evaluate_text(result, x) == _value(*a, x)
        return None if ok else f"str({pool[i][0]}) gave {result!r}"
    x = Fraction(max(substitution_bound(values[i], values[j], result), _bound(*a, *b)))
    got = _value(result.numerator_coefficients, result.denominator_coefficients, x)
    if name == "parse":
        want = _value(*a, x)
    else:
        op = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}[name]
        want = op(_value(*a, x), _value(*b, x))
    return None if got == want else f"{name}({pool[i][0]}, {pool[j][0]}) gave {result}"
