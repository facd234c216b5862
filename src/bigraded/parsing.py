"""The one text grammar of the workbench's inputs.

Every line-based file reader takes its lines from ``content_lines``: ``#``
starts a comment and blank lines are skipped.  The ledger relations reader
(`taut.Ledger.add_relations_file`) passes it one raw line at a time, so it
labels each relation by its raw line number.  Every expression, a CDGA
differential such as ``[sigma,sigma] - 2*x^2*y`` or a tautological class
such as ``3/4*e^2*k1 - t*e*k2``, is split into terms by ``parse_terms``;
the caller decides what each name means.

An expression is an optional sign, then one or more terms joined by ``+``
or ``-``; ``0`` is the zero expression.  A term is a run of factors,
optionally separated by ``*``: a coefficient ``n`` or ``n/m``, or a name
with an optional exponent ``^n``.  Whitespace may surround every token.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError


def content_lines(text: str):
    """``(raw, line)`` for each line of ``text`` that is not blank once its
    ``#`` comment is cut off; ``line`` is that remainder, stripped."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield raw, line


def _tokens(text: str, name_pattern: str) -> list[str]:
    token = re.compile(rf"\s*([+-]|\^|\*|\d+/\d+|\d+|{name_pattern})")
    text = text.rstrip()
    out = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            raise InputError(f"bad expression near {text[pos:pos+20]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _too_long(number: str) -> InputError:
    return InputError(f"number too long: {number[:20]}... has {len(number)} characters")


def parse_terms(text: str, name_pattern: str) -> list[tuple[Fraction, dict[str, int]]]:
    """The terms of ``text``, each as its coefficient and its
    ``{name: exponent}``; names are the tokens matching the regular
    expression ``name_pattern``.  A text with no term, and a ``^`` that does
    not follow a name, are input errors."""
    tokens = _tokens(text, name_pattern)
    terms = []
    sign = 1
    i = 0
    if tokens and tokens[0] in ("+", "-"):
        sign = -1 if tokens[0] == "-" else 1
        i = 1
    while i < len(tokens):
        coeff = Fraction(sign)
        exps: dict[str, int] = {}
        saw_factor = False
        while i < len(tokens) and tokens[i] not in ("+", "-"):
            tok = tokens[i]
            i += 1
            if tok == "*":
                continue
            saw_factor = True
            if tok == "^":
                raise InputError(f"'^' without a name before it in {text!r}")
            if tok[0].isdigit():
                try:
                    coeff *= Fraction(tok)
                except ZeroDivisionError:
                    raise InputError(f"zero denominator in {text!r}") from None
                except ValueError:  # more digits than int() converts
                    raise _too_long(tok) from None
                continue
            e = 1
            if i < len(tokens) and tokens[i] == "^":
                if i + 1 >= len(tokens) or not tokens[i + 1].isdigit():
                    raise InputError(f"bad exponent in {text!r}")
                try:
                    e = int(tokens[i + 1])
                except ValueError:
                    raise _too_long(tokens[i + 1]) from None
                i += 2
            exps[tok] = exps.get(tok, 0) + e
        if not saw_factor:
            raise InputError(f"empty term in {text!r}")
        terms.append((coeff, exps))
        if i < len(tokens):
            sign = -1 if tokens[i] == "-" else 1
            i += 1
            if i == len(tokens):
                raise InputError(f"dangling sign in {text!r}")
    if not terms:
        raise InputError(f"no term in {text!r}")
    return terms
