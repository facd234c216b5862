"""Finite group presentations and their abelianizations.

Abelianizing a presentation only sees exponent sums: the relators give an
integer matrix (relators x generators) whose Smith normal form reads off the
invariant factors of the abelianization.  Relator words are space-separated
generator tokens, a capitalized initial letter marking an inverse (``a B``
is a * b^-1); compact single-letter words like ``abAB`` are also accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .exactla import SmithForm, abelian_symbol, smith_normal_form, sparse_rows
from .parsing import content_lines


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[tuple[str, ...], ...]  # tokenized words, capital = inverse

    def __post_init__(self):
        lowered = {g.lower() for g in self.generators}
        if len(lowered) != len(self.generators):
            raise InputError("generator names must be distinct up to case")
        for word in self.relators:
            for tok in word:
                if tok.lower() not in lowered:
                    raise InputError(f"relator uses undeclared generator {tok!r}")


def tokenize_word(text: str, generators) -> tuple[str, ...]:
    """Split a relator word into generator tokens.  A word without whitespace
    is one token when it names a declared generator or its inverse, and is
    otherwise in compact form: every character is a single-letter token."""
    parts = text.split()
    if len(parts) == 1 and len(parts[0]) > 1:
        if parts[0].lower() not in {g.lower() for g in generators}:
            return tuple(parts[0])
    return tuple(parts)


def presentation(gens, relator_words) -> Presentation:
    gens = tuple(gens)
    return Presentation(
        generators=gens,
        relators=tuple(
            tokenize_word(w, gens) if isinstance(w, str) else tuple(w) for w in relator_words
        ),
    )


@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    torsion: tuple[int, ...]  # divisibility chain, entries > 1

    def symbol(self) -> str:
        return abelian_symbol(self.torsion, self.free_rank)


def exponent_matrix(p: Presentation) -> list[list[int]]:
    """Relators-by-generators matrix of exponent sums."""
    gidx = {g: j for j, g in enumerate(p.generators)}
    rows = []
    for word in p.relators:
        row = [0] * len(p.generators)
        for tok in word:
            if tok.lower() in gidx and tok != tok.lower():
                row[gidx[tok.lower()]] -= 1
            elif tok in gidx:
                row[gidx[tok]] += 1
            else:
                raise InputError(f"bad token {tok!r} in relator")
        rows.append(row)
    return rows


def abelianization(p: Presentation) -> AbelianInvariants:
    rows = exponent_matrix(p)
    if not rows:
        return AbelianInvariants(free_rank=len(p.generators), torsion=())
    n = len(p.generators)
    sf: SmithForm = smith_normal_form(sparse_rows(rows, n), n)
    return AbelianInvariants(
        free_rank=sf.free_rank, torsion=tuple(d for d in sf.factors if d > 1)
    )


def parse_presentation(text: str) -> Presentation:
    """Presentation file: ``gens: a b`` then ``rel: a b a B A B`` lines, each
    relator read by `tokenize_word`, so ``rel: abAB`` is read too."""
    gens: list[str] = []
    rels: list[str] = []
    for raw, line in content_lines(text):
        if line.startswith("gens:"):
            gens.extend(line[5:].split())
        elif line.startswith("rel:"):
            rels.append(line[4:])
        else:
            raise InputError(f"bad presentation line: {raw!r}")
    if not gens:
        raise InputError("presentation has no generators")
    return presentation(gens, rels)


BRAID3 = presentation(["a", "b"], ["a b a B A B"])
