"""The named complexes on their whole enumerated alphabet: the oracle for
`build_paper_complex`, which names only the letters its differential needs
and counts the rest."""

from bigraded import cdga, freealg


def enumerated_paper_complex(preset, box, ell=None):
    """The complex of ``preset``, with the same named differentials, on every
    letter `freealg` enumerates in its letter box, the box with degree bound
    one above: the free Lie basis, or the xi-towers in characteristic 2."""
    spec = cdga._preset(preset, ell)
    letter_box = (box[0], box[1] + 1)
    if spec.field.char == 2:
        alphabet = freealg.cohen_generators_f2(spec.gens, letter_box)
    else:
        alphabet = freealg.free_graded_lie_basis(spec.gens, letter_box)
    return cdga._assemble(spec, alphabet, letter_box)
