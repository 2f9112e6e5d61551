"""Reference boundary words of a block's base surface for the test suite,
keyed by generator name.

`gm4.bundles.Block` reads its boundary monodromies by position: c1, ...,
c{b-1} and (N c1 ... c{b-1})^-1 for the handle product N.  This module
writes each boundary as a word in named generators (a1, b1, ..., ag, bg or
d1, ..., dq, then c1, ..., c{b-1}), looks each name up in a dict and raises
its image to the word's exponent, so it shares no layout code with the
library: `monodromies`, `handle_product` and `abelianized` are oracles for
`Block.monodromies`, `Block.handle_product` and the boundary rows of
`assembly.first_homology`.
"""
from gm4 import I2


def generator_names(surface):
    if surface.orientable:
        handles = [f"{k}{i}" for i in range(1, surface.genus + 1) for k in "ab"]
    else:
        handles = [f"d{i}" for i in range(1, surface.genus + 1)]
    return tuple(handles + [f"c{i}" for i in range(1, surface.boundary_count)])


def word_inverse(word):
    return tuple((gen, -exp) for gen, exp in reversed(word))


def handle_word(surface):
    """[a1,b1]...[ag,bg], or d1^2 ... dq^2 over a non-orientable base."""
    word = []
    for i in range(1, surface.genus + 1):
        if surface.orientable:
            word += [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]
        else:
            word.append((f"d{i}", 2))
    return tuple(word)


def boundary_words(surface):
    """c1, ..., c{b-1} and the last boundary (N c1 ... c{b-1})^-1."""
    cs = tuple(((f"c{i}", 1),) for i in range(1, surface.boundary_count))
    return cs + (word_inverse(handle_word(surface) + sum(cs, ())),)


def image_map(block):
    return dict(zip(generator_names(block.surface), block.images))


def evaluate(block, word):
    imgs = image_map(block)
    out = I2
    for gen, exp in word:
        out = out @ (imgs[gen] ** exp)
    return out


def handle_product(block):
    return evaluate(block, handle_word(block.surface))


def monodromies(block):
    words = boundary_words(block.surface)
    return {lbl: evaluate(block, w) for lbl, w in zip(block.boundary_labels(), words)}


def abelianized(word):
    """Generator name -> exponent sum of the word, zero sums left out."""
    out = {}
    for gen, exp in word:
        out[gen] = out.get(gen, 0) + exp
    return {gen: exp for gen, exp in out.items() if exp}
