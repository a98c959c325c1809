"""The outputs of the pipeline on the acceptance-04 corpus are pinned.

One sha256 over the JSON of ``decompose``, ``laurent_expand``, ``phi`` of
that expansion, ``p_res`` and ``p_order`` for every corpus germ, under the
standard inner product and under a fixed non-identity Gram matrix.  A
change to the exact kernel or the cone geometry that keeps every germ
equal in value but changes its structure (term order, factor scaling,
which cone a piece lands in) changes the digest.
"""

import hashlib

from laurentgerms.exact import AmbientSpace, mat
from laurentgerms.expand import laurent_expand, phi
from laurentgerms.exprio import to_json
from laurentgerms.germs import decompose
from laurentgerms.residues import p_order, p_res

from conftest import round_trip_corpus

GRAM = ((3, 1, 0), (1, 2, -1), (0, -1, 4))


def _spaces(k):
    skew = AmbientSpace(k, mat([row[:k] for row in GRAM[:k]]))
    return (AmbientSpace.standard(k), skew)


def test_pipeline_outputs_are_pinned_on_the_corpus():
    # recorded before vec_dot returned ints and before the coordinate
    # re-checks after solve() were removed
    digest = hashlib.sha256()
    for k, f in round_trip_corpus():
        for space in _spaces(k):
            x = laurent_expand(space, f)
            for text in (to_json(decompose(space, f)), to_json(x),
                         to_json(phi(x)), to_json(p_res(space, x)),
                         str(p_order(space, x))):
                digest.update(text.encode())
    assert digest.hexdigest() == (
        "377f5a9dd6096a676cd4699bbc391d3ea3a66a81ca8f0407caf292e0f15db768")
