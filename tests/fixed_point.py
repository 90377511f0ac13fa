"""Fixed-point reference for ``tncuts.optimalize``, for the tests.

It clamps every edge value by the cheapest monochromatic cut for the
edge's own bipartition and by the dimension products of the two sides,
and repeats until nothing changes.  ``optimalize`` computes the closed
form of this fixed point in one pass over the edges.
"""

from __future__ import annotations

from math import prod

from tncuts import TnsModel, min_product_cut


def fixed_point_optimalize(model: TnsModel) -> TnsModel:
    tree = model.tree
    f = dict(model.f)
    dim_bound = {}
    for eid in tree.edges():
        side = tree.leaves_left_of(eid)
        other = tree.leaves - side
        dim_bound[eid] = min(
            prod(model.dims[lab] for lab in side),
            prod(model.dims[lab] for lab in other),
        )
    changed = True
    while changed:
        changed = False
        for eid in tree.edges():
            best = min_product_cut(tree, tree.leaves_left_of(eid), f).product
            new = min(f[eid], best, dim_bound[eid])
            if new < f[eid]:
                f[eid] = new
                changed = True
    return TnsModel(tree, f, dict(model.dims))
