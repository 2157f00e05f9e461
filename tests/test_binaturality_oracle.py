"""Binaturality as two one-sided laws against the joint law it replaced.

`reference_joint_laws` is the earlier assembly, kept here as the oracle: it
imposes H(Fv∘g∘Fu) = v∘H(g)∘u for every basis triple (u, v, g).
`SepWitness._laws` imposes H(Fv∘g) = v∘H(g) and H(g∘Fu) = H(g)∘u instead.
Each joint row is a left row at g∘Fu plus v composed with a right row at g,
and each one-sided row is the joint law with u or v an identity, so both
systems have the same row space of [A | b] and hence the same reduced form:
rank, particular solution and kernel must be identical, not merely equivalent.
"""

import pytest

from sepcat import (Field, FiniteGroup, GroupAction, Infeasible, SepWitness, equivariant_category,
                    induce_adjunction, separability_solve)
from sepcat.category import LinearCategory, MorSystem, hom_coord_dim, hom_space_basis
from sepcat.linalg import Matrix
from sepcat.standard import point_category, two_point_category


def reference_joint_laws(w):
    f = w.functor
    src, tgt = f.source, f.target
    obj = {x: src.obj(x) for x in src.objects}
    pairs = [(x, y) for x in src.objects for y in src.objects]
    for (x, y) in pairs:
        for t, b in enumerate(hom_space_basis(src, obj[x], obj[y])):
            yield f"retraction ({x},{y})", w.apply(obj[x], obj[y], f.hom_map[(x, y)][t]), b
    for (x, y) in pairs:
        gbasis = hom_space_basis(tgt, f.object_map[x], f.object_map[y])
        if not gbasis:
            continue
        images = [w.apply(obj[x], obj[y], g) for g in gbasis]
        for (x2, y2) in pairs:
            label = f"binaturality ({x},{y})→({x2},{y2})"
            for iu, u in enumerate(hom_space_basis(src, obj[x2], obj[x])):
                fu = f.hom_map[(x2, x)][iu]
                for iv, v in enumerate(hom_space_basis(src, obj[y], obj[y2])):
                    fv = f.hom_map[(y, y2)][iv]
                    for gi, g in enumerate(gbasis):
                        yield (label, w.apply(obj[x2], obj[y2], fv @ g @ fu),
                               v @ images[gi] @ u)


def one_sided_laws(w):
    for _, (label, *_), lhs, rhs in w._laws():
        yield label, lhs, rhs


def assemble(f, laws):
    """The system on a symbolic witness, with unknowns numbered as `separability_solve` does."""
    src = f.source
    sysm = MorSystem(src.field)
    unknowns = {}
    for x, y in src.hom_pairs():
        a = hom_coord_dim(f.target, f.object_map[x], f.object_map[y])
        unknowns[(x, y)] = Matrix(src.field, [sysm.variables(a) for _ in range(src.hom_dim(x, y))],
                                  cols=a)
    for label, lhs, rhs in laws(SepWitness(f, unknowns)):
        sysm.require_equal(lhs, rhs, label)
    return sysm, unknowns


def cyclotomic_table_category(field):
    """One object with End = k[w]/(w² + w + 1), over any field."""
    one, zero = field.one(), field.zero()
    table = [[(one, zero), (zero, one)], [(zero, one), (-one, -one)]]
    return LinearCategory(field, ["pt"], {("pt", "pt"): 2}, {("pt", "pt", "pt"): table},
                          {"pt": (one, zero)}, name="Cw")


def _action(name, field):
    if name == "Z/2 swap on C3":
        z2 = FiniteGroup.cyclic(2)
        g = next(h for h in z2.elements if h != z2.unit)
        return GroupAction.from_permutation(
            z2, two_point_category(field),
            {z2.unit: {"x": "x", "y": "y"}, g: {"x": "y", "y": "x"}})
    if name == "Z/3 on Cw":
        return GroupAction.trivial(FiniteGroup.cyclic(3), cyclotomic_table_category(field))
    n = int(name[2])
    return GroupAction.trivial(FiniteGroup.cyclic(n), point_category(field))


ACTIONS = ["Z/2 on C1", "Z/3 on C1", "Z/4 on C1", "Z/2 swap on C3", "Z/3 on Cw"]
FIELDS = [Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(5)]


def joint_law_failures(w):
    return [label for label, lhs, rhs in reference_joint_laws(w) if lhs != rhs]


@pytest.mark.parametrize("field", FIELDS, ids=lambda k: k.spec_str())
@pytest.mark.parametrize("name", ACTIONS)
def test_one_sided_and_joint_systems_agree(name, field):
    g = induce_adjunction(equivariant_category(_action(name, field))).G
    one_sided, unknowns = assemble(g, one_sided_laws)
    joint, _ = assemble(g, reference_joint_laws)
    got, want = one_sided.solve(), joint.solve()
    assert got.rank == want.rank
    assert got.feasible == want.feasible
    result = separability_solve(g)
    if not want.feasible:
        assert isinstance(got, Infeasible) and isinstance(result, Infeasible)
        assert got.subsystem == want.subsystem == result.subsystem
        assert result.rank == want.rank
        return
    assert got.particular == want.particular
    assert got.kernel == want.kernel
    assert isinstance(result, SepWitness)
    for key, h in unknowns.items():
        assert result.maps[key].data == [[e.eval(want.particular) for e in row] for row in h.data]
    assert joint_law_failures(result) == []
