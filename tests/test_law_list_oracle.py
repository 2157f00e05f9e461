"""One law list per witness, against the hand-written assemblies it replaced.

`reference_monad_system` and `reference_section_system` are the earlier
assemblies of `monad_separability_solve` and `section_feasibility`, kept here
as the oracle: each spelled the laws of σ or ξ out a second time, beside the
checker.  Both solvers now impose the lists their checkers read,
`MonadSepWitness._laws` and `section_laws`.

`section_laws` states the laws of ξ as the reference does, so the section
solver must hand the elimination the same rows, constants and labels in the
same order.  `MonadSepWitness._laws` states the bimodule law restricted along
the units (Mμ_x∘e_{Mx} = σ_x and σ_x = μ_{Mx}∘M(e_x) with e = σ∘η), while the
reference keeps the full law Mμ∘σM = σ∘μ = μM∘Mσ.  Each restricted row is a
full row composed with a fixed morphism, and for a natural section of μ the
restricted equations give back the full ones, so both systems must have the
same row space of [A | b]: the same rank, particular solution and kernel, or
the same infeasibility with the same first contradicting label, from fewer
rows.
"""

import os

import pytest

from sepcat import (Field, FiniteGroup, GroupAction, LawViolationError, NatTrans,
                    compose_functors, equivariant_monad, monad_separability_solve,
                    section_feasibility)
from sepcat.category import LinearCategory, MorSystem, hom_space_basis
from sepcat.linalg import rank_extension, solve_sparse
from sepcat.standard import point_category, two_point_category
from sepcat.workspace import parse_workspace

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "workspace.json")


def reference_monad_system(m):
    cat = m.cat
    mf = m.functor
    m2 = m.squared()
    sysm = MorSystem(cat.field)
    unknowns = {x: sysm.unknown(mf.object_map[x], m2.object_map[x]) for x in cat.objects}
    for (x, y), mors in sorted(mf.hom_map.items()):
        for i in range(len(mors)):
            m2_f = m2.hom_map[(x, y)][i]
            sysm.require_equal(m2_f @ unknowns[x], unknowns[y] @ mors[i], "naturality")
    sigma_forms = NatTrans(mf, m2, unknowns, name="σ?")
    for x in cat.objects:
        mx = mf.object_map[x]
        mu_x = m.mult.components[x]
        sysm.require_equal(mu_x @ unknowns[x], mx.identity(), "section law")
        left = mf.on_morphism(mu_x) @ sigma_forms.at(mx)
        mid = unknowns[x] @ mu_x
        right = m.mult.at(mx) @ mf.on_morphism(unknowns[x])
        sysm.require_equal(left, mid, "bimodule left")
        sysm.require_equal(mid, right, "bimodule right")
    return sysm.rows, sysm.consts, sysm.labels


def reference_section_system(adj):
    dcat = adj.G.source
    fg = compose_functors(adj.F, adj.G, name="FG")
    sysm = MorSystem(dcat.field)
    unknowns = {x: sysm.unknown(dcat.obj(x), fg.object_map[x]) for x in dcat.objects}
    for (x, y), mors in sorted(fg.hom_map.items()):
        for m, base in zip(mors, hom_space_basis(dcat, dcat.obj(x), dcat.obj(y))):
            sysm.require_equal(m @ unknowns[x], unknowns[y] @ base, "naturality")
    for x in dcat.objects:
        sysm.require_equal(adj.counit.components[x] @ unknowns[x],
                           dcat.obj(x).identity(), "section law")
    return sysm.rows, sysm.consts, sysm.labels


class _Assembled(Exception):
    pass


def assembled_system(monkeypatch, solver, *args):
    """The MorSystem that `solver` hands to the elimination."""
    def stop(sysm):
        raise _Assembled(sysm)

    monkeypatch.setattr(MorSystem, "solve", stop)
    with pytest.raises(_Assembled) as caught:
        solver(*args)
    return caught.value.args[0]


def augmented_rows(rows, consts, n):
    """The rows of [A | b] as dense vectors."""
    return [[row.get(j, 0) for j in range(n)] + [c] for row, c in zip(rows, consts)]


def outcome(sol):
    if sol.feasible:
        return sol.particular, sol.kernel, sol.rank
    return sol.rank, sol.rank_augmented, sol.n_vars, sol.subsystem


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
    if name == "S_3 on C1":
        return GroupAction.trivial(FiniteGroup.symmetric(3), point_category(field))
    return GroupAction.trivial(FiniteGroup.cyclic(int(name[2])), point_category(field))


ACTIONS = ["Z/2 on C1", "Z/3 on C1", "Z/4 on C1", "Z/2 swap on C3", "Z/3 on Cw", "S_3 on C1"]
FIELDS = [Field.rationals(), Field.prime(2), Field.prime(3)]
ADJUNCTIONS = ["adj_z2_q", "adj_z3_q", "adj_s3_q", "adj_swap_q", "adj_z3_c3q", "adj_z2_f2"]


@pytest.fixture(scope="module")
def workspace():
    return parse_workspace(FIXTURE)


@pytest.mark.parametrize("field", FIELDS, ids=lambda k: k.spec_str())
@pytest.mark.parametrize("name", ACTIONS)
def test_monad_solve_assembles_the_reference_system(monkeypatch, name, field):
    # the same row space as the reference, not the same rows (module docstring)
    m = equivariant_monad(_action(name, field))
    rows, consts, labels = reference_monad_system(m)
    got = assembled_system(monkeypatch, monad_separability_solve, m)
    n = got.n
    reference = augmented_rows(rows, consts, n)
    reduced = augmented_rows(got.rows, got.consts, n)
    rank_reference, extending = rank_extension(reference, reduced, field)
    assert extending == []
    assert rank_extension(reduced, [], field)[0] == rank_reference
    assert (outcome(solve_sparse(got.rows, got.consts, n, field, got.labels))
            == outcome(solve_sparse(rows, consts, n, field, labels)))
    assert len(got.rows) < len(rows)
    assert "bimodule left" in got.labels and "bimodule right" in got.labels


@pytest.mark.parametrize("name", ADJUNCTIONS)
def test_section_solve_assembles_the_reference_system(monkeypatch, workspace, name):
    adj = workspace.adjunction(name)
    want = reference_section_system(adj)
    got = assembled_system(monkeypatch, section_feasibility, adj)
    assert (got.rows, got.consts, got.labels) == want
    assert "section law" in got.labels


def _zero_particular(monkeypatch):
    """Make every feasible solve return the zero vector as its particular solution."""
    solve = MorSystem.solve

    def zeroed(sysm):
        sol = solve(sysm)
        if sol.feasible:
            sol.particular = [sysm.field.zero()] * sysm.n
        return sol

    monkeypatch.setattr(MorSystem, "solve", zeroed)


def test_section_feasibility_rechecks_the_section_law(monkeypatch, adj_z2_q):
    # ξ = 0 is natural, so a naturality re-check alone would pass it
    _zero_particular(monkeypatch)
    with pytest.raises(LawViolationError, match=r"solved section: ε∘ξ = Id"):
        section_feasibility(adj_z2_q)


def test_monad_solve_rechecks_the_section_law(monkeypatch, monad_z2_q):
    _zero_particular(monkeypatch)
    with pytest.raises(LawViolationError, match=r"section law μ∘σ = Id_M"):
        monad_separability_solve(monad_z2_q)
