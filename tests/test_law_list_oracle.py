"""One law list per witness, against the hand-written assemblies it replaced.

`reference_monad_system` and `reference_section_system` are the earlier
assemblies of `monad_separability_solve` and `section_feasibility`, kept here
as the oracle: each spelled the laws of σ or ξ out a second time, beside the
checker.  `section_feasibility` imposes `section_laws`, the list its checker
reads, which states the laws of ξ as the reference does, so the section solver
must hand the elimination the same rows, constants and labels in the same
order.

`monad_separability_solve` no longer solves for σ at all: it solves for the
separability idempotent e = σ∘η, maps the solutions back through
e ↦ μM∘Me and reduces them to the form elimination returns (`monads` module
docstring).  Its rows therefore share nothing with the reference σ system
(full bimodule law Mμ∘σM = σ∘μ = μM∘Mσ, per object section, left and right),
but its outcome must be exactly that of eliminating the reference: the same
particular solution, kernel, free columns, rank and scalar types, or the same
infeasibility with the same rank, unknowns and first contradicting label.
"""

import os

import pytest

from sepcat import (Field, FiniteGroup, GroupAction, Infeasible, LawViolationError, NatTrans,
                    compose_functors, equivariant_monad, monad_separability_solve,
                    section_feasibility)
from sepcat.category import LinearCategory, MorSystem, hom_space_basis
from sepcat.standard import (a2_quiver_category, dual_numbers_category, point_category,
                             two_point_category)
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
    return sysm, unknowns


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


def outcome(sol):
    """Everything a solve decides; each scalar with its type, so 1 and Fraction(1) differ."""
    if sol.feasible:
        def typed(vec):
            return [(type(v), v) for v in vec]
        return (typed(sol.particular), [typed(k) for k in sol.kernel], sol.free, sol.rank,
                sol.n_vars)
    return sol.rank, sol.rank_augmented, sol.n_vars, sol.subsystem


def cyclotomic_table_category(field):
    """One object with End = k[w]/(w² + w + 1), over any field."""
    one, zero = field.one(), field.zero()
    table = [[(one, zero), (zero, one)], [(zero, one), (-one, -one)]]
    return LinearCategory(field, ["pt"], {("pt", "pt"): 2}, {("pt", "pt", "pt"): table},
                          {"pt": (one, zero)}, name="Cw")


CATEGORIES = {"C1": point_category, "C2": a2_quiver_category, "C3": two_point_category,
              "Cd": dual_numbers_category}


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
    return GroupAction.trivial(FiniteGroup.cyclic(int(name[2])), CATEGORIES[name[-2:]](field))


ACTIONS = ["Z/2 on C1", "Z/3 on C1", "Z/4 on C1", "Z/2 swap on C3", "Z/3 on Cw", "S_3 on C1"]
FIELDS = [Field.rationals(), Field.prime(2), Field.prime(3)]
# trivial Z/2..Z/4 on four small categories over four fields; the cases on
# the point over Q, F2 and F3 are already among ACTIONS × FIELDS
MORE = [(f"Z/{n} on {c}", k) for c in CATEGORIES for n in (2, 3, 4)
        for k in FIELDS + [Field.prime(5)]]
MONAD_CASES = [(name, k) for name in ACTIONS for k in FIELDS]
MONAD_CASES += [case for case in MORE if case not in MONAD_CASES]
ADJUNCTIONS = ["adj_z2_q", "adj_z3_q", "adj_s3_q", "adj_swap_q", "adj_z3_c3q", "adj_z2_f2"]


@pytest.fixture(scope="module")
def workspace():
    return parse_workspace(FIXTURE)


@pytest.mark.parametrize("name,field", [pytest.param(name, k, id=f"{name}-{k.spec_str()}")
                                        for name, k in MONAD_CASES])
def test_monad_solve_assembles_the_reference_system(name, field):
    # the outcome of eliminating the reference σ system, not its rows (module docstring)
    m = equivariant_monad(_action(name, field))
    reference, unknowns = reference_monad_system(m)
    want = reference.solve()
    got = monad_separability_solve(m)
    if not want.feasible:
        assert isinstance(got, Infeasible)
        assert outcome(got) == outcome(want)
        return
    assert outcome(got.solution) == outcome(want)
    assert got.sigma.components == {x: MorSystem.eval_at(u, want.particular)
                                    for x, u in unknowns.items()}


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
