"""Binaturality as two one-sided laws against the joint law it replaced.

`reference_joint_laws` is the earlier assembly, kept here as the oracle: it
imposes H(Fv∘g∘Fu) = v∘H(g)∘u for every basis triple (u, v, g).
`SepWitness._laws` imposes H(Fv∘g) = v∘H(g) and H(g∘Fu) = H(g)∘u instead.
Each joint row is a left row at g∘Fu plus v composed with a right row at g,
and each one-sided row is the joint law with u or v an identity, so both
systems have the same row space of [A | b] and hence the same reduced form:
rank, particular solution and kernel must be identical, not merely equivalent.

`separability_solve` decides a right adjoint marked with its adjunction through
the counit section ξ instead (`functors` module docstring), so its outcome is
checked against eliminating the one-sided H system: the same witness maps with
their scalar types, or the same rank, unknowns and first contradicting label.

The ξ route and the monad's e route reach the big system's outcome through one
seam, `linalg.transfer`.  A functor witness keeps only the particular solution, so
the seam's whole result (kernel, free columns, rank) is compared here too, with
each bijection checked per instance: random affine combinations of the small
solutions are pushed (ξ ↦ H_ξ, e ↦ μM∘Me) and pulled back (H ↦ H(η_G), σ ↦ σ∘η).

`reference_all_basis_laws` is the one-sided assembly before its restriction to
the source's generating set: it imposes both one-sided laws for every basis v
and u.  With F a functor, the laws for v₁ and v₂ give the law for v₁∘v₂, so
each of its rows is a combination of the generator rows: again the same row
space of [A | b] and the same solve, from fewer rows.
"""

import os
import random

import pytest

import sepcat.category
import sepcat.functors
import sepcat.linalg
import sepcat.monads

from sepcat import (Field, FiniteGroup, GroupAction, Infeasible, SepWitness, equivariant_category,
                    extract_section, induce_adjunction, monad_from_adjunction,
                    monad_separability_solve, separability_solve)
from sepcat.category import (CatObject, LinearCategory, Morphism, MorSystem, hom_coord_dim,
                             hom_space_basis, unit_morphisms, unit_vectors)
from sepcat.equivariant import EquivariantObject
from sepcat.functors import NatTrans, witness_from_section
from sepcat.linalg import rank_extension, solve_sparse
from sepcat.standard import a2_quiver_category, point_category, two_point_category
from sepcat.workspace import parse_workspace

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "workspace.json")


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


def reference_all_basis_laws(w):
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
        for z in src.objects:
            label = f"binaturality ({x},{y})→({x},{z})"
            for iv, v in enumerate(hom_space_basis(src, obj[y], obj[z])):
                fv = f.hom_map[(y, z)][iv]
                for gi, g in enumerate(gbasis):
                    yield label, w.apply(obj[x], obj[z], fv @ g), v @ images[gi]
            label = f"binaturality ({x},{y})→({z},{y})"
            for iu, u in enumerate(hom_space_basis(src, obj[z], obj[x])):
                fu = f.hom_map[(z, x)][iu]
                for gi, g in enumerate(gbasis):
                    yield label, w.apply(obj[z], obj[y], g @ fu), images[gi] @ u


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
        xs = sysm.variables(src.hom_dim(x, y) * a)
        unknowns[(x, y)] = [xs[k::a] for k in range(a)]
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
    if name == "S_3 on C1":
        return GroupAction.trivial(FiniteGroup.symmetric(3), point_category(field))
    if name == "Z/2 on A2":
        return GroupAction.trivial(FiniteGroup.cyclic(2), a2_quiver_category(field))
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
        assert result.maps[key] == [[e.eval(want.particular) for e in col] for col in h]
    assert joint_law_failures(result) == []


QQ, F2, F5 = Field.rationals(), Field.prime(2), Field.prime(5)
RESTRICTION_CASES = ([(name, field) for name in ACTIONS for field in FIELDS]
                     + [(name, field) for name in ("S_3 on C1", "Z/5 on C1") for field in (QQ, F2, F5)]
                     + [("Z/2 on A2", field) for field in (QQ, F2)]
                     + [(name, None) for name in ("forget_z2_q", "swap_g")])


KAROUBI = "Z/2 on C1 with a Karoubi extra"


def case_functor(name, field):
    """The forgetful functor G of the induced adjunction, or a fixture functor when field is None.

    The Karoubi case adds to the free object an equivariant object on (pt⊕pt, e) with
    e the projection to the first summand and α = Id, so G of it is a Karoubi object."""
    if field is None:
        return parse_workspace(FIXTURE).functor(name)
    if name == KAROUBI:
        act = _action("Z/2 on C1", field)
        one, zero = field.one(), field.zero()
        pt2 = act.base.obj("pt", "pt")
        carrier = CatObject(act.base, pt2.summands,
                            Morphism(act.base, pt2, pt2, [[(one,), (zero,)], [(zero,), (zero,)]]))
        extra = EquivariantObject(act, carrier, {h: carrier.identity() for h in act.group.elements})
        return induce_adjunction(equivariant_category(act, extra={"K": extra})).G
    return induce_adjunction(equivariant_category(_action(name, field))).G


def augmented_rows(sysm):
    """The rows of [A | b], dense."""
    out = []
    for row, const in zip(sysm.rows, sysm.consts):
        vec = [sysm.field.zero()] * (sysm.n + 1)
        for j, v in row.items():
            vec[j] = v
        vec[-1] = const
        out.append(vec)
    return out


def same_row_space(a, b) -> bool:
    ra, rb = augmented_rows(a), augmented_rows(b)
    return not rank_extension(ra, rb, a.field)[1] and not rank_extension(rb, ra, a.field)[1]


def outcome(sol):
    if isinstance(sol, Infeasible):
        return "infeasible", sol.rank, sol.rank_augmented, sol.n_vars, sol.subsystem
    return "feasible", sol.particular, sol.kernel, sol.free, sol.rank, sol.n_vars


def case_id(case):
    name, field = case
    return name if field is None else f"{name} over {field.spec_str()}"


@pytest.mark.parametrize("case", RESTRICTION_CASES, ids=case_id)
def test_generator_laws_and_all_basis_laws_agree(case):
    g = case_functor(*case)
    generated, _ = assemble(g, one_sided_laws)
    every, _ = assemble(g, reference_all_basis_laws)
    assert same_row_space(generated, every)
    assert outcome(generated.solve()) == outcome(every.solve())
    src = g.source
    if sum(map(len, src.generators().values())) < sum(src.hom_dim(*p) for p in src.hom_pairs()):
        assert len(generated.rows) < len(every.rows)


@pytest.mark.parametrize("name,count", [
    ("Z/2 on C1", 1), ("Z/3 on C1", 1), ("Z/4 on C1", 1), ("Z/5 on C1", 1), ("S_3 on C1", 2),
    ("Z/3 on Cw", 2)])
def test_generator_counts(name, count):
    assert sum(map(len, case_functor(name, QQ).source.generators().values())) == count


def test_point_category_has_no_generators():
    assert point_category(QQ).generators() == {("pt", "pt"): []}


def composite_span_dims(cat):
    """Per hom pair, the dimension of the span of all composites of generators and
    identities, grown from the identities by left composition until nothing is new."""
    field = cat.field
    gens = [(y, z, unit_vectors(field, cat.hom_dim(y, z))[i])
            for (y, z), picked in cat.generators().items() for i in picked]
    span = {pair: [] for pair in cat.hom_pairs()}
    for x in cat.objects:
        span[(x, x)].append(list(cat.id_vec(x)))
    grew = True
    while grew:
        grew = False
        for y, z, g in gens:
            for (x, cod), ws in list(span.items()):
                if cod != y or (x, z) not in span:
                    continue
                composites = [cat.compose_vec(x, y, z, g, w) for w in ws]
                new = rank_extension(span[(x, z)], composites, field)[1]
                span[(x, z)].extend(composites[i] for i in new)
                grew = grew or bool(new)
    return {pair: rank_extension(vs, (), field)[0] for pair, vs in span.items()}


@pytest.mark.parametrize("case", RESTRICTION_CASES + [("C1", None)], ids=case_id)
def test_generators_and_identities_span_every_hom_space(case):
    cat = point_category(QQ) if case[0] == "C1" else case_functor(*case).source
    assert composite_span_dims(cat) == {p: cat.hom_dim(*p) for p in cat.hom_pairs()}


def test_dropping_a_generator_changes_the_row_space(monkeypatch):
    g = case_functor("S_3 on C1", QQ)
    every, _ = assemble(g, reference_all_basis_laws)
    generators = LinearCategory.generators

    def weakened(cat):
        gens = {pair: list(picked) for pair, picked in generators(cat).items()}
        gens[[pair for pair, picked in gens.items() if picked][-1]].pop()
        return gens

    monkeypatch.setattr(LinearCategory, "generators", weakened)
    generated, _ = assemble(g, one_sided_laws)
    assert not same_row_space(generated, every)


# Feasible with kernel 3 (S_3 over Q) and 1 (Z/2 swap over Q), infeasible on one object
# (S_3 over F2, Z/3 on Cw over F3) and on several (Z/2 on A2 over F2, the Karoubi case
# over F2), and ambient directions that vanish on a Karoubi hom space.
SOLVE_CASES = (RESTRICTION_CASES + [("forget_z2_f2", None)]
               + [(KAROUBI, field) for field in (QQ, F2, Field.prime(3))])


def typed(maps):
    return {key: [[(type(v), v) for v in col] for col in cols] for key, cols in maps.items()}


@pytest.mark.parametrize("case", SOLVE_CASES, ids=case_id)
def test_separability_solve_matches_the_h_elimination(case):
    g = case_functor(*case)
    assert (g.adjunction is not None) == (case[0] != "swap_g")
    sysm, unknowns = assemble(g, one_sided_laws)
    want = sysm.solve()
    got = separability_solve(g)
    if not want.feasible:
        assert isinstance(got, Infeasible)
        assert ((got.rank, got.rank_augmented, got.n_vars, got.subsystem)
                == (want.rank, want.rank_augmented, want.n_vars, want.subsystem))
        return
    assert isinstance(got, SepWitness)
    assert typed(got.maps) == typed({key: [[e.eval(want.particular) for e in col] for col in cols]
                                     for key, cols in unknowns.items()})


@pytest.mark.parametrize("case", [c for c in SOLVE_CASES if c[0] != "swap_g"], ids=case_id)
def test_a_marked_right_adjoint_solves_only_the_section_system(monkeypatch, case):
    """No H system is eliminated, except to certify a "no" on several source objects."""
    g = case_functor(*case)
    solved = []

    def spy(rows, consts, n_vars, field, labels=None):
        solved.append((len(rows), n_vars, any(str(label).startswith("retraction")
                                              for label in labels or ())))
        return solve_sparse(rows, consts, n_vars, field, labels)

    for module in (sepcat.category, sepcat.functors, sepcat.linalg):  # each caller's name for it
        monkeypatch.setattr(module, "solve_sparse", spy)
    result = separability_solve(g)
    several = len(g.source.objects) > 1 and isinstance(result, Infeasible)
    assert sum(h for *_, h in solved) == several
    shape = {("S_3 on C1", QQ): (222, 36), ("Z/5 on C1", QQ): (130, 25)}.get(case)
    if shape is not None:
        assert [s[:2] for s in solved] == [shape]


def group_order(name):
    return 6 if name.startswith("S_3") else int(name[2])


# Maschke: the marked cases whose characteristic does not divide |G|
FEASIBLE_MARKED = [c for c in SOLVE_CASES if c[0] != "swap_g" and (
    c[0] == "forget_z2_q" if c[1] is None else c[1].char == 0 or group_order(c[0]) % c[1].char)]


def typed_outcome(sol):
    def typed_vec(vec):
        return [(type(v), v) for v in vec]
    return typed_vec(sol.particular), [typed_vec(k) for k in sol.kernel], sol.free, sol.rank, sol.n_vars


def spy_transfer(monkeypatch, module):
    """Record (small result, big result) of each call `module` makes to the seam."""
    calls = []

    def spy(sol, forms, slack, label, field):
        calls.append((sol, sepcat.linalg.transfer(sol, forms, slack, label, field)))
        return calls[-1][1]

    monkeypatch.setattr(module, "transfer", spy)
    return calls


def combinations(sol, field, rng, count=2):
    """Random affine combinations particular + Σ c_i·kernel_i of the solutions."""
    for _ in range(count):
        vec = list(sol.particular)
        for k in sol.kernel:
            c = field.from_int(rng.randint(-3, 3))
            vec = [a + c * b for a, b in zip(vec, k)]
        yield vec


def independent(vectors, field):
    return rank_extension(vectors, (), field)[0] == len(vectors)


def h_coords(adj, xi):
    """H_ξ(e_k) = ε_y∘F(e_k)∘ξ_x on every unit morphism, flattened: ξ pushed to H."""
    g = adj.G
    return [c for x, y in g.source.hom_pairs()
            for e in unit_morphisms(g.target, g.object_map[x], g.object_map[y])
            for c in (adj.counit.components[y] @ adj.F.on_morphism(e) @ xi[x]).coords()]


def e_components(m, vec):
    """The e components that the coordinates vec give, in the e system's unknown order."""
    comps, start = {}, 0
    for x in m.cat.objects:
        dom, cod = m.cat.obj(x), m.squared.object_map[x]
        n = hom_coord_dim(m.cat, dom, cod)
        comps[x] = Morphism.from_coords(m.cat, dom, cod, vec[start:start + n])
        start += n
    return comps


def sigma_of(m, e):
    """e pushed to σ = μM∘Me."""
    return {x: m.mult.at(m.functor.object_map[x]) @ m.functor.on_morphism(ex) for x, ex in e.items()}


@pytest.mark.parametrize("case", FEASIBLE_MARKED, ids=case_id)
def test_the_seam_reports_the_whole_h_solution_and_both_bijections_hold(monkeypatch, case):
    g = case_functor(*case)
    adj, field = g.adjunction, g.source.field
    rng = random.Random(case_id(case))
    want = assemble(g, one_sided_laws)[0].solve()
    assert want.feasible
    calls = spy_transfer(monkeypatch, sepcat.functors)
    assert isinstance(separability_solve(g), SepWitness)
    ((sol, got),) = calls
    assert typed_outcome(got) == typed_outcome(want)

    # ξ ↦ H_ξ ↦ H_ξ(η_G) is the identity, and the pushed ξ kernel is independent
    xi_forms = sepcat.functors._section_solve(adj)[1]
    for vec in combinations(sol, field, rng):
        xi = NatTrans(xi_forms.src, xi_forms.dst, {x: MorSystem.eval_at(u, vec)
                                                   for x, u in xi_forms.components.items()})
        assert extract_section(adj, witness_from_section(adj, xi)).components == xi.components
    assert independent([h_coords(adj, {x: MorSystem.eval_at(u, k, with_const=False)
                                        for x, u in xi_forms.components.items()})
                        for k in sol.kernel], field)

    # e ↦ σ = μM∘Me ↦ σ∘η is the identity, and the pushed e kernel is independent
    m = monad_from_adjunction(adj)
    calls = spy_transfer(monkeypatch, sepcat.monads)
    monad_separability_solve(m)
    ((sol, got),) = calls
    assert got.feasible
    for vec in combinations(sol, field, rng):
        e = e_components(m, vec)
        assert {x: s @ m.unit.components[x] for x, s in sigma_of(m, e).items()} == e
    assert independent([[c for s in sigma_of(m, e_components(m, k)).values() for c in s.coords()]
                        for k in sol.kernel], field)


@pytest.mark.parametrize("case,calls", [(("Z/2 on C1", QQ), 0), (("S_3 on C1", F5), 0),
                                        (("forget_z2_q", None), 0), (("swap_g", None), 1)],
                         ids=lambda v: case_id(v) if isinstance(v, tuple) else str(v))
def test_separability_solve_validates_only_an_unmarked_functor(monkeypatch, case, calls):
    g = case_functor(*case)
    validated = []

    def counting(f):
        validated.append(f)
        return validate(f)

    validate = sepcat.functors.validate_functor
    monkeypatch.setattr(sepcat.functors, "validate_functor", counting)
    separability_solve(g)
    assert len(validated) == calls
