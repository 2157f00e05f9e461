"""The one validation mark: `Functor`, `NatTrans`, `Monad`, `Adjunction`,
`EquivariantObject`, `FiniteGroup`, `GroupAction` and `MModule` keep, as `report`, the
report that their own validator passed, and only `reports.checked` sets it.

- With `checked` patched to ignore kept reports, every golden fixture command writes
  the same bytes: reading a kept report never changes an output.
- A structure rebuilt from a marked one's data starts unmarked; with one component
  changed it fails its validator and stays unmarked.
- An `ast` scan finds `report` assigned only in the eight constructors and the helper.
- The readers: a marked equivariant object inverts its α without composing, every
  monad a builder makes solves without another `validate_monad` call, an
  equivariant report validates its group and its action once, and a derived check
  reads the mark that the solved σ's verification set.
"""

import ast
import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

import sepcat.complexes
import sepcat.monads
import sepcat.reports
from sepcat import (Adjunction, EquivariantObject, Field, FiniteGroup, Functor, GroupAction,
                    Monad, MonadSepWitness, NatTrans, derived_comparison_check,
                    MModule, equivariant_category, free_equivariant, induce_adjunction,
                    monad_from_adjunction, monad_separability_solve, to_module,
                    validate_action, validate_adjunction, validate_functor, validate_module,
                    validate_monad, validate_nat)
from sepcat.category import Morphism
from sepcat.cli import run
from sepcat.reports import checked
from sepcat.standard import point_category, two_point_category
from sepcat.workspace import parse_workspace
from test_failure_reports import bumped, bumped_monad
from test_golden import GOLDEN, ROOT

QQ = Field.rationals()
TWO = QQ.from_int(2)
FIXTURE = Path(ROOT) / "fixtures" / "workspace.json"


def sepcat_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("sepcat")]


@pytest.mark.parametrize("command,code,files", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_ignoring_kept_reports_changes_no_output(command, code, files, tmp_path, monkeypatch):
    def unkept(s, validate):
        return validate(s)

    for module in sepcat_modules():
        if getattr(module, "checked", None) is sepcat.reports.checked:
            monkeypatch.setattr(module, "checked", unkept)
    monkeypatch.chdir(ROOT)
    with contextlib.redirect_stdout(io.StringIO()):
        got = run(["-w", "fixtures/workspace.json", "--out", str(tmp_path)] + command.split())
    assert got == code
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == files


def z3_adjunction():
    return induce_adjunction(equivariant_category(
        GroupAction.trivial(FiniteGroup.cyclic(3), point_category(QQ))))


def rebuilt_functor(f):
    """f's data with its first nonzero hom image doubled."""
    key = next(k for k, mors in f.hom_map.items() if mors)
    mors = f.hom_map[key]
    return f, Functor(f.source, f.target, f.object_map,
                      {**f.hom_map, key: (mors[0].scale(TWO),) + mors[1:]}, name=f.name)


def rebuilt_nat(t):
    """t's data with its first component moved by a unit morphism."""
    x = next(iter(t.components))
    return t, NatTrans(t.src, t.dst, {**t.components, x: bumped(t.components[x])}, name=t.name)


def rebuilt_adjunction(adj):
    counit = NatTrans(adj.counit.src, adj.counit.dst,
                      {x: c.scale(TWO) for x, c in adj.counit.components.items()}, name="2ε")
    return adj, Adjunction(adj.F, adj.G, adj.unit, counit, name=adj.name)


def rebuilt_monad(m):
    return m, bumped_monad(m)


def rebuilt_object(z):
    g = next(h for h in z.action.group.elements if h != z.action.group.unit)
    return z, EquivariantObject(z.action, z.carrier, {**z.alpha, g: z.alpha[g].scale(TWO)},
                                name=z.name)


def free_object(action):
    return free_equivariant(action, action.base.obj(*action.base.objects))


def rebuilt_group():
    """Z/3, validated, and its table with g·g = e, which breaks associativity only."""
    group = FiniteGroup.cyclic(3)
    checked(group, FiniteGroup.validate)
    return group, FiniteGroup(group.elements, {**group.table, ("g", "g"): "e"},
                              unit=group.unit, name=group.name)


def rebuilt_action():
    """The trivial Z/3 on the point, validated, and its data with Φ_g doubled."""
    action = GroupAction.trivial(FiniteGroup.cyclic(3), point_category(QQ))
    checked(action, validate_action)
    _, doubled = rebuilt_functor(action.functors["g"])
    return action, GroupAction(action.group, action.base, {**action.functors, "g": doubled},
                               name=action.name)


def rebuilt_module():
    """The dictionary image of a free S_3-object, validated by `to_module`, and its data
    with λ doubled, which breaks the unit law."""
    m = to_module(free_object(GroupAction.trivial(FiniteGroup.symmetric(3), point_category(QQ))))
    return m, MModule(m.monad, m.carrier, m.action.scale(TWO), name=m.name)


CASES = {
    "functor U": (lambda: rebuilt_functor(z3_adjunction().G), validate_functor),
    "functor F": (lambda: rebuilt_functor(z3_adjunction().F), validate_functor),
    "counit ε": (lambda: rebuilt_nat(z3_adjunction().counit), validate_nat),
    "adjunction": (lambda: rebuilt_adjunction(z3_adjunction()), validate_adjunction),
    "group monad": (lambda: rebuilt_monad(
        GroupAction.trivial(FiniteGroup.cyclic(3), point_category(QQ)).group_monad),
        validate_monad),
    "monad of an adjunction": (lambda: rebuilt_monad(monad_from_adjunction(z3_adjunction())),
                               validate_monad),
    "free object": (lambda: rebuilt_object(free_object(
        GroupAction.trivial(FiniteGroup.symmetric(3), point_category(QQ)))),
        EquivariantObject.validate),
    "group": (rebuilt_group, FiniteGroup.validate),
    "action": (rebuilt_action, validate_action),
    "module": (rebuilt_module, validate_module),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_rebuilt_structure_carries_no_mark(case):
    make, validate = CASES[case]
    marked, changed = make()
    assert marked.report is not None and marked.report.passed
    assert checked(marked, validate) is marked.report
    assert changed.report is None
    for _ in range(2):  # a failing report is never kept
        assert not checked(changed, validate).passed
        assert changed.report is None
    assert not validate(changed).passed


def _assigned_report(tree):
    """(enclosing function, line) of every assignment to an attribute named report."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        for target in targets:
            for t in ast.walk(target):
                if isinstance(t, ast.Attribute) and t.attr == "report":
                    sites.append((where, node.lineno))
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
                and any(isinstance(a, ast.Constant) and a.value == "report" for a in node.args)):
            sites.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return sites


def test_report_is_assigned_only_in_the_constructors_and_the_helper():
    src = Path(ROOT) / "src" / "sepcat"
    sites, valid = {}, []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for where, line in _assigned_report(tree):
            sites.setdefault(f"{path.stem}.{where}", []).append(line)
        valid += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "valid"]
    assert sorted(sites) == ["equivariant.EquivariantObject.__init__",
                             "equivariant.FiniteGroup.__init__",
                             "equivariant.GroupAction.__init__",
                             "functors.Adjunction.__init__", "functors.Functor.__init__",
                             "functors.NatTrans.__init__", "modules.MModule.__init__",
                             "monads.Monad.__init__", "reports.checked"]
    assert all(len(lines) == 1 for lines in sites.values()), sites
    assert valid == []


@pytest.mark.parametrize("action", [
    GroupAction.trivial(FiniteGroup.symmetric(3), point_category(QQ)),
    GroupAction.from_permutation(FiniteGroup.cyclic(2), two_point_category(QQ),
                                 {"e": {"x": "x", "y": "y"}, "g": {"x": "y", "y": "x"}})],
    ids=["S_3 on C1", "Z/2 swap on C3"])
def test_a_marked_object_inverts_its_alphas_without_composing(action, monkeypatch):
    z = free_object(action)
    twin = EquivariantObject(action, z.carrier, z.alpha)
    composed = []
    matmul = Morphism.__matmul__

    def spying(self, other):
        composed.append(self)
        return matmul(self, other)

    monkeypatch.setattr(Morphism, "__matmul__", spying)
    assert z.report is not None and twin.report is None
    inverses = z.alpha_inverse()
    assert composed == []
    assert twin.alpha_inverse() == inverses
    assert len(composed) == 2 * action.group.order


def test_builder_monads_solve_without_validating_again(monkeypatch):
    ws = parse_workspace(str(FIXTURE))
    monads = [ws.monads[name] for name in ws.monads]
    monads.append(monad_from_adjunction(z3_adjunction()))
    monads.append(GroupAction.trivial(FiniteGroup.cyclic(4), point_category(QQ)).group_monad)
    calls = []

    def counting(m):
        calls.append(m)
        return validate(m)

    validate = sepcat.monads.validate_monad
    monkeypatch.setattr(sepcat.monads, "validate_monad", counting)
    assert all(m.report is not None for m in monads)
    for m in monads:
        monad_separability_solve(m)
    assert calls == []
    # an unmarked monad is validated once, on its first solve
    ident = Monad.identity_monad(point_category(QQ))
    for _ in range(2):
        assert isinstance(monad_separability_solve(ident), MonadSepWitness)
    assert calls == [ident]


def counting(monkeypatch, owners, name):
    """The first arguments of the calls of the validator `name`, patched on each owner."""
    calls, original = [], getattr(owners[0], name)

    def counted(s, *args):
        calls.append(s)
        return original(s, *args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_an_equivariant_report_validates_its_group_and_its_action_once(tmp_path, monkeypatch):
    groups = counting(monkeypatch, [FiniteGroup], "validate")
    actions = counting(monkeypatch, [m for m in sepcat_modules()
                                     if getattr(m, "validate_action", None) is validate_action],
                       "validate_action")
    monkeypatch.chdir(ROOT)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["-w", "fixtures/workspace.json", "--out", str(tmp_path),
                    "equivariant-report", "triv_s3_q"]) == 0
    assert [g.name for g in groups] == ["S3"] and [a.name for a in actions] == ["triv_s3_q"]


def test_a_derived_check_reads_the_mark_of_the_solved_sigma(monkeypatch):
    """The solver's verification of its witness marks σ natural, so no derived check
    validates σ's naturality again."""
    action = GroupAction.trivial(FiniteGroup.cyclic(2), point_category(QQ))
    monad = action.group_monad
    sigma = monad_separability_solve(monad)
    calls = counting(monkeypatch, [sepcat.complexes], "validate_nat")
    for _ in range(2):
        assert derived_comparison_check(action, [], monad=monad, sigma=sigma).passed
    assert sigma.sigma not in calls
