"""The workspace kinds of `fixtures/kinds.json`: explicit functors and actions, identity
adjunctions, identity and from_adjunction monads, and a complex of objects whose term
carries an idempotent.  Each declaration is compared with the structure built in Python,
and the commands that use them run with their exit codes."""

import json
import os
from fractions import Fraction

import pytest

from sepcat import GroupAction, Monad, monad_from_adjunction
from sepcat.category import Morphism, split_idempotent
from sepcat.cli import run
from sepcat.complexes import validate_complex
from sepcat.functors import Functor
from sepcat.workspace import obj_to_json, parse_workspace

KINDS = os.path.join(os.path.dirname(__file__), "..", "fixtures", "kinds.json")
SWAP = {"e": {"x": "x", "y": "y"}, "g": {"x": "y", "y": "x"}}


@pytest.fixture(scope="module")
def ws():
    return parse_workspace(KINDS)


def test_the_explicit_action_is_the_permutation_action(ws):
    act = ws.actions["swap_explicit"]
    ref = GroupAction.from_permutation(ws.groups["Z2"], ws.categories["C3Q"], SWAP)
    assert act.group.elements == ref.group.elements
    assert all(act.functors[g].equals(ref.functors[g]) for g in ref.group.elements)


def test_explicit_and_action_functors_are_the_swap(ws):
    ref = GroupAction.from_permutation(ws.groups["Z2"], ws.categories["C3Q"], SWAP)
    assert ws.functors["swap_declared"].equals(ref.functors["g"])
    assert ws.functors["swap_of_action"] is ws.actions["swap_explicit"].functors["g"]


def test_the_explicit_functor_between_categories(ws):
    c1, c3 = ws.categories["C1Q"], ws.categories["C3Q"]
    xy = c3.obj("x", "y")
    ref = Functor(c1, c3, {"pt": xy}, {("pt", "pt"): (xy.identity(),)})
    assert ws.functors["diagonal"].equals(ref)


def test_the_transformation_between_declared_functors(ws):
    t, c3 = ws.nat_transformations["swap_to_swap"], ws.categories["C3Q"]
    assert t.src is ws.functors["swap_declared"] and t.dst is ws.functors["swap_of_action"]
    assert t.components == {"x": c3.obj("y").identity(), "y": c3.obj("x").identity()}


@pytest.mark.parametrize("name, cat", [("id_adj_c1q", "C1Q"), ("id_adj_c3q", "C3Q")])
def test_identity_adjunctions(ws, name, cat):
    adj, c = ws.adjunctions[name], ws.categories[cat]
    ident = {x: c.obj(x).identity() for x in c.objects}
    assert adj.F.equals(Functor.identity(c)) and adj.G.equals(Functor.identity(c))
    assert adj.unit.components == ident and adj.counit.components == ident


@pytest.mark.parametrize("name, cat", [("id_monad_c3q", "C3Q"), ("adj_monad_c1q", "C1Q")])
def test_identity_and_adjunction_monads_are_the_identity_monad(ws, name, cat):
    assert ws.monads[name].components_equal(Monad.identity_monad(ws.categories[cat]))


def test_the_adjunction_monad_is_built_from_its_adjunction(ws):
    """GF of the identity adjunction is the identity monad, so only the build tells them
    apart: `monad_from_adjunction` names the monad and its functor after the declaration."""
    m, adj = ws.monads["adj_monad_c1q"], ws.adjunctions["id_adj_c1q"]
    assert m.components_equal(monad_from_adjunction(adj))
    assert m.name == m.functor.name == "adj_monad_c1q"


def test_a_complex_of_objects_with_an_idempotent_term(ws):
    c, cat = ws.complexes["split_pair"], ws.categories["C1Q"]
    pt2, half = cat.obj("pt", "pt"), Fraction(1, 2)
    e = Morphism(cat, pt2, pt2, [[(half,), (half,)], [(half,), (half,)]])
    small = split_idempotent(pt2, e).small
    term = c.terms[0]
    assert term == small and term.key == small.key
    assert term.idem == e and term.plain() == pt2 and term.identity().blocks == e.blocks
    assert c.diff(0) == Morphism(cat, small, cat.obj("pt"), [[(cat.field.one(),)] * 2])
    assert validate_complex(c).passed
    with open(KINDS, encoding="utf-8") as fh:
        declared = json.load(fh)["complexes"]["split_pair"]["terms"]["0"]
    assert obj_to_json(term) == declared
    assert obj_to_json(small.plain()) == {"summands": ["pt", "pt"], "idempotent": None}


COMMANDS = [
    ["validate"],
    ["separability", "swap_declared"],
    ["separability", "swap_of_action"],
    ["separability", "diagonal"],
    ["separability", "id_monad_c3q", "--target", "monad"],
    ["separability", "adj_monad_c1q", "--target", "monad"],
    ["adjunction-check", "id_adj_c1q"],
    ["adjunction-check", "id_adj_c3q"],
    ["em-report", "id_adj_c3q"],
    ["--complete-target", "em-report", "id_adj_c1q"],
    ["--complete-target", "em-report", "id_adj_c3q"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_commands_on_the_kinds_exit_zero(tmp_path, argv):
    assert run(["-w", KINDS, "--out", str(tmp_path), *argv]) == 0
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        assert json.load(fh)["status"] == "pass"


@pytest.mark.parametrize("idem", [
    [[["1/2"], ["1/2"]]],                       # one block row for two summands
    [[["1/2"], ["1/2", "0"]], [["1/2"], ["1/2"]]],  # a block longer than its hom space
    "e",                                        # not a block grid
])
def test_a_malformed_idempotent_exits_two_naming_it(tmp_path, capsys, idem):
    with open(KINDS, encoding="utf-8") as fh:
        data = json.load(fh)
    data["complexes"]["split_pair"]["terms"]["0"]["idempotent"] = idem
    path = tmp_path / "kinds.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["-w", str(path), "--out", str(tmp_path), "validate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: complex split_pair: idempotent: ") and err.count("\n") == 1
