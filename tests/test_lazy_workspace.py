"""The lazy workspace: commands build and validate only the declarations they
reference, malformed input exits 2 without a traceback, validate stays
exhaustive, and sympy is imported only when character modules are enumerated."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcat.cli
import sepcat.equivariant
import sepcat.workspace
from sepcat.cli import run
from sepcat.complexes import ModuleComplex
from sepcat.equivariant import EquivariantObject, FiniteGroup

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "workspace.json"
SEPARABILITY = ["separability", "grpmonad_z2_q", "--target", "monad"]


def fixture_copy(tmp_path, mutate=None):
    doc = json.loads(FIXTURE.read_text())
    if mutate is not None:
        mutate(doc)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(ws_path, out, *args):
    code = run(["-w", ws_path, "--out", str(out), *args])
    report = out / "report.json"
    checks = json.loads(report.read_text())["checks"] if report.exists() else None
    return code, checks


def test_sympy_is_imported_only_by_character_enumeration(tmp_path):
    script = (
        "import sys\n"
        "import sepcat.cli\n"
        "assert 'sympy' not in sys.modules, 'imported by import sepcat.cli'\n"
        f"code = sepcat.cli.run(['-w', {str(FIXTURE)!r}, '--out', {str(tmp_path)!r}, "
        f"*{SEPARABILITY!r}])\n"
        "assert code == 0, code\n"
        "assert 'sympy' not in sys.modules, 'imported by separability'\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _set_identity(value):
    def mutate(doc):
        doc["categories"]["C1Q"]["identities"]["pt"]["id_pt"] = value
    return mutate


def _set_homs(doc):
    doc["categories"]["C1Q"]["homs"] = 5


def _drop_table(doc):
    del doc["groups"]["Z2"]["table"]


def _drop_group(doc):
    del doc["actions"]["triv_z2_q"]["group"]


def _monad_is_int(doc):
    doc["monads"]["grpmonad_z2_q"] = 7


def _suite_runs_validate(doc):
    # validate runs every suite entry, so this one would recurse without end
    doc["check_suites"]["smoke"].append({"run": "validate"})


@pytest.mark.parametrize("mutate", [
    _set_identity("one"), _set_identity("1/0"), _set_homs, _drop_table, _drop_group,
    _monad_is_int, _suite_runs_validate,
], ids=["non-numeric-scalar", "zero-denominator", "homs-not-a-list", "group-without-table",
        "action-without-group", "monad-spec-not-an-object", "suite-runs-validate"])
def test_malformed_input_exits_two_with_one_error_line(tmp_path, capsys, mutate):
    code, _ = run_cli(fixture_copy(tmp_path, mutate), tmp_path / "out", *SEPARABILITY)
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_separability_builds_no_equivariant_category(tmp_path, monkeypatch):
    calls = {"equivariant_category": 0, "equivariant_monad": 0}

    def counting(name):
        original = getattr(sepcat.equivariant, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counting(name)
        for module in (sepcat.equivariant, sepcat.workspace, sepcat.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    code, _ = run_cli(str(FIXTURE), tmp_path, *SEPARABILITY)
    assert code == 0
    assert calls == {"equivariant_category": 0, "equivariant_monad": 1}


def test_declared_group_monads_are_shared_with_their_actions():
    ws = sepcat.workspace.parse_workspace(str(FIXTURE), validate=False)
    assert ws.monads["grpmonad_z2_q"] is ws.action("triv_z2_q").group_monad
    assert ws.monads["grpmonad_swap_q"] is ws.action("swap_z2_q").group_monad


def test_a_declared_group_monad_is_validated_once(tmp_path, monkeypatch):
    calls = []
    for module in (sepcat.equivariant, sepcat.workspace):
        def counted(m, original=module.validate_monad):
            calls.append(m)
            return original(m)
        monkeypatch.setattr(module, "validate_monad", counted)
    assert run(["-w", str(FIXTURE), "--out", str(tmp_path), *SEPARABILITY]) == 0
    assert len(calls) == 1


def _suite_references_a_failing_action(doc):
    # Φ_g∘Φ_g is the identity, not Φ_{g²}: bad_z3 fails its laws
    swap = {"x": "y", "y": "x"}
    doc["actions"]["bad_z3"] = {"kind": "permutation", "group": "Z3", "category": "C3Q",
                                "objects": {"g": swap, "g2": swap}}
    doc["check_suites"]["smoke"].append({"run": "complex-report", "name": "bad_z3"})


def test_validate_records_a_suite_entry_on_a_failing_declaration(tmp_path, capsys):
    code, checks = run_cli(fixture_copy(tmp_path, _suite_references_a_failing_action),
                           tmp_path / "bad", "validate")
    assert code == 1
    assert capsys.readouterr().err == ""
    failed = {c["check"]: c["details"] for c in checks if c["status"] != "pass"}
    assert failed == {"action bad_z3": "Φ_g∘Φ_h = Φ_gh",
                      "suite smoke[2]: complex-report":
                          "workspace validation failed: action bad_z3"}
    # every other check, the earlier suite entries' among them, is the clean fixture's
    clean = run_cli(str(FIXTURE), tmp_path / "clean", "validate")
    assert clean[0] == 0
    assert [c for c in checks if c["check"] not in failed] == clean[1]


def _json_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


_LEAVES = st.none() | st.booleans() | st.integers(-3, 7) | st.sampled_from(
    ["", "x", "1/0", "2", "Q", "F4", "pt", "id_pt", "e", "g"])
_VALUES = _LEAVES | st.lists(_LEAVES, max_size=2) | st.dictionaries(st.just("id_pt"), _LEAVES)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_fixture_exits_cleanly(tmp_path_factory, data):
    doc = json.loads(FIXTURE.read_text())
    path = data.draw(st.sampled_from(sorted(_json_paths(doc), key=repr)), label="path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans(), label="delete"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_VALUES, label="value")
    tmp = tmp_path_factory.mktemp("fuzz")
    ws = tmp / "ws.json"
    ws.write_text(json.dumps(doc))
    args = data.draw(st.sampled_from([SEPARABILITY, ["adjunction-check", "adj_swap_q"]]))
    assert run(["-w", str(ws), "--out", str(tmp), *args]) in (0, 1, 2)


def _break_c1f3(doc):
    # id∘id = 2·id: C1F3 fails its unit laws; nothing over Q references it
    doc["categories"]["C1F3"]["compositions"][0]["is"] = {"id_pt": "2"}


def test_unreferenced_invalid_declaration_blocks_only_its_dependents(tmp_path, capsys):
    bad = fixture_copy(tmp_path, _break_c1f3)
    clean = run_cli(str(FIXTURE), tmp_path / "clean", *SEPARABILITY)
    assert clean[0] == 0
    assert run_cli(bad, tmp_path / "bad", *SEPARABILITY) == clean
    capsys.readouterr()

    # the monad cannot be built over C1F3; the action builds but must not be used
    for args in (["separability", "grpmonad_z3_f3", "--target", "monad"],
                 ["complex-report", "triv_z3_f3"]):
        code, _ = run_cli(bad, tmp_path / "dependent", *args)
        err = capsys.readouterr().err
        assert code == 2, args
        assert err == "error: workspace validation failed: category C1F3\n", args

    code, checks = run_cli(bad, tmp_path / "validate", "validate")
    status = {c["check"]: c["status"] for c in checks}
    assert code == 1
    assert status["category C1F3"] == "fail"
    assert status["monad grpmonad_z3_f3"] == "fail"
    assert status["category C1Q"] == "pass"


def test_validate_runs_each_law_suite_once(tmp_path, monkeypatch):
    counts = {}
    depth = [0]

    def counting(original, count=True):
        def wrapper(obj, *args, **kwargs):
            if count and depth[0] == 0:
                counts[id(obj)] = counts.get(id(obj), 0) + 1
            depth[0] += 1
            try:
                return original(obj, *args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name in ("validate_presentation", "validate_action", "validate_functor",
                 "validate_nat", "validate_adjunction", "validate_monad",
                 "validate_module", "validate_complex"):
        monkeypatch.setattr(sepcat.workspace, name,
                            counting(getattr(sepcat.workspace, name)))
    # a group monad's laws are checked where it is built, and the workspace reads that report
    monkeypatch.setattr(sepcat.equivariant, "validate_monad",
                        counting(sepcat.equivariant.validate_monad))
    for cls in (FiniteGroup, EquivariantObject, ModuleComplex):
        monkeypatch.setattr(cls, "validate", counting(cls.validate))
    # equivariant_category re-checks the declared objects it presents; that
    # check is a precondition of the construction, not a law suite run
    monkeypatch.setattr(sepcat.workspace, "equivariant_category",
                        counting(sepcat.workspace.equivariant_category, count=False))
    assert run(["-w", str(FIXTURE), "--out", str(tmp_path), "validate"]) == 0
    doc = json.loads(FIXTURE.read_text())
    declared = sum(len(doc.get(section, {})) for section in sepcat.workspace.SECTIONS[1:-1])
    assert sorted(counts.values()) == [1] * declared
