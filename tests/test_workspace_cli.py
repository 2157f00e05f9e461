"""Workspace parsing, the command surface, exit codes, witness round trips,
and report determinism."""

import json
import os
import re
from fractions import Fraction

import pytest

from sepcat import WorkspaceError
from sepcat.category import LinearCategory, Morphism
from sepcat.cli import run
from sepcat.workspace import load_witness, parse_workspace, validate_workspace

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "workspace.json")


def write_ws(tmp_path, payload):
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(payload))
    return str(p)


MINIMAL = {
    "schema": "sepcat-workspace/1",
    "fields": {"Q": "Q"},
    "categories": {
        "C1": {
            "field": "Q",
            "objects": ["pt"],
            "homs": [{"from": "pt", "to": "pt", "basis": ["id_pt"]}],
            "compositions": [{"g": "id_pt", "f": "id_pt", "is": {"id_pt": "1"}}],
            "identities": {"pt": {"id_pt": "1"}},
        }
    },
}


class TestParseWorkspace:
    def test_minimal_workspace_parses(self, tmp_path):
        ws = parse_workspace(write_ws(tmp_path, MINIMAL))
        assert "C1" in ws.categories
        assert validate_workspace(ws).passed

    def test_unresolved_reference_names_the_identifier(self, tmp_path):
        bad = dict(MINIMAL)
        bad = json.loads(json.dumps(MINIMAL))
        bad["actions"] = {"a": {"group": "nope", "category": "C1"}}
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace(write_ws(tmp_path, bad))
        assert "nope" in str(exc.value)

    def test_syntax_error_carries_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"schema": "sepcat-workspace/1",,}')
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace(str(p))
        assert "line" in str(exc.value)

    def test_duplicate_names_rejected(self, tmp_path):
        p = tmp_path / "dup.json"
        p.write_text('{"schema": "sepcat-workspace/1", "fields": {"Q": "Q", "Q": "Q"}}')
        with pytest.raises(WorkspaceError) as exc:
            parse_workspace(str(p))
        assert "duplicate" in str(exc.value)

    def test_shipped_fixture_parses_and_validates(self):
        ws = parse_workspace(FIXTURE, validate=False)
        rep = validate_workspace(ws)
        assert rep.passed
        assert "grpmonad_z2_q" in ws.monads
        assert "adj_z2_q" in ws.adjunctions

    def test_invalid_data_rejected_when_strict(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["categories"]["C1"]["compositions"] = [
            {"g": "id_pt", "f": "id_pt", "is": {"id_pt": "2"}}]
        with pytest.raises(WorkspaceError):
            parse_workspace(write_ws(tmp_path, bad))

    def test_nat_transformation_declarations(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["functors"] = {"idc": {"kind": "identity", "category": "C1"}}
        doc["nat_transformations"] = {
            "tau": {"source": "idc", "target": "idc",
                    "components": {"pt": [[["1"]]]}}}
        ws = parse_workspace(write_ws(tmp_path, doc))
        assert "tau" in ws.nat_transformations
        doc["nat_transformations"]["tau"]["components"] = {}
        with pytest.raises(WorkspaceError):
            parse_workspace(write_ws(tmp_path, doc))


class TestExitCodes:
    def test_feasible_separability_exits_zero(self, tmp_path):
        code = run(["-w", FIXTURE, "--out", str(tmp_path),
                    "separability", "grpmonad_z2_q", "--target", "monad"])
        assert code == 0
        assert (tmp_path / "grpmonad_z2_q.witness.json").exists()

    def test_infeasible_separability_exits_one(self, tmp_path):
        code = run(["-w", FIXTURE, "--out", str(tmp_path),
                    "separability", "grpmonad_z2_f2", "--target", "monad"])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"][0]["status"] == "infeasible"

    def test_validate_fixture_exits_zero(self, tmp_path):
        assert run(["-w", FIXTURE, "--out", str(tmp_path), "validate"]) == 0

    def test_unknown_name_exits_two(self, tmp_path):
        code = run(["-w", FIXTURE, "--out", str(tmp_path),
                    "separability", "no_such_monad", "--target", "monad"])
        assert code == 2

    def test_missing_workspace_exits_two(self, tmp_path):
        code = run(["-w", str(tmp_path / "none.json"), "--out", str(tmp_path),
                    "validate"])
        assert code == 2

    def test_negative_samples_exits_two_with_one_error_line(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["-w", FIXTURE, "--out", str(tmp_path), "--samples", "-1",
                 "equivariant-report", "triv_z2_q"])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--samples" in errors[0], errors
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("out, blocker", [
        ("taken", "taken"),                                 # --out is a file
        ("taken/sub", "taken"),                             # --out lies under a file
        ("out", "out/report.json/"),                        # report.json is a directory
        ("out", "out/grpmonad_z2_q.witness.json/"),         # the witness is a directory
    ])
    def test_unwritable_output_exits_two_with_one_error_line(self, tmp_path, capsys,
                                                             out, blocker):
        target = tmp_path / blocker
        if blocker.endswith("/"):
            target.mkdir(parents=True)
        else:
            target.write_text("keep")
        code = run(["-w", FIXTURE, "--out", str(tmp_path / out),
                    "separability", "grpmonad_z2_q", "--target", "monad"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: cannot write output directory {tmp_path / out}: "), err
        assert target.is_dir() or target.read_text() == "keep"

    @pytest.mark.parametrize("argv", [["validate"], ["complex-report", "triv_z2_q"]],
                             ids=" ".join)
    def test_a_shape_error_names_its_declaration_once(self, tmp_path, capsys, argv):
        # triv_mod_z2's action given three blocks for M(pt) = pt ⊕ pt
        with open(FIXTURE, encoding="utf-8") as fh:
            data = json.load(fh)
        data["modules"]["triv_mod_z2"]["action"] = [[["1"], ["1"], ["1"]]]
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        message = ("module triv_mod_z2: morphism shape error: "
                   "block grid does not match dom/cod profiles")
        assert run(["-w", str(path), "--out", str(tmp_path), *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        # built through a complex that references it, the module is still named once
        with pytest.raises(WorkspaceError, match=f"^{re.escape(message)}$"):
            parse_workspace(str(path), validate=False).complexes["stalks_z2"]

    def test_zero_samples_is_valid(self, tmp_path):
        assert run(["-w", FIXTURE, "--out", str(tmp_path), "--samples", "0",
                    "equivariant-report", "triv_z2_q"]) == 0

    def test_complex_report_f2_records_monad_not_separable(self, tmp_path):
        code = run(["-w", FIXTURE, "--out", str(tmp_path),
                    "complex-report", "triv_z2_f2"])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("MonadNotSeparable" in c["details"] for c in report["checks"])


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = run(["-w", FIXTURE, "--seed", "7", "--out", str(out),
                        "equivariant-report", "triv_z2_q"])
            assert code == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_witness_files_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["-w", FIXTURE, "--out", str(out),
                        "separability", "grpmonad_z3_q", "--target", "monad"]) == 0
        assert ((out1 / "grpmonad_z3_q.witness.json").read_bytes()
                == (out2 / "grpmonad_z3_q.witness.json").read_bytes())


class TestWitnessRoundTrip:
    def test_monad_witness_reingests_and_verifies(self, tmp_path):
        assert run(["-w", FIXTURE, "--out", str(tmp_path),
                    "separability", "grpmonad_z2_q", "--target", "monad"]) == 0
        ws = parse_workspace(FIXTURE)
        w, rep = load_witness(str(tmp_path / "grpmonad_z2_q.witness.json"), ws)
        assert rep.passed

    def test_functor_witness_reingests_and_verifies(self, tmp_path):
        assert run(["-w", FIXTURE, "--out", str(tmp_path),
                    "separability", "forget_z2_q", "--target", "functor"]) == 0
        ws = parse_workspace(FIXTURE)
        w, rep = load_witness(str(tmp_path / "forget_z2_q.witness.json"), ws)
        assert rep.passed

    @pytest.mark.parametrize("edit,message", [
        (lambda maps: maps["F(pt)|F(pt)"].append(["0", "0", "0", "0"]), "3 rows, expected 2"),
        (lambda maps: [row.append("0") for row in maps["F(pt)|F(pt)"]],
         "rows of length 5, expected 4"),
        (lambda maps: maps.__setitem__("F(pt)|nowhere", [["1"]]), "not a nonzero hom pair"),
        (lambda maps: maps.__setitem__("F(pt)", [["1"]]), "not a nonzero hom pair"),
        (lambda maps: maps["F(pt)|F(pt)"][0].__setitem__(0, "x"),
         r"^witness map 'F\(pt\)\|F\(pt\)': Invalid literal for Fraction"),
        (lambda maps: maps.__setitem__("F(pt)|F(pt)", 5), r"^witness map 'F\(pt\)\|F\(pt\)': "),
    ], ids=["extra row", "extra column", "unknown object", "no pair", "entry x", "map 5"])
    def test_malformed_functor_witness_is_rejected(self, tmp_path, edit, message):
        assert run(["-w", FIXTURE, "--out", str(tmp_path),
                    "separability", "forget_z2_q", "--target", "functor"]) == 0
        path = tmp_path / "forget_z2_q.witness.json"
        data = json.loads(path.read_text())
        edit(data["maps"])
        path.write_text(json.dumps(data))
        with pytest.raises(WorkspaceError, match=message):
            load_witness(str(path), parse_workspace(FIXTURE))

    @pytest.mark.parametrize("edit,pair", [
        (lambda maps: maps.clear(), "F(pt)|F(pt)"),
        (lambda maps: maps.pop("triv_z2|F(pt)"), "triv_z2|F(pt)"),
    ], ids=["no maps", "one pair deleted"])
    def test_functor_witness_missing_a_hom_pair_is_rejected(self, tmp_path, edit, pair):
        assert run(["-w", FIXTURE, "--out", str(tmp_path),
                    "separability", "forget_z2_q", "--target", "functor"]) == 0
        path = tmp_path / "forget_z2_q.witness.json"
        data = json.loads(path.read_text())
        edit(data["maps"])
        path.write_text(json.dumps(data))
        with pytest.raises(WorkspaceError,
                           match=f"^witness file: no map for hom pair '{re.escape(pair)}'$"):
            load_witness(str(path), parse_workspace(FIXTURE))

    def _edited_monad_witness(self, tmp_path, edit):
        assert run(["-w", FIXTURE, "--out", str(tmp_path),
                    "separability", "grpmonad_z2_q", "--target", "monad"]) == 0
        path = tmp_path / "grpmonad_z2_q.witness.json"
        data = json.loads(path.read_text())
        edit(data["components"])
        path.write_text(json.dumps(data))
        return str(path)

    def test_monad_witness_missing_a_component_fails_its_shape_check(self, tmp_path):
        path = self._edited_monad_witness(tmp_path, lambda comps: comps.pop("pt"))
        _, rep = load_witness(path, parse_workspace(FIXTURE))
        assert rep.checks == [
            ("natural transformation σ: components have the right endpoints", False, "pt")]

    @pytest.mark.parametrize("edit,message", [
        (lambda comps: comps.__setitem__("nowhere", comps["pt"]),
         "witness component key 'nowhere' is not a base object"),
        (lambda comps: comps["pt"]["blocks"].pop(), "morphism shape error"),
        (lambda comps: comps["pt"]["blocks"][0][0].append("0"), "morphism shape error"),
        (lambda comps: comps.__setitem__("pt", "σ"), "bad morphism"),
        (lambda comps: comps["pt"]["blocks"][0][0].__setitem__(0, "x"),
         r"^witness component 'pt': Invalid literal for Fraction"),
        (lambda comps: comps["pt"].__setitem__("blocks", 5), r"^witness component 'pt': "),
    ], ids=["unknown object", "missing block row", "long block", "not a morphism", "entry x",
            "blocks 5"])
    def test_malformed_monad_witness_is_rejected(self, tmp_path, edit, message):
        path = self._edited_monad_witness(tmp_path, edit)
        with pytest.raises(WorkspaceError, match=message):
            load_witness(path, parse_workspace(FIXTURE))

    @pytest.mark.parametrize("name,target,edit,key", [
        ("grpmonad_z2_q", "monad", lambda data: data.pop("workspace_ref"), "workspace_ref"),
        ("grpmonad_z2_q", "monad", lambda data: data.pop("target"), "target"),
        ("grpmonad_z2_q", "monad",
         lambda data: data.__setitem__("components", list(data["components"].values())),
         "components"),
        ("forget_z2_q", "functor", lambda data: data.__setitem__("maps", list(data["maps"])),
         "maps"),
    ], ids=["no workspace_ref", "no target", "components list", "maps list"])
    def test_malformed_witness_file_names_the_key(self, tmp_path, name, target, edit, key):
        assert run(["-w", FIXTURE, "--out", str(tmp_path),
                    "separability", name, "--target", target]) == 0
        path = tmp_path / f"{name}.witness.json"
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(WorkspaceError,
                           match=f"^witness file: '{key}' is missing or has the wrong JSON type$"):
            load_witness(str(path), parse_workspace(FIXTURE))

    @pytest.mark.parametrize("content,message", [
        ('{"schema": ', r"^syntax error at line 1, column 12: Expecting value$"),
        (None, r"^cannot read witness file: \[Errno 2\] No such file or directory"),
    ], ids=["truncated", "missing"])
    def test_unreadable_witness_file_is_a_workspace_error(self, tmp_path, content, message):
        path = tmp_path / "forget_z2_q.witness.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(WorkspaceError, match=message):
            load_witness(str(path), parse_workspace(FIXTURE, validate=False))


class TestReports:
    def test_em_report_with_complete_target(self, tmp_path):
        code = run(["-w", FIXTURE, "--out", str(tmp_path), "--complete-target",
                    "em-report", "adj_z2_q"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("essential preimage" in c["check"] and c["status"] == "pass"
                   for c in report["checks"])

    def test_em_report_without_flag_skips_preimages(self, tmp_path):
        assert run(["-w", FIXTURE, "--out", str(tmp_path),
                    "em-report", "adj_z2_q"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        skipped = [c for c in report["checks"] if "essential preimages" in c["check"]]
        assert skipped and "skipped" in skipped[0]["details"]

    def test_adjunction_check(self, tmp_path):
        assert run(["-w", FIXTURE, "--out", str(tmp_path),
                    "adjunction-check", "adj_swap_q"]) == 0

    def test_complex_report_q_passes(self, tmp_path):
        assert run(["-w", FIXTURE, "--out", str(tmp_path), "--samples", "5",
                    "complex-report", "triv_z2_q"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        d_checks = [c for c in report["checks"] if "d₁ = d₂" in c["check"]]
        assert len(d_checks) >= 25
        assert all(c["status"] == "pass" for c in d_checks)


def test_every_rational_coordinate_of_the_built_workspace_is_an_int_or_a_fraction():
    """Walk everything the validated fixture workspace holds: each coordinate of a
    morphism over Q, and each identity and structure constant of a category over
    Q, is exactly an int or a Fraction (never a float, bool or residue)."""
    ws = parse_workspace(FIXTURE)
    seen, stack, bad = set(), [ws], []
    n_morphisms = n_categories = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Morphism) and obj.cat.field.is_rational:
            n_morphisms += 1
            bad += [c for c in obj.coords() if type(c) not in (int, Fraction)]
        if isinstance(obj, LinearCategory) and obj.field.is_rational:
            n_categories += 1
            bad += [c for vec in obj._ids.values() for c in vec if type(c) not in (int, Fraction)]
            bad += [c for table in obj._comp.values() for row in table for entries in row
                    for _, c in entries if c is not None and type(c) not in (int, Fraction)]
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += obj
        elif type(obj).__module__.startswith("sepcat"):
            stack += vars(obj).values() if hasattr(obj, "__dict__") else ()
            stack += [getattr(obj, s, None) for k in type(obj).__mro__
                      for s in getattr(k, "__slots__", ())]
    assert n_morphisms > 100 and n_categories > 5
    assert not bad, bad[:5]
