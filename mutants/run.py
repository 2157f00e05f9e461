#!/usr/bin/env python3
"""The mutant registry: each entry breaks sepcat in one place, and named tests must catch it.

An entry is (id, file, snippet, replacement, test node ids).  For each entry the
runner copies src/, tests/, fixtures/, demos/, README.md and pyproject.toml to a
temporary directory, replaces the snippet, which must occur exactly once in the
file, and runs the named tests there with pytest; the mutant is killed when they
fail.  First the tests of every entry run once on an unmutated copy and must
pass, so that a test that fails anyway, or a node id that names no test, cannot
count as a kill.  Stdlib only; the file is not collected by pytest.

    python3 mutants/run.py

Exit status: 0 when every mutant is killed, 1 when one survives or the unmutated
copy fails, 2 for a snippet that does not match exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "demos", "README.md", "pyproject.toml")
CRITERION_7 = "tests/test_acceptance.py::test_criterion_7_derived_comparison"
H_ORACLE = "tests/test_binaturality_oracle.py::test_separability_solve_matches_the_h_elimination"
SEAM = ("tests/test_binaturality_oracle.py::"
        "test_the_seam_reports_the_whole_h_solution_and_both_bijections_hold")
SIGMA_ORACLE = "tests/test_law_list_oracle.py::test_monad_solve_assembles_the_reference_system"
FORMULA_ORACLE = "tests/test_adjunction_formula_oracle.py"
ROWS = "tests/test_composition_oracle.py::test_handed_rows_are_the_scanned_rows"
CANCELLED = "tests/test_composition_oracle.py::test_a_cancelled_image_cell_is_not_handed_over"
NULLS = "tests/test_homotopy_oracle.py::test_null_vectors_are_the_concrete_compositions"
D1_D2 = "tests/test_homotopy_oracle.py::test_d1_and_d2_match_kernel_difference_formulas"
HANDED = "tests/test_homotopy_oracle.py::test_handed_rows_are_the_concrete_compositions"
SLOT_ORACLE = "tests/test_slot_laws_oracle.py"
DENSE_KERNEL = ("tests/test_composition_oracle.py::"
                "test_separability_compositions_match_dense_kernel[Z/2 on C1 over Q]")
DRIFT = "tests/test_composition_oracle.py::test_accumulation_keeps_scalar_types"
EXACT_ONE = "tests/test_composition_oracle.py::test_a_product_by_an_exact_one_is_the_other_factor"
INDEX_ORACLE = "tests/test_presentation_index_oracle.py"
LEMMA_ORACLE = "tests/test_derived_lemma_oracle.py"
MARK_ORACLE = "tests/test_mark_oracle.py"
LIFTED_ORACLE = "tests/test_lifted_laws_oracle.py"
MODULE_ORACLE = "tests/test_module_hom_oracle.py"

MUTANTS = (
    ("independence-counts-zero", "src/sepcat/linalg.py",
     "    return _insert(pivots, row, 0, field.char) is None\n",
     "    return not row or _insert(pivots, row, 0, field.char) is None\n",
     (CRITERION_7,)),
    ("witness-parts-transposed", "src/sepcat/functors.py",
     "partwise(g, [f.object_map[s] for s in a.summands],\n"
     "                        [f.object_map[s] for s in b.summands], a, b",
     "partwise(g, [f.object_map[s] for s in b.summands],\n"
     "                        [f.object_map[s] for s in a.summands], a, b",
     ("tests/test_acceptance.py::test_criterion_9_witness_calculus_coherence",)),
    ("witness-summands-swapped", "src/sepcat/functors.py",
     "[f.object_map[s] for s in b.summands], a, b, self._image)",
     "[f.object_map[s] for s in b.summands], a, b, lambda x, y, c: self._image(y, x, c))",
     ("tests/test_functors.py::TestSeparabilitySolve::"
      "test_identity_functor_witness_is_the_identity_on_sums",)),
    ("preimage-in-module-basis", "src/sepcat/modules.py",
     "    images = [adj.G.on_morphism(f).coords() for f in dbasis]\n",
     "    images = [mm.mor.coords() for mm in mbasis]\n",
     ("tests/test_modules.py::TestEssentialPreimage::"
      "test_preimages_do_not_depend_on_the_module_basis",)),
    ("random-complex-without-d2", "src/sepcat/complexes.py",
     "        if prev is not None:\n            sysm.require_equal(f @ prev,",
     "        if False:\n            sysm.require_equal(f @ prev,",
     (CRITERION_7,)),
    ("unit-by-value-only", "src/sepcat/category.py",
     "    return type(a) is type(one) and a == one\n",
     "    return a == one\n",
     (DRIFT,)),
    ("untouched-slot-by-truthiness", "src/sepcat/category.py",
     "acc[t] = term if acc[t] is zero else acc[t] + term",
     "acc[t] = term if not acc[t] else acc[t] + term",
     (DRIFT, f"{DRIFT}_off_the_scalar_path")),
    ("scalar-kernel-slot-by-truthiness", "src/sepcat/category.py",
     "accs[k] = term if acc is zero else acc + term",
     "accs[k] = term if not acc else acc + term",
     (DRIFT,)),
    ("scalar-kernel-composes-absent-triple", "src/sepcat/category.py",
     "                if (src[k], mj, ti) in tables:\n",
     "                if True:\n",
     ("tests/test_composition_oracle.py::test_basis_products_match_dense_kernel[Cz-Q]",)),
    ("scalar-kernel-multiplies-by-one", "src/sepcat/category.py",
     "term = fp if g_one else gq if is_one(fp, one) else gq * fp",
     "term = gq * fp",
     (f"{EXACT_ONE}[C1-Q]", f"{EXACT_ONE}[C1-F7]")),
    ("witness-image-every-g-a-unit", "src/sepcat/functors.py",
     "                g_one = is_one(g, one)\n",
     "                g_one = True\n",
     ("tests/test_composition_oracle.py::test_witness_images_on_fixed_data",)),
    ("free-alpha-by-g", "src/sepcat/equivariant.py",
     "group.mult(gi, h)", "group.mult(g, h)",
     ("tests/test_equivariant.py::TestInduceAdjunction::"
      "test_triangle_identities_on_the_fixture_matrix",)),
    ("group-mu-opposite", "src/sepcat/equivariant.py",
     "group.mult(hi, hj)", "group.mult(hj, hi)",
     ("tests/test_equivariant.py::TestDictionary::test_roundtrip_is_identity_on_data",)),
    ("section-rank-without-kernel", "src/sepcat/linalg.py",
     "rank = len(forms) - (sol.n_vars - sol.rank) - len(slack)", "rank = len(forms) - len(slack)",
     (f"{H_ORACLE}[S_3 on C1 over F2]", f"{H_ORACLE}[Z/3 on Cw over F3]",
      f"{SIGMA_ORACLE}[Z/2 on C1-F2]")),
    ("section-label-always-retraction", "src/sepcat/functors.py",
     'label = f"binaturality ({l},{l})→({l},{l})" if faithful else ',
     'label = f"retraction ({l},{l})" if True else ',
     (f"{H_ORACLE}[S_3 on C1 over F2]",)),
    ("section-particular-unreduced", "src/sepcat/linalg.py",
     "    return reduced_form(vecs[0], vecs[1:] + slack, field)\n",
     "    return type(sol)([a + b for a, b in zip(vecs[0], vecs[-1])], [], [], 0, len(forms))\n",
     (f"{H_ORACLE}[S_3 on C1 over Q]",)),
    ("transfer-drops-slack", "src/sepcat/linalg.py",
     "    if not sol.feasible:\n        rank = len(forms)",
     "    slack = []\n    if not sol.feasible:\n        rank = len(forms)",
     (f"{SEAM}[Z/2 on C1 with a Karoubi extra over Q]",)),
    ("alpha-inverse-wrong-element", "src/sepcat/equivariant.py",
     "act.functors[g].on_morphism(self.alpha[act.group.inv(g)])",
     "act.functors[g].on_morphism(self.alpha[g])",
     (f"{FORMULA_ORACLE}::test_inverses_are_the_solved_inverses[Z/3 on C1 over Q]",)),
    ("free-hom-unreduced", "src/sepcat/monads.py",
     "for k in reduced_form(zero, images, cat.field).kernel]", "for k in images]",
     (f"{FORMULA_ORACLE}::test_free_hom_spaces_are_the_solved_bases[S_3 on C1 over F5]",
      f"{MODULE_ORACLE}::test_group_monad_free_hom_spaces_are_the_solved_bases[S_3 on C1 over F5]")),
    ("free-mark-before-validation", "src/sepcat/equivariant.py",
     '    checked(z, EquivariantObject.validate).require(LawViolationError, "free equivariant object")\n'
     "    z.free_on = x  # set only once validation has passed\n",
     "    z.free_on = x  # set only once validation has passed\n"
     '    checked(z, EquivariantObject.validate).require(LawViolationError, "free equivariant object")\n',
     (f"{FORMULA_ORACLE}::test_the_mark_is_set_only_after_validation",)),
    ("counit-slots-transposed", "src/sepcat/equivariant.py",
     "for j in range(nsum) for h in act.group.elements)",
     "for h in act.group.elements for j in range(nsum))",
     (f"{FORMULA_ORACLE}::test_counit_columns_are_the_inverted_alphas[Z/3 on C1 over Q]",)),
    ("workspace-group-monad-rebuilt", "src/sepcat/workspace.py",
     '        return ws.actions[spec["action"]].group_monad\n',
     "        from .equivariant import equivariant_monad\n"
     '        return equivariant_monad(ws.actions[spec["action"]])\n',
     ("tests/test_lazy_workspace.py::test_declared_group_monads_are_shared_with_their_actions",)),
    ("nat-at-rows-unshifted", "src/sepcat/functors.py",
     "rows.append(tuple((j + off, b) for j, b in nz))",
     "rows.append(tuple((j, b) for j, b in nz))",
     (f"{ROWS}[NatTrans.at]", DENSE_KERNEL,
      "tests/test_acceptance.py::test_criterion_2_triangle_identities")),
    ("image-rows-unshifted", "src/sepcat/functors.py",
     "spliced[r][cuts[j] + c] = cell", "spliced[r][c] = cell",
     (f"{ROWS}[Functor.on_morphism]", DENSE_KERNEL,
      "tests/test_monads.py::TestSeparabilitySolve::test_oracle_agreement_fp")),
    ("image-cell-skips-zero-test", "src/sepcat/functors.py",
     "if terms == 1 or any(block):", "if terms:",
     (f"{CANCELLED}[Q-scalars]", f"{CANCELLED}[F3-forms]")),
    ("null-vector-drops-lower-degree", "src/sepcat/complexes.py",
     "        _read_rows(h @ x.diff(n - 1), offsets[n - 1], vecs)\n", "",
     (f"{NULLS}[Z2 on C1/Q]", f"{NULLS}[sign Z2 on A2/F3]", f"{D1_D2}[Z3 on Cw/Q]")),
    ("d1-homotopy-basis-same-degree", "src/sepcat/complexes.py",
     "{n: basis(n, n - 1) for n in _homotopy_degrees(x, y)}",
     "{n: basis(n, n) for n in _homotopy_degrees(x, y)}",
     (f"{D1_D2}[Z2 on C1/Q]", f"{D1_D2}[sign Z2 on A2/Q]")),
    ("d2-defect-drops-module-term", "src/sepcat/complexes.py",
     "f @ a.action_at(n) - b.action_at(n) @ mf.on_morphism(f)", "f @ a.action_at(n)",
     (f"{D1_D2}[Z2 on C1/F3]", f"{D1_D2}[swap Z2 on C3/Q]",
      "tests/test_homotopy_oracle.py::test_karoubi_stalks_count_module_maps")),
    ("d2-rank-without-mx-null", "src/sepcat/complexes.py",
     "null_homotopic_space(mx, y)", "[]",
     (f"{D1_D2}[Z3 on Cw/Q]", f"{D1_D2}[sign Z2 on A2/F3]")),
    ("combination-first-block-only", "src/sepcat/complexes.py",
     "        for slices, row in zip(layout, b.nonzero_rows()):\n",
     "        for slices, row in itertools.islice(((s, r[:1]) for s, r in\n"
     "                                             zip(layout, b.nonzero_rows()) if r), 1):\n",
     (f"{HANDED}[Z2 on C1/Q]", f"{D1_D2}[Z2 on C1/Q]")),
    ("d1-span-drops-kernel-coefficient", "src/sepcat/complexes.py",
     "row[pos] + c * kj if pos in row else c * kj", "row[pos] + c if pos in row else c",
     (f"{HANDED}[Z2 on C1/Q]", f"{HANDED}[Z2 on A2/F5]")),
    ("slot-map-accepts-any-block", "src/sepcat/category.py",
     "dom.summands[c] != s or block != cat.id_vec(s)", "dom.summands[c] != s",
     (f"{SLOT_ORACLE}::test_a_doubled_block_is_not_a_slot",)),
    ("slot-monad-skips-identity-preservation", "src/sepcat/monads.py",
     "    keeps = mf.keeps_identities(cat.objects)\n", "    keeps = True\n",
     (f"{SLOT_ORACLE}::test_a_monad_whose_m_keeps_no_identity_takes_the_law_list",)),
    ("slot-cocycle-skips-inverse", "src/sepcat/equivariant.py",
     "compose_slots(slots[g], image), tuple(range(len(image)))",
     "compose_slots(slots[g], image), compose_slots(slots[g], image)",
     (f"{SLOT_ORACLE}::test_zero_alphas_keep_the_cocycle_law_and_break_the_inverse_law",)),
    ("slot-functor-zero-product-matches-anything", "src/sepcat/functors.py",
     "zero if t is None else slots[(x, z)][t]",
     "compose_slots(slots[(y, z)][ib], slots[(x, y)][ia]) if t is None else slots[(x, z)][t]",
     (f"{INDEX_ORACLE}::test_a_dropped_product_fails_composition_on_the_slot_path",)),
    ("slot-images-skip-endpoints", "src/sepcat/functors.py",
     "_functor_laws(f, _slot_images(f) if ok_shapes else None)", "_functor_laws(f, _slot_images(f))",
     (f"{INDEX_ORACLE}::test_an_image_with_the_wrong_endpoints_takes_the_vector_path",)),
    ("table-slots-over-any-base", "src/sepcat/equivariant.py",
     "slot_map(b) if base._prod is not None\n                   and all(", "slot_map(b) if all(",
     (f"{INDEX_ORACLE}::test_a_base_whose_one_is_a_fraction_keeps_the_composed_table",)),
    ("slot-functor-skips-identity-law", "src/sepcat/functors.py",
     "slots[(x, x)][src._id_index[x]], slot_map(f.object_map[x].identity())",
     "slots[(x, x)][src._id_index[x]], slots[(x, x)][src._id_index[x]]",
     (f"{INDEX_ORACLE}::test_a_zero_identity_image_fails_the_identity_law_on_the_slot_path",)),
    ("identity-law-ignores-endpoints", "src/sepcat/functors.py",
     "fits and f.on_hom_vec(x, x, src.id_vec(x))", "f.on_hom_vec(x, x, src.id_vec(x))",
     ("tests/test_functors.py::TestValidateFunctor::"
      "test_an_identity_image_off_its_endpoints_fails_identity_preservation",)),
    ("karoubi-key-drops-scalar-types", "src/sepcat/category.py",
     "self.key = summands, rows, rows and tuple(type(a) for r in rows for _, v in r for a in v)",
     "self.key = summands, rows, None",
     ("tests/test_composition_oracle.py::test_caches_keep_scalar_types_of_equal_objects",)),
    ("karoubi-identity-is-plain", "src/sepcat/category.py",
     "blocks = identity_blocks(self.cat, self.summands) if e is None else e.blocks",
     "blocks = identity_blocks(self.cat, self.summands)",
     (f"{ROWS}[Functor.on_object]",
      "tests/test_category.py::TestSplitIdempotent::test_averaging_idempotent",
      "tests/test_workspace_kinds.py::test_a_complex_of_objects_with_an_idempotent_term")),
    ("karoubi-on-object-drops-rows", "src/sepcat/functors.py",
     "Morphism._new(self.target, plain, plain, *e))",
     "Morphism._new(self.target, plain, plain, e[0], ((),) * len(e[0])))",
     (f"{ROWS}[Functor.on_object]",)),
    ("derived-lemma-skips-naturality", "src/sepcat/complexes.py",
     "\n            and checked(sw.sigma, validate_nat).passed)", ")",
     (f"{LEMMA_ORACLE}::test_a_non_natural_section_composes[sign Z2 on A2]",)),
    ("functor-laws-compose-unchained", "src/sepcat/functors.py",
     "fb @ fa if fb.dom == fa.cod else None", "fb @ fa",
     (f"{LEMMA_ORACLE}::test_images_that_do_not_chain_fail_composition_preservation",
      f"{LEMMA_ORACLE}::test_an_m_that_is_no_functor_composes[image_off_its_endpoints]")),
    ("mark-set-before-validation", "src/sepcat/reports.py",
     "    if s.report is None and (rep := validate(s)).passed:\n        s.report = rep\n",
     "    if s.report is None:\n        s.report = rep = validate(s)\n",
     (f"{MARK_ORACLE}::test_a_rebuilt_structure_carries_no_mark[group monad]",
      "tests/test_failure_reports.py::test_monad_solve_refuses_a_monad_whose_laws_fail")),
    ("alpha-inverse-trusts-unmarked", "src/sepcat/equivariant.py",
     "if self.report is None and (inv[g] @ a", "if False and (inv[g] @ a",
     ("tests/test_equivariant.py::test_to_module_rejects_non_invertible_alpha_on_every_call",
      f"{MARK_ORACLE}::test_a_marked_object_inverts_its_alphas_without_composing[S_3 on C1]")),
    ("lifted-laws-drop-right-unit", "src/sepcat/complexes.py",
     "verdicts[p].append((key, lhs == rhs))",
     "verdicts[p].append((key, lhs == rhs or key == 'right unit'))",
     (f"{LIFTED_ORACLE}::test_a_place_that_fails_fails_only_its_degrees",)),
    ("group-mark-before-validation", "src/sepcat/equivariant.py",
     "        self.report = None  # the passing `validate` report (`reports.checked`)\n"
     "        if unit is None:",
     "        self.report = ValidationReport()  # the passing `validate` report (`reports.checked`)\n"
     "        if unit is None:",
     (f"{MARK_ORACLE}::test_a_rebuilt_structure_carries_no_mark[group]",)),
    ("monad-solve-skips-precondition", "src/sepcat/monads.py",
     '    checked(m, validate_monad).require(PreconditionError, "monad_separability_solve needs a monad")\n',
     "",
     ("tests/test_failure_reports.py::test_monad_solve_refuses_a_monad_whose_laws_fail",
      f"{MARK_ORACLE}::test_builder_monads_solve_without_validating_again")),
    ("module-hom-formula-skips-target-gate", "src/sepcat/modules.py",
     "    if x is not None and checked(b, validate_module).passed:\n",
     "    if x is not None:\n",
     (f"{MODULE_ORACLE}::test_a_target_that_fails_its_laws_is_solved",)),
    ("module-free-test-on-carrier-alone", "src/sepcat/modules.py",
     "\n              and m.mult.components.get(x) == a.action), None)",
     "), None)",
     (f"{MODULE_ORACLE}::test_a_source_free_only_by_its_carrier_is_solved",)),
    ("module-mark-before-validation", "src/sepcat/modules.py",
     "        self.report = None  # the passing `validate_module` report",
     "        self.report = ValidationReport()  # the passing `validate_module` report",
     (f"{MARK_ORACLE}::test_a_rebuilt_structure_carries_no_mark[module]",)),
)


def copy_tree(dst: Path) -> Path:
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dst / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(ROOT / name, dst / name)
    return dst


def pytest_code(tree: Path, tests) -> int:
    """pytest's exit code for the tests on the tree: 0 passed, 1 some failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def mutated(path: Path, snippet: str, replacement: str) -> str:
    text = path.read_text(encoding="utf-8")
    if text.count(snippet) != 1:
        raise LookupError(f"snippet matches {text.count(snippet)} times in {path.name}")
    return text.replace(snippet, replacement)


def main() -> int:
    for mid, file, snippet, replacement, _ in MUTANTS:
        try:
            mutated(ROOT / file, snippet, replacement)
        except LookupError as exc:
            print(f"{mid}: {exc}")
            return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for m in MUTANTS for t in m[4]})
        code = pytest_code(copy_tree(Path(tmp) / "clean"), tests)
        print(f"unmutated: {'pass' if code == 0 else f'pytest exit {code}'} "
              f"({len(tests)} tests, {time.perf_counter() - start:.1f} s)")
        if code != 0:
            return 1
        survivors = 0
        for mid, file, snippet, replacement, tests in MUTANTS:
            t0 = time.perf_counter()
            tree = copy_tree(Path(tmp) / mid)
            (tree / file).write_text(mutated(tree / file, snippet, replacement), encoding="utf-8")
            code = pytest_code(tree, tests)
            survivors += code != 1
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"pytest exit {code}"
            print(f"{mid}: {verdict} ({time.perf_counter() - t0:.1f} s)")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
