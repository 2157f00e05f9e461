"""Workspace files: a single self-describing JSON document declaring fields,
categories, groups, actions, equivariant objects, functors, adjunctions,
monads, modules, complexes and check suites.

Matrices are nested arrays of scalar strings; all cross-references are by
name and must resolve; duplicate names are rejected.  Parsing checks the
structure of every declaration; a declaration is built, and its law suite run,
only when something references it (see Workspace).
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from .category import (CatObject, LinearCategory, Morphism, hom_coord_dim,
                       validate_presentation)
from .complexes import BoundedComplex, ModuleComplex, validate_complex
from .equivariant import (EquivariantObject, FiniteGroup, GroupAction,
                          equivariant_category, induce_adjunction, validate_action)
from .errors import LawViolationError, NotIdempotentError, WorkspaceError
from .functors import (Adjunction, Functor, NatTrans, SepWitness, compose_functors,
                       validate_adjunction, validate_functor, validate_nat)
from .modules import MModule, free_module, validate_module
from .monads import Monad, MonadSepWitness, monad_from_adjunction, validate_monad
from .reports import ValidationReport, checked
from .scalars import Field

SCHEMA = "sepcat-workspace/1"


def _no_duplicates(pairs):
    seen = set()
    out = {}
    for k, v in pairs:
        if k in seen:
            raise WorkspaceError(f"duplicate name {k!r}")
        seen.add(k)
        out[k] = v
    return out


# ------------------------------------------------------------- serialization

def obj_to_json(o: CatObject) -> dict:
    idem = None if o.idem is None else mor_to_json(o.idem)["blocks"]
    return {"summands": list(o.summands), "idempotent": idem}


def parse_obj(cat: LinearCategory, data) -> CatObject:
    """An object reference; a malformed one raises ValueError, named by its declaration's build."""
    if isinstance(data, list):
        return CatObject(cat, data)
    if not isinstance(data, dict) or "summands" not in data:
        raise ValueError(f"bad object reference {data!r}")
    plain = CatObject(cat, data["summands"])
    idem = data.get("idempotent")
    if idem is None:
        return plain
    try:
        e = parse_mor(cat, idem, plain, plain)
    except ValueError as exc:
        raise ValueError(f"idempotent: {exc}") from None
    if e @ e != e:
        raise NotIdempotentError("idempotent: e∘e ≠ e")
    return CatObject(cat, plain.summands, e)


def mor_to_json(m: Morphism) -> dict:
    field = m.cat.field
    return {
        "dom": obj_to_json(m.dom),
        "cod": obj_to_json(m.cod),
        "blocks": [[[field.fmt(s) for s in vec] for vec in row] for row in m.blocks],
    }


def parse_mor(cat: LinearCategory, data, dom: CatObject | None = None,
              cod: CatObject | None = None) -> Morphism:
    """A morphism; a malformed one raises ValueError, named by its declaration's build."""
    if isinstance(data, list):
        blocks_json = data
    elif isinstance(data, dict) and "blocks" in data:
        blocks_json = data["blocks"]
        if dom is None and "dom" in data:
            dom = parse_obj(cat, data["dom"])
        if cod is None and "cod" in data:
            cod = parse_obj(cat, data["cod"])
    else:
        raise ValueError(f"bad morphism {data!r}")
    if dom is None or cod is None:
        raise ValueError("morphism needs explicit dom/cod")
    blocks = [[tuple(cat.field.parse(s) for s in vec) for vec in row]
              for row in blocks_json]
    try:
        return Morphism(cat, dom, cod, blocks)
    except ValueError as exc:
        raise ValueError(f"morphism shape error: {exc}") from None


# ---------------------------------------------------------------- structure

SECTIONS = ("fields", "categories", "groups", "actions", "equivariant_objects",
            "functors", "nat_transformations", "adjunctions", "monads", "modules",
            "complexes", "check_suites")

_REF = (list, dict)  # an object or morphism: a bare list or an object with keys

# Per section: the default kind (None for a section without kinds) and, per
# kind, the keys of a declaration.  A section name as value marks a reference
# into that section, a type the JSON type of the value; a trailing "?" marks an
# optional key.  A complex is of modules when it names a monad.
_SHAPES = {
    "categories": (None, {None: {"field": "fields", "objects": list, "homs?": list,
                                 "compositions?": list, "identities?": dict}}),
    "groups": (None, {None: {"elements": list, "table": list}}),
    "actions": ("trivial", {
        "trivial": {"group": "groups", "category": "categories"},
        "permutation": {"group": "groups", "category": "categories", "objects?": dict},
        "explicit": {"group": "groups", "category": "categories", "functors": dict}}),
    "equivariant_objects": (None, {None: {"action": "actions", "carrier": _REF,
                                          "alpha": dict}}),
    "functors": ("explicit", {
        "identity": {"category": "categories"},
        "action": {"action": "actions", "element": str},
        "forgetful": {"action": "actions"},
        "explicit": {"source": "categories", "target": "categories", "objects": dict,
                     "homs?": dict}}),
    "nat_transformations": (None, {None: {"source": "functors", "target": "functors",
                                          "components": dict}}),
    "adjunctions": ("induced", {"identity": {"category": "categories"},
                                "induced": {"action": "actions"}}),
    "monads": ("group", {"identity": {"category": "categories"},
                         "group": {"action": "actions"},
                         "from_adjunction": {"adjunction": "adjunctions"}}),
    "modules": ("explicit", {"free": {"monad": "monads", "on": _REF},
                             "explicit": {"monad": "monads", "carrier": _REF,
                                          "action": _REF}}),
    "complexes": (None, {
        "of_modules": {"monad": "monads", "modules?": dict, "differentials?": dict},
        "of_objects": {"category": "categories", "terms?": dict, "differentials?": dict}}),
}


class _Section(Mapping):
    """One section's declarations by name; looking one up builds it."""

    def __init__(self, ws: "Workspace", section: str):
        self._ws, self._section, self._specs = ws, section, ws._specs[section]

    def __contains__(self, name):
        return name in self._specs

    def __iter__(self):
        return iter(self._specs)

    def __len__(self):
        return len(self._specs)

    def __getitem__(self, name):
        if name not in self._specs:
            raise KeyError(name)
        return self._ws._get(self._section, name)


class Workspace:
    """A workspace document whose declarations are built on first reference.

    Construction makes one structural pass over every declaration: JSON
    shapes, kinds and name references.  A declaration is built the first time
    something references it, together with everything it references, and its
    law suite runs then, once.  Looking up a declaration that fails its laws
    raises WorkspaceError naming it, also from inside the build of a
    declaration that references it.
    """

    def __init__(self, path: str, raw: dict):
        self.path = path
        self._specs = {section: raw.get(section, {}) for section in SECTIONS}
        for section, decls in self._specs.items():
            if not isinstance(decls, dict):
                raise WorkspaceError(f"section {section!r} must be an object")
        self.order = {section: list(decls) for section, decls in self._specs.items()}
        for name, spec in self._specs["fields"].items():
            if not isinstance(spec, str):
                raise WorkspaceError(f"field {name}: expected a field spec string")
        meta = {section: {name: self._scan(section, name, spec)
                          for name, spec in self._specs[section].items()}
                for section in _SHAPES}
        for name, spec in self._specs["check_suites"].items():
            if not isinstance(spec, list) or not all(
                    isinstance(e, dict) and e.get("run") != "validate" for e in spec):
                raise WorkspaceError(f"check suite {name}: expected a list of entries, "
                                     "none of them validate")
        self.check_suites: dict[str, list] = self._specs["check_suites"]
        self.adjunction_meta: dict[str, dict] = meta["adjunctions"]
        self.monad_meta: dict[str, dict] = meta["monads"]
        self.complex_meta: dict[str, dict] = meta["complexes"]
        self.eqobj_action = {n: m["action"] for n, m in meta["equivariant_objects"].items()}
        self.module_monad_name = {n: m["monad"] for n, m in meta["modules"].items()}
        self._kinds = {(section, name): m.get("kind")
                       for section, decls in meta.items() for name, m in decls.items()}
        (self.fields, self.categories, self.groups, self.actions, self.equivariant_objects,
         self.functors, self.nat_transformations, self.adjunctions, self.monads,
         self.modules, self.complexes) = (_Section(self, s) for s in SECTIONS[:-1])
        self._built: dict[tuple, object] = {}
        self._reports: dict[tuple, ValidationReport] = {}
        self._eqcats: dict = {}
        self._adjunctions: dict = {}

    def _scan(self, section: str, name: str, spec) -> dict:
        """Check one declaration's shape, kind and references; return its metadata."""
        word = _DECLARED[section][0]
        if not isinstance(spec, dict):
            raise WorkspaceError(f"{word} {name}: expected an object")
        default, kinds = _SHAPES[section]
        if section == "complexes":
            kind = "of_modules" if "monad" in spec else "of_objects"
        else:
            kind = spec.get("kind", default) if default else None
        if not isinstance(kind, (str, type(None))) or kind not in kinds:
            raise WorkspaceError(f"{word} {name}: unknown kind {kind!r}")
        meta = {"kind": kind} if kind else {}
        for key, want in kinds[kind].items():
            optional = key.endswith("?")
            key = key.rstrip("?")
            if key not in spec:
                if optional:
                    continue
                raise WorkspaceError(f"{word} {name}: missing {key!r}")
            if isinstance(want, str):
                self._resolve(want, spec[key])
                meta[key] = spec[key]
            elif not isinstance(spec[key], want):
                raise WorkspaceError(f"{word} {name}: {key!r} has the wrong JSON type")
        for ref in spec.get("modules", {}).values() if kind == "of_modules" else ():
            self._resolve("modules", ref)
        return meta

    def _resolve(self, section: str, name) -> None:
        if not isinstance(name, str) or name not in self._specs[section]:
            raise WorkspaceError(f"unresolved reference to {_DECLARED[section][0]} {name!r}")

    def _get(self, section: str, name: str):
        """The built declaration; WorkspaceError names it when it fails its laws."""
        self._resolve(section, name)
        key = (section, name)
        obj = self._build(key)
        if not self._reports[key].passed:
            raise WorkspaceError(f"workspace validation failed: {_DECLARED[section][0]} {name}")
        return obj

    def _build(self, key: tuple):
        if key in self._built:
            return self._built[key]
        section, name = key
        word, build, law_suite = _DECLARED[section]
        try:
            obj = build(name, self._specs[section][name], self._kinds.get(key), self)
            report = law_suite(obj)
        except WorkspaceError:
            raise
        except (ArithmeticError, AttributeError, IndexError, KeyError, LawViolationError,
                TypeError, ValueError) as exc:
            detail = f"missing entry {exc}" if isinstance(exc, KeyError) else exc
            raise WorkspaceError(f"{word} {name}: {detail}") from exc
        self._built[key] = obj
        self._reports[key] = report
        return obj

    def action(self, name):
        return self._get("actions", name)

    def functor(self, name):
        return self._get("functors", name)

    def adjunction(self, name):
        return self._get("adjunctions", name)

    def monad(self, name):
        return self._get("monads", name)

    def eqcat_for_action(self, name):
        """The equivariant presentation for an action, with declared extras."""
        act = self.action(name)
        extras = {label: self._get("equivariant_objects", label)
                  for label, a in self.eqobj_action.items() if a == name}
        if name not in self._eqcats:
            self._eqcats[name] = equivariant_category(act, extra=extras)
        return self._eqcats[name]

    def adjunction_for_action(self, name):
        """The induced adjunction (F, U) on the action's equivariant presentation."""
        if name not in self._adjunctions:
            self._adjunctions[name] = induce_adjunction(self.eqcat_for_action(name))
        return self._adjunctions[name]

    def modules_for_monad_name(self, monad_name) -> dict:
        return {n: self.modules[n] for n, m in self.module_monad_name.items()
                if m == monad_name}

    def monad_names_for_action(self, action_name) -> list[str]:
        return [n for n, meta in self.monad_meta.items() if meta.get("action") == action_name]


# ----------------------------------------------------------------- builders

def _build_category(name, spec, kind, ws) -> LinearCategory:
    field = ws.fields[spec["field"]]
    objects = spec["objects"]
    hom_dims, pair_of_label, labels = {}, {}, {}
    for hom in spec.get("homs", []):
        x, y = hom["from"], hom["to"]
        basis = hom["basis"]
        hom_dims[(x, y)] = len(basis)
        for i, lab in enumerate(basis):
            if lab in pair_of_label:
                raise WorkspaceError(f"category {name}: duplicate basis label {lab!r}")
            pair_of_label[lab] = (x, y, i)
            labels[(x, y, i)] = lab

    def combo(pair, data):
        x, y = pair
        d = hom_dims.get((x, y), 0)
        vec = [field.zero()] * d
        for lab, coeff in data.items():
            if lab not in pair_of_label:
                raise WorkspaceError(f"category {name}: unknown basis label {lab!r}")
            lx, ly, i = pair_of_label[lab]
            if (lx, ly) != (x, y):
                raise WorkspaceError(
                    f"category {name}: label {lab!r} does not live in Hom({x}, {y})")
            vec[i] = field.parse(coeff)
        return tuple(vec)

    composition = {}
    for entry in spec.get("compositions", []):
        g, f = entry["g"], entry["f"]
        if g not in pair_of_label or f not in pair_of_label:
            raise WorkspaceError(f"category {name}: unknown basis label in composition")
        fx, fy, fi = pair_of_label[f]
        gy, gz, gi = pair_of_label[g]
        if fy != gy:
            raise WorkspaceError(f"category {name}: {g}∘{f} is not composable")
        key = (fx, fy, gz)
        if key not in composition:
            zero = tuple([field.zero()] * hom_dims.get((fx, gz), 0))
            composition[key] = [[zero] * hom_dims.get((fx, fy), 0)
                                for _ in range(hom_dims.get((fy, gz), 0))]
        composition[key][gi][fi] = combo((fx, gz), entry["is"])
    identities = {x: combo((x, x), data) for x, data in spec.get("identities", {}).items()}
    return LinearCategory(field, objects, hom_dims, composition, identities,
                          basis_labels=labels, name=name)


def _build_group(name, spec, kind, ws) -> FiniteGroup:
    elements, rows = spec["elements"], spec["table"]
    if len(rows) != len(elements) or any(len(r) != len(elements) for r in rows):
        raise WorkspaceError(f"group {name}: table must be |G|×|G|")
    table = {(g, h): rows[i][j] for i, g in enumerate(elements)
             for j, h in enumerate(elements)}
    return FiniteGroup(elements, table, unit=spec.get("unit"), name=name)


def _build_action(name, spec, kind, ws) -> GroupAction:
    group = ws.groups[spec["group"]]
    cat = ws.categories[spec["category"]]
    if kind == "trivial":
        return GroupAction.trivial(group, cat, name=name)
    if kind == "permutation":
        perms = {}
        for g in group.elements:
            p = spec.get("objects", {}).get(g)
            if p is None:
                p = {x: x for x in cat.objects}
            perms[g] = p
        return GroupAction.from_permutation(group, cat, perms, name=name)
    functors = {}
    for g in group.elements:
        gspec = spec["functors"][g]
        functors[g] = _parse_functor_body(f"{name}[{g}]", gspec, cat, cat, ws)
    return GroupAction(group, cat, functors, name=name)


def _build_equivariant_object(name, spec, kind, ws) -> EquivariantObject:
    act = ws.actions[spec["action"]]
    carrier = parse_obj(act.base, spec["carrier"])
    alpha = {}
    for g in act.group.elements:
        mdata = spec["alpha"].get(g)
        if mdata is None:
            raise WorkspaceError(f"equivariant object {name}: missing α_{g}")
        cod = act.functors[g].on_object(carrier)
        alpha[g] = parse_mor(act.base, mdata, dom=carrier, cod=cod)
    return EquivariantObject(act, carrier, alpha, name=name)


def _parse_functor_body(name, spec, source, target, ws) -> Functor:
    object_map = {x: parse_obj(target, ref) for x, ref in spec["objects"].items()}
    hom_map = {}
    for x, y in source.hom_pairs():
        mors = []
        for i in range(source.hom_dim(x, y)):
            lab = source.basis_label(x, y, i)
            mdata = spec["homs"].get(lab)
            if mdata is None:
                raise WorkspaceError(f"functor {name}: missing image of {lab!r}")
            mors.append(parse_mor(target, mdata, dom=object_map[x], cod=object_map[y]))
        hom_map[(x, y)] = tuple(mors)
    return Functor(source, target, object_map, hom_map, name=name)


def _build_functor(name, spec, kind, ws) -> Functor:
    if kind == "identity":
        return Functor.identity(ws.categories[spec["category"]], name=name)
    if kind == "action":
        return ws.actions[spec["action"]].functors[spec["element"]]
    if kind == "forgetful":
        return ws.adjunction_for_action(spec["action"]).G
    source = ws.categories[spec["source"]]
    target = ws.categories[spec["target"]]
    return _parse_functor_body(name, spec, source, target, ws)


def _build_nat_transformation(name, spec, kind, ws) -> NatTrans:
    src = ws.functors[spec["source"]]
    dst = ws.functors[spec["target"]]
    if src.source is not dst.source or src.target is not dst.target:
        raise WorkspaceError(f"natural transformation {name}: functors are not parallel")
    comps = {}
    for x in src.source.objects:
        mdata = spec["components"].get(x)
        if mdata is None:
            raise WorkspaceError(f"natural transformation {name}: missing component at {x}")
        comps[x] = parse_mor(src.target, mdata, dom=src.object_map[x], cod=dst.object_map[x])
    return NatTrans(src, dst, comps, name=name)


def _identity_adjunction(cat, name="") -> Adjunction:
    idf = Functor.identity(cat)
    ident = {x: cat.obj(x).identity() for x in cat.objects}
    return Adjunction(idf, idf,
                      NatTrans(idf, compose_functors(idf, idf), dict(ident), name="η"),
                      NatTrans(compose_functors(idf, idf), idf, dict(ident), name="ε"),
                      name=name)


def _build_adjunction(name, spec, kind, ws) -> Adjunction:
    if kind == "identity":
        return _identity_adjunction(ws.categories[spec["category"]], name=name)
    return ws.adjunction_for_action(spec["action"])


def _build_monad(name, spec, kind, ws) -> Monad:
    if kind == "identity":
        return Monad.identity_monad(ws.categories[spec["category"]])
    if kind == "group":
        return ws.actions[spec["action"]].group_monad
    return monad_from_adjunction(ws.adjunctions[spec["adjunction"]], name=name)


def _build_module(name, spec, kind, ws) -> MModule:
    monad = ws.monads[spec["monad"]]
    cat = monad.cat
    if kind == "free":
        return free_module(monad, parse_obj(cat, spec["on"]), name=name)
    carrier = parse_obj(cat, spec["carrier"])
    action = parse_mor(cat, spec["action"], dom=monad.functor.on_object(carrier), cod=carrier)
    return MModule(monad, carrier, action, name=name)


def _build_complex(name, spec, kind, ws):
    if kind == "of_modules":
        monad = ws.monads[spec["monad"]]
        mods = {int(deg): ws.modules[ref] for deg, ref in spec.get("modules", {}).items()}
        diffs = {}
        for deg, mdata in spec.get("differentials", {}).items():
            n = int(deg)
            if n not in mods or (n + 1) not in mods:
                raise WorkspaceError(f"complex {name}: differential {n} out of support")
            diffs[n] = parse_mor(monad.cat, mdata,
                                 dom=mods[n].carrier, cod=mods[n + 1].carrier)
        return ModuleComplex(monad, mods, diffs, name=name)
    cat = ws.categories[spec["category"]]
    terms = {int(d): parse_obj(cat, ref) for d, ref in spec.get("terms", {}).items()}
    diffs = {}
    for deg, mdata in spec.get("differentials", {}).items():
        n = int(deg)
        dom = terms.get(n) or cat.zero_object()
        cod = terms.get(n + 1) or cat.zero_object()
        diffs[n] = parse_mor(cat, mdata, dom=dom, cod=cod)
    return BoundedComplex(cat, terms, diffs, name=name)


# Per section: the word naming one declaration, its builder and its law suite.
# The suites are looked up when called, so wrapping them module-wide applies.  What a
# builder validated (group monads, induced adjunctions, Φ_g) keeps its report (`checked`).
_DECLARED = {
    "fields": ("field", lambda name, spec, kind, ws: Field.from_spec(spec),
               lambda f: ValidationReport()),
    "categories": ("category", _build_category, lambda c: validate_presentation(c)),
    "groups": ("group", _build_group, lambda g: checked(g, FiniteGroup.validate)),
    "actions": ("action", _build_action, lambda a: checked(a, validate_action)),
    "equivariant_objects": ("equivariant object", _build_equivariant_object,
                            lambda z: checked(z, EquivariantObject.validate)),
    "functors": ("functor", _build_functor, lambda f: checked(f, validate_functor)),
    "nat_transformations": ("natural transformation", _build_nat_transformation,
                            lambda t: checked(t, validate_nat)),
    "adjunctions": ("adjunction", _build_adjunction, lambda a: checked(a, validate_adjunction)),
    "monads": ("monad", _build_monad, lambda m: checked(m, validate_monad)),
    "modules": ("module", _build_module, lambda m: checked(m, validate_module)),
    "complexes": ("complex", _build_complex, lambda c: c.validate()
                  if isinstance(c, ModuleComplex) else validate_complex(c)),
}


# ------------------------------------------------------------------ parsing

def _read_json(path: str, what: str, **kwargs):
    """The JSON document in the file at path; WorkspaceError if it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, **kwargs)
    except (OSError, UnicodeDecodeError) as exc:
        raise WorkspaceError(f"cannot read {what}: {exc}")
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def parse_workspace(path: str, validate: bool = True) -> Workspace:
    """Read a workspace file and check the structure of every declaration.

    With validate, every declaration is also built and its law suite run, and
    any failure raises WorkspaceError; without, declarations are built on first
    reference (see Workspace).
    """
    raw = _read_json(path, "workspace", object_pairs_hook=_no_duplicates)
    if not isinstance(raw, dict) or raw.get("schema") != SCHEMA:
        raise WorkspaceError(f"expected a workspace document with schema {SCHEMA!r}")
    ws = Workspace(path, raw)
    if validate:
        rep = validate_workspace(ws)
        if not rep.passed:
            lines = "; ".join(f"{n}" for n, _ in rep.failures())
            raise WorkspaceError(f"workspace validation failed: {lines}")
    return ws


def validate_workspace(ws: Workspace) -> ValidationReport:
    """Build every declaration and report its law suite.  A declaration whose
    build fails once some law failure is on the report is recorded as failed,
    since a dependency comes before it and its lookup may be what failed."""
    rep = ValidationReport(f"workspace {ws.path}")
    for section in SECTIONS[1:-1]:
        for name in ws.order[section]:
            key, check = (section, name), f"{_DECLARED[section][0]} {name}"
            try:
                ws._build(key)
            except WorkspaceError as exc:
                if rep.passed:
                    raise
                rep.record(check, False, str(exc))
                continue
            sub = ws._reports[key]
            rep.record(check, sub.passed, "; ".join(n for n, _ in sub.failures()))
    return rep


# ------------------------------------------------------------------ witnesses

def witness_to_json(name: str, target: str, witness) -> dict:
    if target == "functor":
        src = witness.functor.source
        # row i holds coordinate i of every image column H(e_k)
        maps = {f"{x}|{y}": [[src.field.fmt(col[i]) for col in cols]
                             for i in range(src.hom_dim(x, y))]
                for (x, y), cols in sorted(witness.maps.items())}
        return {"schema": "sepcat-witness/1", "kind": "functor-separability",
                "workspace_ref": name, "target": target, "maps": maps}
    if target == "monad":
        comps = {x: mor_to_json(m) for x, m in sorted(witness.sigma.components.items())}
        return {"schema": "sepcat-witness/1", "kind": "monad-section",
                "workspace_ref": name, "target": target, "components": comps}
    raise ValueError(f"unknown witness target {target!r}")


def _witness_entry(data: dict, key: str, kind: type = str):
    """data[key], which a witness file must hold as a JSON value of type `kind`."""
    if not isinstance(data.get(key), kind):
        raise WorkspaceError(f"witness file: {key!r} is missing or has the wrong JSON type")
    return data[key]


def load_witness(path: str, ws: Workspace):
    """Re-ingest a witness file against its workspace and re-verify its laws;
    WorkspaceError names the key or entry at fault in a malformed file."""
    data = _read_json(path, "witness file")
    if not isinstance(data, dict) or data.get("schema") != "sepcat-witness/1":
        raise WorkspaceError("not a witness file")
    name, target = _witness_entry(data, "workspace_ref"), _witness_entry(data, "target")
    if target == "functor":
        functor = ws.functor(name)
        maps = {}
        for key, rows in _witness_entry(data, "maps", dict).items():
            x, _, y = key.partition("|")
            d = functor.source.hom_dim(x, y)
            if not d:
                raise WorkspaceError(f"witness map key {key!r} is not a nonzero hom pair")
            amb = hom_coord_dim(functor.target, functor.object_map[x],
                                functor.object_map[y])
            try:
                parsed = [[functor.source.field.parse(s) for s in row] for row in rows]
                if bad := [len(row) for row in parsed if len(row) != amb]:
                    raise ValueError(f"rows of length {bad[0]}, expected {amb}")
                if len(parsed) != d:
                    raise ValueError(f"{len(parsed)} rows, expected {d}")
                maps[(x, y)] = [list(col) for col in zip(*parsed)]
            except (ArithmeticError, AttributeError, TypeError, ValueError) as exc:
                raise WorkspaceError(f"witness map {key!r}: {exc}") from exc
        if missing := next((f"{x}|{y}" for x, y in functor.source.hom_pairs() if (x, y) not in maps), None):
            raise WorkspaceError(f"witness file: no map for hom pair {missing!r}")
        w = SepWitness(functor, maps)
        return w, w.verify()
    if target == "monad":
        monad = ws.monad(name)
        comps = {}
        for x, mdata in _witness_entry(data, "components", dict).items():
            if x not in monad.cat.objects:
                raise WorkspaceError(f"witness component key {x!r} is not a base object")
            try:
                comps[x] = parse_mor(monad.cat, mdata, dom=monad.functor.object_map[x],
                                     cod=monad.squared.object_map[x])
            except (ArithmeticError, AttributeError, TypeError, ValueError) as exc:
                raise WorkspaceError(f"witness component {x!r}: {exc}") from exc
        w = MonadSepWitness(monad, NatTrans(monad.functor, monad.squared, comps, name="σ"))
        return w, w.verify()
    raise WorkspaceError(f"unknown witness target {target!r}")
