"""In-memory span recorder and the table of sepcat functions it wraps.

A span is (id, name, parent id, op id, start, end, self time, counters).  Self
time is the span's duration minus the time its child spans cover, so the self
times of every span under an op add up to the op's wall time; the op span's own
self time is the part no wrapped function covers (the remainder).

Spans are grouped: a group ("linalg.solve") names the layer before the dot.
Per group the recorder keeps the number of calls, the inclusive time of the
outermost calls (a group nested in itself is not counted twice), the self
time and the longest outermost call.  The hot morphism-algebra groups are
only aggregated, not kept span by span, to bound memory.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from time import perf_counter

LAYERS = ("workspace", "equivariant", "category", "functors", "monads",
          "modules", "complexes", "linalg", "cli")

# (group, defining module, attribute); "Class.attr" names a method.
SPAN_TABLE = (
    ("workspace.parse", "sepcat.workspace", "parse_workspace"),
    ("workspace.validate", "sepcat.workspace", "validate_workspace"),
    ("equivariant.build", "sepcat.equivariant", "equivariant_category"),
    ("equivariant.build", "sepcat.equivariant", "induce_adjunction"),
    ("equivariant.build", "sepcat.equivariant", "equivariant_monad"),
    ("equivariant.build", "sepcat.equivariant", "free_equivariant"),
    ("equivariant.dictionary", "sepcat.equivariant", "to_module"),
    ("equivariant.dictionary", "sepcat.equivariant", "to_equivariant"),
    ("equivariant.characters", "sepcat.equivariant", "character_modules"),
    ("equivariant.eq_hom", "sepcat.equivariant", "eq_hom_space"),
    ("category.invert", "sepcat.category", "invert_morphism"),
    ("category.compose", "sepcat.category", "Morphism.__matmul__"),
    ("category.validate", "sepcat.category", "validate_presentation"),
    ("functors.on_morphism", "sepcat.functors", "Functor.on_morphism"),
    ("functors.solve", "sepcat.functors", "separability_solve"),
    ("functors.verify", "sepcat.functors", "SepWitness.verify"),
    ("functors.validate", "sepcat.functors", "validate_functor"),
    ("functors.validate", "sepcat.functors", "validate_nat"),
    ("functors.validate", "sepcat.functors", "validate_adjunction"),
    ("monads.solve", "sepcat.monads", "monad_separability_solve"),
    ("monads.verify", "sepcat.monads", "MonadSepWitness.verify"),
    ("monads.validate", "sepcat.monads", "validate_monad"),
    ("modules.hom_basis", "sepcat.modules", "module_hom_basis"),
    ("modules.validate", "sepcat.modules", "validate_module"),
    ("complexes.hom", "sepcat.complexes", "module_chain_hom_dim"),
    ("complexes.hom", "sepcat.complexes", "lifted_module_hom_dim"),
    ("complexes.check", "sepcat.complexes", "derived_comparison_check"),
    ("linalg.solve", "sepcat.linalg", "solve_sparse"),
    ("cli.run", "sepcat.cli", "run"),
    ("cli.command", "sepcat.cli", "cmd_validate"),
    ("cli.command", "sepcat.cli", "cmd_adjunction_check"),
    ("cli.command", "sepcat.cli", "cmd_separability"),
    ("cli.command", "sepcat.cli", "cmd_em_report"),
    ("cli.command", "sepcat.cli", "cmd_equivariant_report"),
    ("cli.command", "sepcat.cli", "cmd_complex_report"),
)

AGGREGATE_ONLY = frozenset({"category.compose", "functors.on_morphism"})
SOLVER_GROUPS = frozenset({"monads.solve", "functors.solve"})
# A solver's assembly time is its span time outside these child groups.
ELIMINATE_AND_VERIFY = frozenset({"linalg.solve", "monads.verify", "functors.verify",
                                  "monads.validate", "functors.validate"})
KEEP_LIMIT = 300_000


class GroupTotals:
    __slots__ = ("calls", "incl", "self_s", "max_s")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.max_s = 0.0


class Recorder:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.totals: dict[str, GroupTotals] = {}
        self.counters = {"rows": 0, "vars": 0, "nnz": 0, "rank": 0, "infeasible": 0}
        self.op_id = None
        self._op_label = None
        self._stack = []
        self._depth: dict[str, int] = {}
        self._next = 0

    def push(self, group: str) -> None:
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        self._depth[group] = self._depth.get(group, 0) + 1
        self._stack.append([self._next, group, perf_counter(), 0.0, parent])

    def pop(self, label: str, keep: bool = True, counters=None) -> None:
        end = perf_counter()
        sid, group, start, child, parent = self._stack.pop()
        dur = end - start
        own = dur - child
        if self._stack:
            self._stack[-1][3] += dur
        depth = self._depth[group] - 1
        self._depth[group] = depth
        tot = self.totals.get(group)
        if tot is None:
            tot = self.totals[group] = GroupTotals()
        tot.calls += 1
        tot.self_s += own
        if depth == 0:
            tot.incl += dur
            if dur > tot.max_s:
                tot.max_s = dur
        if keep:
            if len(self.spans) < KEEP_LIMIT:
                self.spans.append((sid, f"{group}:{label}", parent, self.op_id,
                                   start, end, own, counters))
            else:
                self.dropped += 1

    def begin_op(self, op_id: int, label: str) -> None:
        self.op_id = op_id
        self._op_label = label
        self.push("op")

    def end_op(self) -> None:
        self.pop(self._op_label)
        self.op_id = None

    def wrap(self, fn, group: str, label: str):
        keep = group not in AGGREGATE_ONLY
        if group == "linalg.solve":
            @functools.wraps(fn)
            def counted(rows, consts, n_vars, field, labels=None):
                c = {"rows": len(rows), "vars": n_vars, "nnz": sum(map(len, rows))}
                self.push(group)
                try:
                    res = fn(rows, consts, n_vars, field, labels)
                finally:
                    self.pop(label, True, c)
                c["rank"] = res.rank
                c["infeasible"] = int(not res.feasible)
                for k, v in c.items():
                    self.counters[k] += v
                return res
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.push(group)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop(label, keep)
        return timed

    def group(self, name: str) -> GroupTotals:
        return self.totals.get(name) or GroupTotals()

    def assemble_s(self, solver_group: str) -> float:
        """Time in solver_group spans outside their direct elimination and verification children."""
        solvers = {sid: end - start for sid, name, _, _, start, end, _, _ in self.spans
                   if name.split(":")[0] == solver_group}
        for _, name, parent, _, start, end, _, _ in self.spans:
            if parent in solvers and name.split(":")[0] in ELIMINATE_AND_VERIFY:
                solvers[parent] -= end - start
        return sum(solvers.values())

    def layer_self(self) -> dict:
        """Self time per layer, plus the op remainder that no layer span covers."""
        out = {layer: 0.0 for layer in LAYERS}
        for group, tot in self.totals.items():
            layer = group.split(".")[0]
            if layer in out:
                out[layer] += tot.self_s
        out["remainder"] = self.group("op").self_s
        return out


def sepcat_modules():
    import sepcat
    for info in pkgutil.iter_modules(sepcat.__path__):
        importlib.import_module(f"sepcat.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "sepcat" or name.startswith("sepcat.")]


class Patches:
    """Replace each listed function wherever callers look it up.

    A function bound at import time with ``from .x import y`` lives on in every
    importing module, so each module attribute that is the original object is
    swapped.  Function-local imports resolve through the defining module and
    methods through their class, which are swapped as well.
    """

    def __init__(self, recorder: Recorder):
        self._swaps = []
        self._originals = set()
        modules = sepcat_modules()
        for group, modname, attr in SPAN_TABLE:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._swaps.append((cls, meth, orig, recorder.wrap(orig, group, attr)))
                continue
            orig = getattr(mod, attr)
            wrapped = recorder.wrap(orig, group, attr)
            self._originals.add(id(orig))
            for m in modules:
                for key, val in vars(m).items():
                    if val is orig:
                        self._swaps.append((m, key, orig, wrapped))
        self._modules = modules

    def install(self) -> None:
        for holder, attr, _, wrapped in self._swaps:
            setattr(holder, attr, wrapped)

    def restore(self) -> None:
        for holder, attr, orig, _ in self._swaps:
            setattr(holder, attr, orig)

    def stale(self) -> list[str]:
        """Module attributes still bound to an unwrapped original while installed."""
        return [f"{m.__name__}.{key}" for m in self._modules
                for key, val in vars(m).items() if id(val) in self._originals]

    def sites(self) -> list[str]:
        return sorted(f"{h.__module__}.{h.__name__}.{a}" if isinstance(h, type)
                      else f"{h.__name__}.{a}" for h, a, _, _ in self._swaps)
