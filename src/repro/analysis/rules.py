"""Concrete lint rules enforcing the repo's determinism contracts.

Each rule is pure AST analysis — nothing here imports the code under check.
Paths in rule options are posix paths relative to the lint root (normally
``src/repro``), e.g. ``"sim/engine.py"``.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .engine import Finding, ParsedModule, Rule, iter_source_files

# -- wall-clock ---------------------------------------------------------------------------

#: ``time`` module functions that read the host clock.
_TIME_FUNCTIONS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
    "thread_time", "thread_time_ns", "clock",
})

#: ``datetime``-family constructors that read the host clock.
_DATETIME_METHODS = frozenset({"now", "utcnow", "today"})


class WallClockRule(Rule):
    """Ban host wall-clock reads inside simulated code.

    Simulated time is ``Simulator.now``; any ``time.time()`` /
    ``perf_counter()`` / ``datetime.now()`` on a model path makes traces
    machine-dependent.  No module under the lint root is exempt: host-side
    timing lives in ``benchmarks/``, outside it.
    """

    name = "wall-clock"
    description = ("no host clock reads (time.*, datetime.now) inside "
                   "simulated code")

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        time_aliases: set = set()      # names bound to the time module
        datetime_aliases: set = set()  # names bound to the datetime module
        banned_names: Dict[str, str] = {}  # local name -> original function
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
                    elif alias.name == "datetime":
                        datetime_aliases.add(alias.asname or "datetime")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_FUNCTIONS:
                            banned_names[alias.asname or alias.name] = \
                                f"time.{alias.name}"
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_aliases.add(alias.asname or alias.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            origin = None
            if isinstance(func, ast.Name) and func.id in banned_names:
                origin = banned_names[func.id]
            elif isinstance(func, ast.Attribute):
                chain = _attribute_chain(func)
                if chain and chain[0] in time_aliases \
                        and func.attr in _TIME_FUNCTIONS:
                    origin = f"time.{func.attr}"
                elif chain and chain[0] in datetime_aliases \
                        and func.attr in _DATETIME_METHODS:
                    origin = f"{'.'.join(chain)}.{func.attr}"
            if origin is not None:
                yield Finding(
                    path=module.relpath, line=node.lineno,
                    column=node.col_offset + 1, rule=self.name,
                    message=f"host wall-clock read {origin}() in simulated "
                            f"code; use Simulator.now")


def _attribute_chain(node: ast.Attribute) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b"]`` (the chain under the final attr)."""
    parts: List[str] = []
    value = node.value
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if isinstance(value, ast.Name):
        parts.append(value.id)
        parts.reverse()
        return parts
    return None


# -- unseeded-rng -------------------------------------------------------------------------


class UnseededRngRule(Rule):
    """Ban direct use of the ``random`` module outside the interning point.

    All model randomness must flow through :mod:`repro.sim.rng`'s named,
    seed-derived streams; a stray ``random.random()`` (module-global,
    OS-seeded state) silently breaks replayability.
    """

    name = "unseeded-rng"
    description = ("random.* / Random() must be routed through the "
                   "repro.sim.rng interned streams")

    def __init__(self, exempt_modules: Sequence[str] = ("sim/rng.py",)):
        self.exempt_modules = frozenset(exempt_modules)

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        if module.relpath in self.exempt_modules:
            return
        random_aliases: set = set()
        imported_names: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module == "random":
                for alias in node.names:
                    imported_names[alias.asname or alias.name] = alias.name
        if not random_aliases and not imported_names:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            origin = None
            if isinstance(func, ast.Name) and func.id in imported_names:
                origin = f"random.{imported_names[func.id]}"
            elif isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in random_aliases:
                origin = f"random.{func.attr}"
            if origin is not None:
                yield Finding(
                    path=module.relpath, line=node.lineno,
                    column=node.col_offset + 1, rule=self.name,
                    message=f"{origin}() bypasses the interned RNG streams; "
                            f"draw from repro.sim.rng.RandomStreams instead")


# -- ordering-hazard ----------------------------------------------------------------------

#: Builtins that materialize iteration order — feeding them an unordered
#: view is exactly the hazard.
_ORDER_MATERIALIZERS = frozenset({"list", "tuple", "iter"})

#: Builtins whose result does not depend on input order.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "set", "frozenset", "min", "max", "any", "all", "len",
})


class OrderingHazardRule(Rule):
    """Flag iteration over unordered collection views on schedule paths.

    ``dict`` preserves insertion order but ``set`` does not, and iteration
    over ``.keys()`` / ``.values()`` of a mutated mapping encodes mutation
    history into the schedule.  In schedule-affecting packages every such
    iteration must either be wrapped in an order-insensitive consumer
    (``sorted``/``min``/``any``/...), or carry a suppression explaining why
    the underlying order is deterministic.  ``sum`` is deliberately *not*
    exempt: float addition is not associative, so even a commutative-looking
    reduction is order-sensitive.
    """

    name = "ordering-hazard"
    description = ("no iteration over set/.keys()/.values() of non-literal "
                   "collections in schedule-affecting modules")

    def __init__(self, scope_prefixes: Sequence[str] = (
            "sim/", "gcs/", "partition/", "db/")):
        self.scope_prefixes = tuple(scope_prefixes)

    def _in_scope(self, relpath: str) -> bool:
        return any(relpath.startswith(prefix)
                   for prefix in self.scope_prefixes)

    @staticmethod
    def _hazard(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and not node.args \
                    and func.attr in ("keys", "values"):
                return f".{func.attr}() view"
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"{func.id}(...)"
        elif isinstance(node, ast.Set):
            return "set literal"
        elif isinstance(node, ast.SetComp):
            return "set comprehension"
        return None

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        if not self._in_scope(module.relpath):
            return
        parents = module.parents
        for node in ast.walk(module.tree):
            what = self._hazard(node)
            if what is None:
                continue
            parent = parents.get(node)
            flagged = False
            if isinstance(parent, ast.For) and parent.iter is node:
                flagged = True
            elif isinstance(parent, ast.comprehension) \
                    and parent.iter is node:
                comp = parents.get(parent)
                # Building a set from the iteration is order-insensitive.
                if isinstance(comp, ast.SetComp):
                    continue
                consumer = parents.get(comp)
                if isinstance(consumer, ast.Call) \
                        and isinstance(consumer.func, ast.Name) \
                        and consumer.func.id in _ORDER_INSENSITIVE \
                        and consumer.args and consumer.args[0] is comp:
                    continue
                flagged = True
            elif isinstance(parent, ast.Call) and node in parent.args:
                func = parent.func
                if isinstance(func, ast.Name) \
                        and func.id in _ORDER_MATERIALIZERS:
                    flagged = True
            if flagged:
                yield Finding(
                    path=module.relpath, line=node.lineno,
                    column=node.col_offset + 1, rule=self.name,
                    message=f"iteration over {what} in a schedule-affecting "
                            f"module; wrap in sorted(...) or suppress with "
                            f"a determinism justification")


# -- slots-consistency --------------------------------------------------------------------


class SlotsConsistencyRule(Rule):
    """Hot-path classes must declare ``__slots__`` (the PR 5 contract)."""

    name = "slots-consistency"
    description = ("classes in hot-path modules must declare __slots__ or "
                   "@dataclass(slots=True)")

    def __init__(self, hot_modules: Sequence[str] = (
            "sim/events.py", "sim/poll.py", "sim/process.py",
            "sim/resources.py", "network/message.py")):
        self.hot_modules = frozenset(hot_modules)

    @staticmethod
    def _declares_slots(cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                if any(isinstance(target, ast.Name)
                       and target.id == "__slots__"
                       for target in stmt.targets):
                    return True
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) \
                        and stmt.target.id == "__slots__":
                    return True
        for decorator in cls.decorator_list:
            if isinstance(decorator, ast.Call):
                func = decorator.func
                func_name = func.id if isinstance(func, ast.Name) \
                    else func.attr if isinstance(func, ast.Attribute) else ""
                if func_name == "dataclass" and any(
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                        for keyword in decorator.keywords):
                    return True
        return False

    @staticmethod
    def _is_exception(cls: ast.ClassDef) -> bool:
        # Exception classes carry __dict__ regardless; slots buy nothing.
        return any(isinstance(base, ast.Name)
                   and (base.id.endswith("Error")
                        or base.id.endswith("Exception"))
                   for base in cls.bases)

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        if module.relpath not in self.hot_modules:
            return
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if self._is_exception(node):
                continue
            if not self._declares_slots(node):
                yield Finding(
                    path=module.relpath, line=node.lineno,
                    column=node.col_offset + 1, rule=self.name,
                    message=f"hot-path class {node.name} must declare "
                            f"__slots__ (or @dataclass(slots=True))")


# -- float-time-arith ---------------------------------------------------------------------

#: Identifiers that name simulated-time floats.
_TIME_TOKENS = frozenset({
    "now", "_now", "when", "deadline", "deliver_at", "sent_at",
    "granted_at", "delivered_at", "committed_at", "expires_at",
})

_TIME_SUFFIXES = ("_at", "_ms", "_time", "_deadline")


class FloatTimeArithRule(Rule):
    """Flag ``==`` / ``!=`` on simulated-time floats.

    Simulated timestamps are accumulated floats; exact equality silently
    depends on summation order.  Compare with ``<`` / ``>=`` window bounds,
    or quantize first.
    """

    name = "float-time-arith"
    description = "no direct == / != comparisons between simulated-time floats"

    @staticmethod
    def _time_named(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            identifier = node.id
        elif isinstance(node, ast.Attribute):
            identifier = node.attr
        else:
            return None
        if identifier in _TIME_TOKENS \
                or identifier.endswith(_TIME_SUFFIXES):
            return identifier
        return None

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                # `x == None`-style sentinel checks are not float equality.
                if any(isinstance(side, ast.Constant)
                       and side.value is None for side in (left, right)):
                    continue
                named = self._time_named(left) or self._time_named(right)
                if named is not None:
                    yield Finding(
                        path=module.relpath, line=node.lineno,
                        column=node.col_offset + 1, rule=self.name,
                        message=f"exact equality on simulated-time value "
                                f"{named!r}; floats accumulate — compare "
                                f"with window bounds instead")


# -- layer-contract -----------------------------------------------------------------------

#: Canonical order, bottom-up.  Kept in sync with repro.core.layers — the
#: rule must not import the code under analysis.
_LAYER_ORDER: Tuple[str, ...] = (
    "links", "failure_detector", "reliable_broadcast", "total_order",
    "membership", "replication",
)
_LAYER_INDEX = {layer: index for index, layer in enumerate(_LAYER_ORDER)}

#: Oracle layers sit beside the stack, not in its data path: the failure
#: detector only answers "do you suspect p?" and every protocol layer is
#: allowed to consult it directly.  Strict adjacency therefore neither
#: flags a reach down *to* an oracle nor counts an oracle as the
#: intermediate a lower reach must route through.
_ORACLE_LAYERS: FrozenSet[str] = frozenset({"failure_detector"})

#: The top of the stack is the application, not a protocol layer —
#: replication composition roots legitimately wire every layer below them,
#: so the adjacency check does not constrain them.
_TOP_LAYER_INDEX = len(_LAYER_ORDER) - 1


class _AnnotatedClass:
    __slots__ = ("name", "lineno", "implements", "uses")

    def __init__(self, name: str, lineno: int):
        self.name = name
        self.lineno = lineno
        self.implements: List[Tuple[str, int]] = []
        self.uses: List[Tuple[str, int]] = []


class _ModuleInfo:
    __slots__ = ("relpath", "dotted", "is_package", "classes", "imports")

    def __init__(self, relpath: str, dotted: str, is_package: bool):
        self.relpath = relpath
        self.dotted = dotted
        self.is_package = is_package
        self.classes: List[_AnnotatedClass] = []
        self.imports: List[Tuple[str, int]] = []


class LayerContractRule(Rule):
    """Enforce the protocol-stack layering declared via @implements/@uses.

    Builds two graphs from source: the decorator graph (per-class declared
    layers) and the import graph between annotated modules.  A class using a
    layer *above* its own, or an annotated module importing an annotated
    module of a higher layer, is an error; equal-layer dependencies are
    allowed (a total-order endpoint may extend another).  A protocol class
    must also route through the layer directly below it: a skip-layer
    dependency is an error too.  Two structural exemptions keep that check
    honest: oracle layers (the failure detector) carry hints rather than
    data, so any layer may consult them and they are transparent when
    computing adjacency; and the top ``replication`` layer is the
    application, whose composition roots wire the whole stack by design.
    """

    name = "layer-contract"
    description = ("@implements/@uses layer declarations and imports must "
                   "only depend downward in the protocol stack")

    def __init__(self):
        self._modules: List[_ModuleInfo] = []

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        info = _ModuleInfo(
            relpath=module.relpath, dotted=module.dotted,
            is_package=module.relpath.endswith("__init__.py"))
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                annotated = _AnnotatedClass(node.name, node.lineno)
                for decorator in node.decorator_list:
                    parsed = self._parse_decorator(decorator)
                    if parsed is None:
                        continue
                    kind, layer, lineno = parsed
                    if layer not in _LAYER_INDEX:
                        yield Finding(
                            path=module.relpath, line=lineno,
                            column=decorator.col_offset + 1, rule=self.name,
                            message=f"unknown protocol layer {layer!r} on "
                                    f"class {node.name}; expected one of "
                                    f"{', '.join(_LAYER_ORDER)}")
                        continue
                    if kind == "implements":
                        annotated.implements.append((layer, lineno))
                    else:
                        annotated.uses.append((layer, lineno))
                if annotated.implements or annotated.uses:
                    info.classes.append(annotated)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.imports.append((alias.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for target in self._resolve_import_from(info, node):
                    info.imports.append((target, node.lineno))
        self._modules.append(info)

    @staticmethod
    def _parse_decorator(node: ast.expr
                         ) -> Optional[Tuple[str, str, int]]:
        if not isinstance(node, ast.Call) or len(node.args) != 1:
            return None
        func = node.func
        func_name = func.id if isinstance(func, ast.Name) \
            else func.attr if isinstance(func, ast.Attribute) else None
        if func_name not in ("implements", "uses"):
            return None
        argument = node.args[0]
        if not isinstance(argument, ast.Constant) \
                or not isinstance(argument.value, str):
            return None
        return func_name, argument.value, node.lineno

    @staticmethod
    def _resolve_import_from(info: _ModuleInfo,
                             node: ast.ImportFrom) -> List[str]:
        if node.level == 0:
            base = node.module or ""
        else:
            parts = info.dotted.split(".")
            # A package's dotted name already names the package itself;
            # a module must first drop its own component.
            drop = node.level - 1 if info.is_package else node.level
            if drop >= len(parts):
                return []
            parts = parts[:len(parts) - drop] if drop else parts
            base = ".".join(parts)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        if not base:
            return [alias.name for alias in node.names]
        targets = [base]
        # `from pkg import submodule` — the submodule is the real target.
        targets.extend(f"{base}.{alias.name}" for alias in node.names)
        return targets

    @staticmethod
    def _adjacent_below(own: int) -> Optional[int]:
        """The layer the adjacency check expects ``own`` to route through.

        ``None`` means the implementing layer is exempt: the application on
        top of the stack, or the bottom with nothing below it.  Oracle
        layers are skipped — a reliable-broadcast primitive sits directly
        on the links even though the failure detector is between them.
        """
        if own == _TOP_LAYER_INDEX:
            return None
        below = own - 1
        while below >= 0 and _LAYER_ORDER[below] in _ORACLE_LAYERS:
            below -= 1
        return below if below >= 0 else None

    def finish(self) -> Iterator[Finding]:
        module_layer: Dict[str, int] = {}
        for info in self._modules:
            indexes = [_LAYER_INDEX[layer]
                       for annotated in info.classes
                       for layer, _ in annotated.implements
                       if layer in _LAYER_INDEX]
            if indexes:
                module_layer[info.dotted] = min(indexes)
        for info in self._modules:
            for annotated in info.classes:
                own_indexes = [_LAYER_INDEX[layer]
                               for layer, _ in annotated.implements
                               if layer in _LAYER_INDEX]
                if not own_indexes:
                    continue
                own = min(own_indexes)
                for layer, lineno in annotated.uses:
                    if layer not in _LAYER_INDEX:
                        continue
                    used = _LAYER_INDEX[layer]
                    if used > own:
                        yield Finding(
                            path=info.relpath, line=lineno, column=1,
                            rule=self.name,
                            message=f"upward dependency: {annotated.name} "
                                    f"implements {_LAYER_ORDER[own]!r} but "
                                    f"uses higher layer {layer!r}")
                    elif layer not in _ORACLE_LAYERS:
                        adjacent = self._adjacent_below(own)
                        if adjacent is not None and used < adjacent:
                            yield Finding(
                                path=info.relpath, line=lineno, column=1,
                                rule=self.name,
                                message=f"skip-layer dependency: "
                                        f"{annotated.name} implements "
                                        f"{_LAYER_ORDER[own]!r} but reaches "
                                        f"past {_LAYER_ORDER[adjacent]!r} "
                                        f"down to {layer!r}")
            own_layer = module_layer.get(info.dotted)
            if own_layer is None:
                continue
            seen: set = set()
            for target, lineno in info.imports:
                target_layer = module_layer.get(target)
                if target_layer is None or target == info.dotted:
                    continue
                if target_layer > own_layer and (target, lineno) not in seen:
                    seen.add((target, lineno))
                    yield Finding(
                        path=info.relpath, line=lineno, column=1,
                        rule=self.name,
                        message=f"upward import: layer "
                                f"{_LAYER_ORDER[own_layer]!r} module imports "
                                f"{target} (layer "
                                f"{_LAYER_ORDER[target_layer]!r})")


# -- unused-surface -----------------------------------------------------------------------

#: Directories of the checkout, beside the package's ``src/`` parent, whose
#: code counts as a consumer of the package.
_CONSUMER_DIRS = ("benchmarks", "examples")


class _Definition:
    __slots__ = ("relpath", "name", "qualname", "kind", "first", "last")

    def __init__(self, relpath: str, node: ast.stmt, name: str,
                 qualname: str, kind: str):
        self.relpath = relpath
        self.name = name
        self.qualname = qualname
        self.kind = kind
        decorators = getattr(node, "decorator_list", ())
        self.first = min([node.lineno] + [d.lineno for d in decorators])
        self.last = node.end_lineno or node.lineno


def _public_definitions(module: ParsedModule) -> Iterator[_Definition]:
    """Module-level public functions, classes and UPPER_CASE constants, plus
    the public methods and properties of module-level classes."""
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield _Definition(module.relpath, node, node.name, node.name,
                                  "function")
        elif isinstance(node, ast.ClassDef):
            if not node.name.startswith("_"):
                yield _Definition(module.relpath, node, node.name, node.name,
                                  "class")
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not member.name.startswith("_"):
                    yield _Definition(module.relpath, member, member.name,
                                      f"{node.name}.{member.name}", "method")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper() \
                        and not target.id.startswith("_"):
                    yield _Definition(module.relpath, node, target.id,
                                      target.id, "constant")


def _references(tree: ast.Module, *, is_package: bool
                ) -> Iterator[Tuple[str, int]]:
    """Every identifier ``tree`` mentions, with its line.

    A name counts as ``Name``, ``Attribute.attr``, an import alias or a
    string constant spelling it (so ``getattr(obj, "name")`` counts).  An
    ``__all__`` list declares exports and uses nothing, and a package
    ``__init__``'s imports are re-exports, so neither counts.
    """
    skipped: set = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            skipped.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if not is_package:
                for alias in node.names:
                    yield alias.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


class UnusedSurfaceRule(Rule):
    """Flag public names that nothing outside their own definition uses.

    Covered: module-level public functions, classes and UPPER_CASE
    constants, and the public methods and properties of module-level
    classes.  A name is used when it appears as an identifier anywhere in
    the lint root outside its own definition, or in any ``.py`` under the
    checkout's ``benchmarks/`` or ``examples/`` (the lint root's
    grandparent, ``src/repro`` → the checkout).  Tests do not count, and
    neither does a package ``__init__`` re-exporting the name: a public
    name only a test calls is code kept alive for its own test.
    """

    name = "unused-surface"
    description = ("public names must be used outside their own definition "
                   "by the package, benchmarks/ or examples/ (tests and "
                   "__init__ re-exports do not count)")

    def __init__(self):
        self._modules: List[ParsedModule] = []

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        self._modules.append(module)
        return iter(())

    def finish(self) -> Iterator[Finding]:
        if not self._modules:
            return
        sample = self._modules[0]
        root = sample.path.resolve().parents[sample.relpath.count("/")]
        external: set = set()
        for directory in _CONSUMER_DIRS:
            for path in iter_source_files(root.parents[1] / directory):
                tree = ast.parse(path.read_text(encoding="utf-8"),
                                 filename=str(path))
                external.update(name for name, _ in
                                _references(tree, is_package=False))
        # name -> [(relpath, line)] of every in-package mention
        internal: Dict[str, List[Tuple[str, int]]] = {}
        definitions: List[_Definition] = []
        for module in self._modules:
            definitions.extend(_public_definitions(module))
            is_package = module.relpath.endswith("__init__.py")
            for name, line in _references(module.tree,
                                          is_package=is_package):
                internal.setdefault(name, []).append((module.relpath, line))
        for definition in definitions:
            if definition.name in external or any(
                    relpath != definition.relpath
                    or not definition.first <= line <= definition.last
                    for relpath, line in internal.get(definition.name, ())):
                continue
            yield Finding(
                path=definition.relpath, line=definition.first, column=1,
                rule=self.name,
                message=f"public {definition.kind} {definition.qualname} is "
                        f"referenced nowhere outside its definition (tests "
                        f"and __init__ re-exports do not count); delete it, "
                        f"or suppress with why it stays")


# -- registry -----------------------------------------------------------------------------


def default_rules() -> List[Rule]:
    """Fresh instances of every rule (rules hold per-run state)."""
    return [
        WallClockRule(),
        UnseededRngRule(),
        OrderingHazardRule(),
        SlotsConsistencyRule(),
        FloatTimeArithRule(),
        LayerContractRule(),
        UnusedSurfaceRule(),
    ]
