"""The built-in rule set: the repo's invariants as static analysis.

Each rule codifies one prose invariant from ARCHITECTURE.md (see the
"Mechanically-checked invariants" section there for the mapping):

- :class:`AmbientNondeterminismRule` (DET001) — all randomness flows
  through :mod:`repro.rng` streams or explicit ``numpy`` Generators;
- :class:`UnsortedIterationRule` (DET002) — no unordered ``set`` /
  ``dict.keys()`` iteration in modules whose output is hashed or
  serialized;
- :class:`NonCanonicalJsonRule` (DET003) — canonical JSON kwargs
  everywhere outside the one canonical-serialization module;
- :class:`RawWriteRule` (DUR001) — file writes in the store/fabric
  layer go through the durable-write helpers;
- :class:`SpecHashSyncRule` (HASH001) — the spec dataclass and the
  canonical serialization feeding ``spec_hash`` never drift apart;
- :class:`CrossReferenceRule` (DOC001) — docstring cross-references
  resolve to live objects.

:data:`RULES` is the fixed table of these rules by id; :func:`rule_ids`,
:func:`get_rule` and :func:`make_rules` read it.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from ..errors import ConfigurationError
from .base import Finding, Rule
from .engine import ModuleContext

# ---------------------------------------------------------------------------
# DET001 — ambient nondeterminism
# ---------------------------------------------------------------------------

#: Modules whose every function call is ambient nondeterminism: the
#: stdlib global-state RNG and the OS entropy pool.
_BANNED_MODULES: Tuple[str, ...] = ("random", "secrets")

#: ``numpy.random`` attributes that are *not* the legacy global-state
#: API: explicit generator construction is exactly what the invariant
#: demands, so these stay allowed.
_NUMPY_RANDOM_ALLOWED: Set[str] = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}

#: Wall-clock and entropy calls whose results vary run to run.  The
#: monotonic timers (``time.perf_counter`` and friends) stay allowed:
#: they feed the opt-in ``timing`` block, which is excluded from every
#: canonical document.
_BANNED_CALLS: Set[str] = {
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
    "os.urandom",
    "uuid.uuid1", "uuid.uuid4",
}


class AmbientNondeterminismRule(Rule):
    """DET001: no ambient nondeterminism inside the library.

    Bit-identical engine equivalence, byte-identical store merges, and
    position-pure sweep seeds all assume that *every* random draw and
    every run-varying value flows from an
    :class:`~repro.experiments.spec.ExperimentSpec` seed through
    :func:`repro.rng.spawn_streams` (or an explicit
    ``numpy.random.Generator`` parameter).  A single ``random.random()``
    or ``time.time()`` on a result path silently breaks all three, so
    the calls are banned at analysis time rather than debugged after a
    merge conflict.
    """

    rule_id = "DET001"
    summary = ("ambient nondeterminism (random.*, numpy legacy global RNG, "
               "wall clock, os.urandom, uuid4) is banned; use repro.rng")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.call_target(node)
            if target is None:
                continue
            root = target.split(".")[0]
            message: Optional[str] = None
            if root in _BANNED_MODULES:
                message = (
                    f"call to {target} draws ambient randomness; derive it "
                    f"from repro.rng streams or an explicit Generator"
                )
            elif target.startswith("numpy.random."):
                attr = target[len("numpy.random."):]
                if "." not in attr and attr not in _NUMPY_RANDOM_ALLOWED:
                    message = (
                        f"call to {target} uses numpy's legacy global RNG "
                        f"state; use numpy.random.default_rng / an explicit "
                        f"Generator parameter"
                    )
            elif target in _BANNED_CALLS:
                message = (
                    f"call to {target} is run-varying ambient state; results "
                    f"must be pure functions of the spec seed"
                )
            if message is not None:
                yield self.finding(ctx, node.lineno, node.col_offset + 1,
                                   message)


# ---------------------------------------------------------------------------
# DET002 — unordered iteration feeding serialized output
# ---------------------------------------------------------------------------

#: Builtins whose result is independent of iteration order — a
#: generator expression consumed by one of these may iterate a set.
_ORDER_FREE_CONSUMERS: Set[str] = {
    "any", "all", "sum", "min", "max", "len", "sorted", "set", "frozenset",
}

#: Set-algebra operators: a binop over a set-typed operand is set-typed.
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _assignments_in_scope(scope: ast.AST) -> Dict[str, List[ast.expr]]:
    """Name -> assigned value expressions, within one function/module.

    Nested function bodies are excluded — their assignments live in a
    different scope and tracking them would mis-attribute bindings.
    """
    out: Dict[str, List[ast.expr]] = {}
    todo: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    out.setdefault(tgt.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                out.setdefault(node.target.id, []).append(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return out


def _is_set_like(expr: ast.expr, env: Dict[str, List[ast.expr]],
                 seen: Optional[Set[str]] = None) -> bool:
    """Whether an expression is syntactically a set / dict-keys view."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Name) and expr.func.id in (
            "set", "frozenset"
        ):
            return True
        if isinstance(expr.func, ast.Attribute) and expr.func.attr == "keys":
            return True
        return False
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_OPS):
        return (_is_set_like(expr.left, env, seen)
                or _is_set_like(expr.right, env, seen))
    if isinstance(expr, ast.Name):
        seen = seen or set()
        if expr.id in seen:
            return False
        values = env.get(expr.id)
        if not values:
            return False
        seen = seen | {expr.id}
        return all(_is_set_like(v, env, seen) for v in values)
    return False


class UnsortedIterationRule(Rule):
    """DET002: serialization-critical modules never iterate raw sets.

    Python sets (and ``dict.keys()`` views of non-dict mappings)
    iterate in hash order, which varies with insertion history and —
    for strings — with ``PYTHONHASHSEED``.  In modules whose output is
    hashed or serialized (results, store, fabric, analysis), any such
    iteration must go through ``sorted(...)``; everywhere else the
    repo's canonical-bytes guarantees would hold only by accident.
    """

    rule_id = "DET002"
    summary = ("iteration over a set / .keys() view in a "
               "serialization-critical module must be wrapped in sorted()")

    _MESSAGE = ("iterates an unordered set/keys view in a module whose "
                "output is hashed or serialized; wrap it in sorted(...)")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        scopes: List[ast.AST] = [ctx.tree]
        scopes.extend(
            node for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        envs = {id(scope): _assignments_in_scope(scope) for scope in scopes}
        for scope in scopes:
            env = envs[id(scope)]
            for node in self._scope_nodes(scope):
                yield from self._check_node(ctx, node, env)

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """Nodes belonging to one scope (nested defs excluded)."""
        todo: List[ast.AST] = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            yield node
            todo.extend(ast.iter_child_nodes(node))

    def _check_node(self, ctx: ModuleContext, node: ast.AST,
                    env: Dict[str, List[ast.expr]]) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_like(node.iter, env):
                yield self.finding(
                    ctx, node.iter.lineno, node.iter.col_offset + 1,
                    f"for-loop {self._MESSAGE}",
                )
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            # SetComp over a set stays unordered-to-unordered; the sink
            # that finally *orders* it is where the finding belongs.
            for gen in node.generators:
                if not _is_set_like(gen.iter, env):
                    continue
                if isinstance(node, ast.GeneratorExp) and \
                        self._feeds_order_free_consumer(ctx, node):
                    continue
                yield self.finding(
                    ctx, gen.iter.lineno, gen.iter.col_offset + 1,
                    f"comprehension {self._MESSAGE}",
                )
        elif isinstance(node, ast.Call):
            yield from self._check_conversion(ctx, node, env)

    @staticmethod
    def _feeds_order_free_consumer(ctx: ModuleContext,
                                   node: ast.GeneratorExp) -> bool:
        parent = ctx.parent_of(node)
        return (
            isinstance(parent, ast.Call)
            and node in parent.args
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_FREE_CONSUMERS
        )

    def _check_conversion(self, ctx: ModuleContext, node: ast.Call,
                          env: Dict[str, List[ast.expr]]) -> Iterator[Finding]:
        """``list(s)`` / ``tuple(s)`` / ``sep.join(s)`` over a set."""
        ordering_sink = (
            isinstance(node.func, ast.Name) and node.func.id in ("list", "tuple")
        ) or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        )
        if not ordering_sink or len(node.args) != 1:
            return
        if not _is_set_like(node.args[0], env):
            return
        parent = ctx.parent_of(node)
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name) \
                and parent.func.id in _ORDER_FREE_CONSUMERS:
            return
        yield self.finding(
            ctx, node.lineno, node.col_offset + 1,
            f"conversion {self._MESSAGE}",
        )


# ---------------------------------------------------------------------------
# DET003 — canonical JSON kwargs
# ---------------------------------------------------------------------------

class NonCanonicalJsonRule(Rule):
    """DET003: every ``json.dumps``/``json.dump`` call is canonical.

    Canonical documents are the load-bearing guarantee behind
    ``spec_hash``, store merges, and the BENCH byte-identity checks, so
    serialization calls outside the canonical module
    (``experiments/results.py``, configurable via the
    ``canonical-modules`` option) must pass ``sort_keys=True`` and pin
    the byte shape with an explicit ``separators=`` or ``indent=``.
    """

    rule_id = "DET003"
    summary = ("json.dumps/json.dump outside the canonical-serialization "
               "module must pass sort_keys=True and separators=/indent=")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        exempt = self.rule_option_paths(ctx)
        if ctx.relpath in exempt:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.call_target(node)
            if target not in ("json.dump", "json.dumps"):
                continue
            if any(kw.arg is None for kw in node.keywords):
                continue  # **kwargs expansion: not statically checkable
            missing = []
            sort_keys = self._keyword(node, "sort_keys")
            if sort_keys is None or not (
                isinstance(sort_keys, ast.Constant) and sort_keys.value is True
            ):
                missing.append("sort_keys=True")
            if self._keyword(node, "separators") is None and \
                    self._keyword(node, "indent") is None:
                missing.append("an explicit separators= or indent=")
            if missing:
                yield self.finding(
                    ctx, node.lineno, node.col_offset + 1,
                    f"non-canonical {target} call: missing "
                    f"{' and '.join(missing)} (canonical serialization "
                    f"lives in {', '.join(sorted(exempt)) or 'results.py'})",
                )

    def rule_option_paths(self, ctx: ModuleContext) -> Set[str]:
        raw = ctx.config.rule_option(self.rule_id, "canonical-modules", ())
        return set(raw)

    @staticmethod
    def _keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
        for kw in node.keywords:
            if kw.arg == name:
                return kw.value
        return None


# ---------------------------------------------------------------------------
# DUR001 — durable writes only through the fsync helpers
# ---------------------------------------------------------------------------

_WRITE_MODE_CHARS = set("wax+")


class RawWriteRule(Rule):
    """DUR001: store/fabric file writes use the durable-write helpers.

    The ``kill -9`` guarantee of
    :class:`~repro.experiments.store.SweepStore` holds because every
    mutation goes through helpers that fsync file *and* directory and
    rename atomically.  A raw ``open(..., "w")`` (or ``Path.write_text``
    or bare ``os.replace``) anywhere else in the layer is a durability
    hole: acknowledged data that can vanish on power loss.  The
    ``allowed-writers`` option names the helper qualnames.
    """

    rule_id = "DUR001"
    summary = ("raw file writes in the store/fabric layer must go through "
               "the fsync/atomic-rename helpers")

    _BARE_TARGETS = {"os.replace", "os.rename", "os.truncate"}
    _WRITE_ATTRS = {"write_text", "write_bytes"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        allowed = set(
            ctx.config.rule_option(self.rule_id, "allowed-writers", ())
        )
        yield from self._walk(ctx, ctx.tree, (), allowed)

    def _walk(self, ctx: ModuleContext, node: ast.AST,
              stack: Tuple[str, ...],
              allowed: Set[str]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from self._walk(ctx, child, stack + (child.name,),
                                      allowed)
                continue
            qualname = ".".join(stack)
            if isinstance(child, ast.Call) and qualname not in allowed:
                yield from self._check_call(ctx, child, qualname)
            yield from self._walk(ctx, child, stack, allowed)

    def _check_call(self, ctx: ModuleContext, node: ast.Call,
                    qualname: str) -> Iterator[Finding]:
        where = f"in {qualname or 'module scope'}"
        reason: Optional[str] = None
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = self._open_mode(node)
            if mode is None:
                pass  # no mode argument: read-only open
            elif not isinstance(mode, ast.Constant) or \
                    not isinstance(mode.value, str):
                reason = f"open() with a non-literal mode {where}"
            elif _WRITE_MODE_CHARS & set(mode.value):
                reason = f"raw open(..., {mode.value!r}) {where}"
        elif isinstance(node.func, ast.Attribute) and \
                node.func.attr in self._WRITE_ATTRS:
            reason = f"raw .{node.func.attr}() {where}"
        else:
            target = ctx.call_target(node)
            if target in self._BARE_TARGETS:
                reason = f"bare {target} {where}"
        if reason is not None:
            yield self.finding(
                ctx, node.lineno, node.col_offset + 1,
                f"{reason}: route writes through the durable-write "
                f"helpers so fsync/atomic-rename discipline holds",
            )

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[ast.expr]:
        if len(node.args) >= 2:
            return node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                return kw.value
        return None


# ---------------------------------------------------------------------------
# HASH001 — spec fields vs canonical serialization
# ---------------------------------------------------------------------------

class SpecHashSyncRule(Rule):
    """HASH001: spec fields and the ``spec_hash`` preimage stay in sync.

    ``spec_hash`` covers exactly the keys the spec's canonical
    serializer emits.  A field added to the dataclass but not to the
    serializer would let two *different* cells share one store slot (a
    silent collision — the worst possible store bug); a serialized key
    with no backing field would make hashes cover phantom state.  The
    rule cross-checks the dataclass field list against the serializer's
    literal keys; fields declared with ``field(compare=False)`` are
    execution hints excluded from identity, and must *not* be
    serialized.
    """

    rule_id = "HASH001"
    summary = ("ExperimentSpec fields must match the canonical "
               "serialization keys feeding spec_hash")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        spec_class = str(ctx.config.rule_option(
            self.rule_id, "spec-class", "ExperimentSpec"))
        serializer = str(ctx.config.rule_option(
            self.rule_id, "serializer", "to_dict"))
        cls = next(
            (node for node in ast.walk(ctx.tree)
             if isinstance(node, ast.ClassDef) and node.name == spec_class),
            None,
        )
        if cls is None:
            return
        included, excluded = self._fields(cls)
        method = next(
            (node for node in cls.body
             if isinstance(node, ast.FunctionDef) and node.name == serializer),
            None,
        )
        if method is None:
            yield self.finding(
                ctx, cls.lineno, cls.col_offset + 1,
                f"{spec_class} has no {serializer}() method to cross-check "
                f"its field list against",
            )
            return
        keys = self._serialized_keys(method)
        if keys is None:
            yield self.finding(
                ctx, method.lineno, method.col_offset + 1,
                f"{spec_class}.{serializer} does not build a dict literal "
                f"this rule can cross-check; keep the canonical document a "
                f"literal so the field sync stays verifiable",
            )
            return
        for name in sorted(set(included) - keys):
            yield self.finding(
                ctx, method.lineno, method.col_offset + 1,
                f"spec field {name!r} is missing from the canonical "
                f"{serializer} document: two specs differing only in "
                f"{name!r} would collide on one spec_hash",
            )
        for name in sorted(keys - set(included)):
            hint = (
                f" ({name!r} is declared compare=False — an execution hint "
                f"outside the cell's identity — and must stay out of the "
                f"hash preimage)" if name in excluded else ""
            )
            yield self.finding(
                ctx, method.lineno, method.col_offset + 1,
                f"canonical {serializer} document emits {name!r}, which is "
                f"not an identity field of {spec_class}{hint}",
            )

    @staticmethod
    def _fields(cls: ast.ClassDef) -> Tuple[List[str], Set[str]]:
        """(identity field names, compare=False field names)."""
        included: List[str] = []
        excluded: Set[str] = set()
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign) or \
                    not isinstance(stmt.target, ast.Name):
                continue
            name = stmt.target.id
            value = stmt.value
            hint = (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "field"
                and any(
                    kw.arg == "compare"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in value.keywords
                )
            )
            if hint:
                excluded.add(name)
            else:
                included.append(name)
        return included, excluded

    @staticmethod
    def _serialized_keys(method: ast.FunctionDef) -> Optional[Set[str]]:
        """String keys the serializer emits, or ``None`` if opaque.

        Collects the dict literals assigned to the variable the method
        returns, plus ``doc["key"] = ...`` constant-subscript writes on
        it.
        """
        returned: Set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
                returned.add(node.value.id)
        if not returned:
            return None
        keys: Set[str] = set()
        found_dict = False
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                for tgt in targets:
                    if isinstance(tgt, ast.Name) and tgt.id in returned and \
                            isinstance(value, ast.Dict):
                        found_dict = True
                        for key in value.keys:
                            if isinstance(key, ast.Constant) and \
                                    isinstance(key.value, str):
                                keys.add(key.value)
                    elif (
                        isinstance(tgt, ast.Subscript)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id in returned
                        and isinstance(tgt.slice, ast.Constant)
                        and isinstance(tgt.slice.value, str)
                    ):
                        keys.add(tgt.slice.value)
        return keys if found_dict else None


# ---------------------------------------------------------------------------
# DOC001 — docstring cross-references resolve
# ---------------------------------------------------------------------------

#: ``:role:`~target``` references in Sphinx docstrings (the pdoc layer
#: renders them as text, but a dangling target is still a doc bug).
ROLE_RE = re.compile(
    r":(?:py:)?(?:class|func|meth|mod|data|attr|exc|obj):`~?([^`<>]+)`"
)

_DOC_BUILTINS = {"None", "True", "False"}


class CrossReferenceRule(Rule):
    """DOC001: every docstring cross-reference resolves to a live object.

    The AST supplies the docstrings and their owners; resolution is
    dynamic, mirroring Sphinx — the owning class namespace first (so a
    bare method name resolves against its class), then the defining
    module, then the longest importable absolute prefix.  CI runs it
    as ``python -m repro.lintkit --select DOC001 src/repro``.
    """

    rule_id = "DOC001"
    summary = "docstring cross-references must resolve to live objects"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        entries = list(self._docstrings(ctx.tree))
        if not any(ROLE_RE.search(doc) for _, doc, _, _ in entries):
            return
        module, error = self._load_module(ctx)
        if module is None:
            yield self.finding(
                ctx, 1, 1,
                f"module failed to import while resolving docstring "
                f"cross-references: {error}",
            )
            return
        for qualname, doc, class_chain, line in entries:
            owner = self._resolve_chain(module, class_chain)
            for match in ROLE_RE.finditer(doc):
                target = match.group(1).strip()
                if not self._resolves(target, module, owner):
                    yield self.finding(
                        ctx, line, 1,
                        f"unresolved cross-reference {target!r} in the "
                        f"docstring of {qualname}",
                    )

    # -- docstring discovery (static) ----------------------------------
    def _docstrings(
        self, tree: ast.Module
    ) -> Iterator[Tuple[str, str, Tuple[str, ...], int]]:
        """(qualname, docstring, enclosing classes, line) per docstring."""
        module_doc = ast.get_docstring(tree, clean=False)
        if module_doc:
            yield "the module", module_doc, (), self._doc_line(tree)
        todo: List[Tuple[ast.AST, Tuple[str, ...]]] = [(tree, ())]
        while todo:
            node, chain = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    doc = ast.get_docstring(child, clean=False)
                    if doc:
                        # A class docstring resolves against the class
                        # itself, so it can name its own methods.
                        yield (".".join(chain + (child.name,)), doc,
                               chain + (child.name,), self._doc_line(child))
                    todo.append((child, chain + (child.name,)))
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    doc = ast.get_docstring(child, clean=False)
                    if doc:
                        yield (".".join(chain + (child.name,)), doc,
                               chain, self._doc_line(child))
                    # Nested defs keep the *class* chain of their owner.
                    todo.append((child, chain))

    @staticmethod
    def _doc_line(node: ast.AST) -> int:
        body = getattr(node, "body", None)
        if body and isinstance(body[0], ast.Expr) and \
                isinstance(body[0].value, ast.Constant):
            return body[0].lineno
        return getattr(node, "lineno", 1)

    # -- resolution (dynamic) ------------------------------------------
    @staticmethod
    def _load_module(ctx: ModuleContext) -> Tuple[Optional[Any], str]:
        name = ctx.module_name
        if name is not None:
            try:
                return importlib.import_module(name), ""
            except Exception as exc:  # import failure is the finding
                return None, str(exc)
        # Not under a package root (a script, a fixture): load by path.
        synthetic = "lintkit_doc_target"
        try:
            spec = importlib.util.spec_from_file_location(synthetic, ctx.path)
            if spec is None or spec.loader is None:
                return None, "no import machinery for this path"
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module, ""
        except Exception as exc:
            return None, str(exc)

    @staticmethod
    def _resolve_chain(module: Any,
                       class_chain: Sequence[str]) -> Optional[Any]:
        owner: Any = module
        for name in class_chain:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return None if owner is module else owner

    @staticmethod
    def _resolves(target: str, module: Any, owner: Optional[Any]) -> bool:
        if not target or target in _DOC_BUILTINS:
            return True
        parts = target.split(".")
        for namespace in (owner, module):
            if namespace is None:
                continue
            obj = namespace
            try:
                for attr in parts:
                    obj = getattr(obj, attr)
                return True
            except AttributeError:
                pass
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            try:
                obj = importlib.import_module(prefix)
            except ImportError:
                continue
            try:
                for attr in parts[cut:]:
                    obj = getattr(obj, attr)
                return True
            except AttributeError:
                break
        return False


# ---------------------------------------------------------------------------
# The rule table
# ---------------------------------------------------------------------------

#: Every rule, by id.
RULES: Dict[str, Type[Rule]] = {
    rule.rule_id: rule
    for rule in (
        AmbientNondeterminismRule,
        UnsortedIterationRule,
        NonCanonicalJsonRule,
        RawWriteRule,
        SpecHashSyncRule,
        CrossReferenceRule,
    )
}


def rule_ids() -> Tuple[str, ...]:
    """All rule ids, sorted."""
    return tuple(sorted(RULES))


def get_rule(rule_id: str) -> Type[Rule]:
    """Look up a rule class, failing loudly for unknown ids."""
    try:
        return RULES[rule_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown rule {rule_id!r}; registered: {', '.join(rule_ids())}"
        ) from None


def make_rules(select: Tuple[str, ...] = ()) -> List[Rule]:
    """Instantiate the selected rules (all of them by default)."""
    ids = select or rule_ids()
    return [get_rule(rule_id)() for rule_id in ids]
