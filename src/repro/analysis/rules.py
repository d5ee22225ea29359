"""The shipped contract rules.

Each rule encodes one invariant from ``docs/CONTRACTS.md``:

* :class:`DeterminismRule` — no ambient randomness or wall-clock identity
  sources inside the deterministic packages; RNGs arrive as parameters or
  via :func:`repro.core.random_utils.spawn_rngs`.
* :class:`PickleBanRule` — no ``pickle``/``marshal``/``shelve`` imports in
  checkpoint/WAL/transport modules; no ``allow_pickle=True`` anywhere.
* :class:`ErrorSwallowingRule` — no bare/broad ``except`` in engine,
  service or distributed code unless the handler re-raises.
* :class:`IterOrderRule` — no direct iteration over ``set`` expressions
  (iteration order feeds shard dispatch and state serialization).
* :class:`StateDictRule` — every attribute a sampler assigns must be
  captured by ``state_dict()`` or explicitly declared derived/exempt.
* :class:`PureReadRule` — methods documented as pure reads (``stats``,
  ``sample_items``, ``shard``, ``shard_samples``, ``snapshot``,
  ``snapshot_view``) must not drain the ingest pipeline, create shards, or
  draw randomness.
* :class:`EnvConfigRule` — no ``os.environ``/``os.getenv`` reads inside
  the deterministic packages: configuration arrives as arguments.

The routing-fingerprint rule lives in :mod:`repro.analysis.fingerprint`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.fingerprint import RoutingFingerprintRule
from repro.analysis.framework import Finding, Rule, SourceModule

__all__ = [
    "DeterminismRule",
    "PickleBanRule",
    "ErrorSwallowingRule",
    "IterOrderRule",
    "StateDictRule",
    "PureReadRule",
    "EnvConfigRule",
    "ALL_RULES",
    "default_rules",
]

#: Packages covered by the bit-identical determinism contract.
DETERMINISTIC_PACKAGES = (
    "repro.core",
    "repro.distributed",
    "repro.service",
    "repro.engine",
)

#: numpy.random attributes that construct seeded/explicit generators rather
#: than touching the legacy global state.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: Attributes managed (and serialized) by the ``Sampler`` base class.
_BASE_SAMPLER_ATTRS = frozenset(
    {"_rng", "_time", "_batches_seen", "_record_history", "history"}
)


def _dotted_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` → ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _is_none(node: ast.expr | None) -> bool:
    return node is None or (isinstance(node, ast.Constant) and node.value is None)


class DeterminismRule(Rule):
    id = "determinism"
    description = (
        "no ambient randomness (np.random.*, random.*), wall-clock or "
        "ambient-clock identity (time.time/time_ns/monotonic/monotonic_ns, "
        "datetime.now, uuid4) or unseeded default_rng() in the "
        "deterministic packages"
    )
    _HINT = (
        "randomness must arrive as an np.random.Generator parameter or via "
        "spawn_rngs(); derive times from batch timestamps, not the wall "
        "clock, and take liveness/timeout clocks as an injectable callable "
        "(e.g. ReplicationConfig.clock), never ambient time"
    )

    #: Ambient-clock readers banned outright. ``perf_counter`` stays
    #: allowed: it only ever feeds profiling deltas, never identity or
    #: control flow, and the failover path's timeout decisions must go
    #: through an injected clock instead.
    _BANNED_CLOCKS = ("time", "time_ns", "monotonic", "monotonic_ns")

    def applies_to(self, module: SourceModule) -> bool:
        return module.in_package(*DETERMINISTIC_PACKAGES)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        numpy_names: set[str] = set()
        nprandom_names: set[str] = set()
        random_names: set[str] = set()
        time_names: set[str] = set()
        datetime_mod_names: set[str] = set()
        datetime_classes: set[str] = set()
        uuid_names: set[str] = set()
        default_rng_names: set[str] = set()

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if alias.name in ("numpy", "numpy.random") and alias.asname is None:
                        numpy_names.add(bound)
                    elif alias.name == "numpy":
                        numpy_names.add(bound)
                    elif alias.name == "numpy.random":
                        nprandom_names.add(bound)
                    elif alias.name == "random":
                        random_names.add(bound)
                        yield self.finding(
                            module, node, "import of the stdlib 'random' module", self._HINT
                        )
                    elif alias.name == "time":
                        time_names.add(bound)
                    elif alias.name == "datetime":
                        datetime_mod_names.add(bound)
                    elif alias.name == "uuid":
                        uuid_names.add(bound)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        module, node, "import from the stdlib 'random' module", self._HINT
                    )
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            nprandom_names.add(alias.asname or alias.name)
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name == "default_rng":
                            default_rng_names.add(alias.asname or alias.name)
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in self._BANNED_CLOCKS:
                            yield self.finding(
                                module,
                                node,
                                f"import of time.{alias.name} (ambient clock)",
                                self._HINT,
                            )
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_classes.add(alias.asname or alias.name)
                elif node.module == "uuid":
                    for alias in node.names:
                        if alias.name in ("uuid1", "uuid4"):
                            yield self.finding(
                                module,
                                node,
                                f"import of uuid.{alias.name} (nondeterministic id)",
                                self._HINT,
                            )

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted_chain(node.func)
            if chain is None:
                continue
            head, tail = chain[0], chain[-1]
            is_np_random = (len(chain) == 3 and head in numpy_names and chain[1] == "random") or (
                len(chain) == 2 and head in nprandom_names
            )
            if is_np_random:
                if tail == "default_rng":
                    yield from self._check_default_rng(module, node)
                elif tail not in _NP_RANDOM_ALLOWED:
                    yield self.finding(
                        module,
                        node,
                        f"call to legacy global-state API np.random.{tail}()",
                        self._HINT,
                    )
            elif len(chain) == 1 and head in default_rng_names:
                yield from self._check_default_rng(module, node)
            elif len(chain) == 2 and head in random_names:
                yield self.finding(
                    module, node, f"call to stdlib random.{tail}()", self._HINT
                )
            elif len(chain) == 2 and head in time_names and tail in self._BANNED_CLOCKS:
                yield self.finding(
                    module, node, f"call to time.{tail}() (ambient clock)", self._HINT
                )
            elif tail in ("now", "utcnow", "today") and len(chain) >= 2:
                base = chain[-2]
                if (len(chain) >= 3 and chain[0] in datetime_mod_names) or (
                    base in datetime_classes
                ):
                    yield self.finding(
                        module,
                        node,
                        f"call to {'.'.join(chain)}() (wall clock)",
                        self._HINT,
                    )
            elif tail in ("uuid1", "uuid4") and len(chain) == 2 and head in uuid_names:
                yield self.finding(
                    module, node, f"call to uuid.{tail}() (nondeterministic id)", self._HINT
                )

    def _check_default_rng(
        self, module: SourceModule, node: ast.Call
    ) -> Iterator[Finding]:
        seed: ast.expr | None = None
        if node.args:
            seed = node.args[0]
        else:
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed = keyword.value
        if _is_none(seed):
            yield self.finding(
                module,
                node,
                "unseeded default_rng() draws entropy from the OS",
                "pass an explicit seed/SeedSequence, or take the Generator as "
                "a parameter (see ensure_rng/spawn_rngs)",
            )

class PickleBanRule(Rule):
    id = "pickle-ban"
    description = (
        "no pickle/marshal/shelve imports in checkpoint/WAL/transport "
        "modules; no allow_pickle=True anywhere"
    )
    _TRUST_BASENAMES = ("checkpoint", "wal", "transport")
    _BANNED_MODULES = frozenset({"pickle", "marshal", "shelve", "dill", "cloudpickle"})
    _HINT = (
        "checkpoint/WAL/transport bytes must stay loadable without executing "
        "arbitrary code: serialize arrays with np.save(allow_pickle=False) "
        "and metadata as JSON"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return module.in_package("repro")

    def _in_trust_scope(self, module: SourceModule) -> bool:
        return any(name in module.basename for name in self._TRUST_BASENAMES)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if self._in_trust_scope(module):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        root = alias.name.partition(".")[0]
                        if root in self._BANNED_MODULES:
                            yield self.finding(
                                module,
                                node,
                                f"import of {root!r} in a trust-scoped module",
                                self._HINT,
                            )
                elif isinstance(node, ast.ImportFrom):
                    root = (node.module or "").partition(".")[0]
                    if root in self._BANNED_MODULES:
                        yield self.finding(
                            module,
                            node,
                            f"import from {root!r} in a trust-scoped module",
                            self._HINT,
                        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if (
                        keyword.arg == "allow_pickle"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        yield self.finding(
                            module,
                            node,
                            "allow_pickle=True enables arbitrary code execution "
                            "on load",
                            self._HINT,
                        )


class ErrorSwallowingRule(Rule):
    id = "error-swallowing"
    description = (
        "bare/broad except handlers in engine/service/distributed code can "
        "mask WorkerCrashError; catch the expected exceptions"
    )
    _BROAD = frozenset({"Exception", "BaseException"})
    _HINT = (
        "catch the specific exceptions the block is expected to raise; a "
        "broad handler here can swallow WorkerCrashError and hide lost "
        "shard state (handlers ending in a bare 'raise' are exempt)"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return module.in_package("repro.engine", "repro.service", "repro.distributed")

    def _is_broad(self, node: ast.expr | None) -> str | None:
        if node is None:
            return "bare except:"
        if isinstance(node, ast.Tuple):
            for element in node.elts:
                name = self._is_broad(element)
                if name and name != "bare except:":
                    return name
            return None
        chain = _dotted_chain(node)
        if chain and chain[-1] in self._BROAD:
            return f"except {chain[-1]}"
        return None

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = self._is_broad(node.type)
            if label is None:
                continue
            last = node.body[-1] if node.body else None
            if isinstance(last, ast.Raise) and last.exc is None:
                continue  # cleanup-and-reraise: the error still propagates
            yield self.finding(module, node, f"broad handler ({label})", self._HINT)


class IterOrderRule(Rule):
    id = "iter-order"
    description = (
        "iterating a set feeds nondeterministic order into dispatch or "
        "serialization; sort first"
    )
    _HINT = "wrap the set in sorted(...) to fix the iteration order"
    _MATERIALIZERS = frozenset({"list", "tuple", "enumerate", "iter"})

    def applies_to(self, module: SourceModule) -> bool:
        return module.in_package(*DETERMINISTIC_PACKAGES)

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
            ):
                return True
        return False

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._MATERIALIZERS
                and node.args
            ):
                iters.append(node.args[0])
            for candidate in iters:
                if self._is_set_expr(candidate):
                    yield self.finding(
                        module,
                        candidate,
                        "direct iteration over a set expression has "
                        "nondeterministic order",
                        self._HINT,
                    )


class StateDictRule(Rule):
    id = "state-dict"
    description = (
        "every attribute a sampler assigns must be captured by state_dict() "
        "or declared in _STATE_DICT_EXEMPT/_STATE_DICT_KEYS"
    )
    _HINT = (
        "write the attribute in _payload_state()/_config_state(), map it via "
        "_STATE_DICT_KEYS, or declare it a derived cache in _STATE_DICT_EXEMPT"
    )

    def applies_to(self, module: SourceModule) -> bool:
        return module.in_package("repro.core")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "_payload_state" not in methods:
            return

        exempt, keymap = self._declarations(cls)
        keys = self._literal_keys(methods.get("_config_state")) | self._literal_keys(
            methods.get("_payload_state")
        )
        if not keys:
            return  # state composed dynamically; the importing checker covers it

        for attr, line in sorted(self._assigned_attrs(methods).items()):
            if attr in _BASE_SAMPLER_ATTRS or attr.startswith("__"):
                continue
            stripped = attr.lstrip("_")
            if attr in keys or stripped in keys or attr in exempt or stripped in exempt:
                continue
            if attr in keymap:
                missing = [key for key in keymap[attr] if key not in keys]
                if missing:
                    yield self.finding(
                        module,
                        line,
                        f"{cls.name}._STATE_DICT_KEYS maps {attr!r} to "
                        f"{missing} but state_dict() never writes them",
                        self._HINT,
                    )
                continue
            yield self.finding(
                module,
                line,
                f"attribute 'self.{attr}' assigned in {cls.name} is not "
                "captured by state_dict()",
                self._HINT,
            )

    def _assigned_attrs(
        self, methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]
    ) -> dict[str, int]:
        attrs: dict[str, int] = {}
        for method in methods.values():
            for node in ast.walk(method):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for target in targets:
                    if isinstance(target, ast.Tuple):
                        elements = list(target.elts)
                    else:
                        elements = [target]
                    for element in elements:
                        if (
                            isinstance(element, ast.Attribute)
                            and isinstance(element.value, ast.Name)
                            and element.value.id == "self"
                        ):
                            attrs.setdefault(element.attr, element.lineno)
        return attrs

    def _literal_keys(
        self, method: ast.FunctionDef | ast.AsyncFunctionDef | None
    ) -> set[str]:
        keys: set[str] = set()
        if method is None:
            return keys
        for node in ast.walk(method):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
        return keys

    def _declarations(
        self, cls: ast.ClassDef
    ) -> tuple[set[str], dict[str, list[str]]]:
        exempt: set[str] = set()
        keymap: dict[str, list[str]] = {}
        for stmt in cls.body:
            value: ast.expr | None = None
            name = ""
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    name, value = target.id, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name, value = stmt.target.id, stmt.value
            if value is None:
                continue
            if name == "_STATE_DICT_EXEMPT":
                exempt |= set(self._string_elements(value))
            elif name == "_STATE_DICT_KEYS" and isinstance(value, ast.Dict):
                for key, mapped in zip(value.keys, value.values):
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keymap[key.value] = list(self._string_elements(mapped))
        return exempt, keymap

    def _string_elements(self, node: ast.expr) -> Iterator[str]:
        if isinstance(node, ast.Call) and node.args:  # frozenset({...}) / tuple([...])
            node = node.args[0]
        if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
            for element in node.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    yield element.value


class PureReadRule(Rule):
    id = "pure-read"
    description = (
        "methods documented as pure reads (stats, sample_items, shard, "
        "shard_samples, snapshot, snapshot_view) must not drain the "
        "pipeline, create shards, or draw randomness"
    )
    _HINT = (
        "pure reads serve monitoring and snapshot capture: read from a "
        "consistent cut (snapshot_view()/ServiceSnapshot) instead of "
        "draining, raise KeyError for idle shards instead of creating "
        "them, and pre-draw any randomness on the write path"
    )

    #: Method names bound by the pure-read contract wherever they appear on
    #: a class in the deterministic packages.
    _PURE_METHODS = frozenset(
        {
            "stats",
            "sample_items",
            "shard",
            "shard_samples",
            "snapshot",
            "snapshot_view",
        }
    )

    #: Forbidden callees (matched on the final attribute of a call chain)
    #: and why each one breaks the contract.
    _FORBIDDEN_CALLS = {
        "drain": "drains the ingest pipeline (a blocking barrier)",
        "_sync": "drains the pipeline to resynchronize driver state",
        "_get_or_create_shard": "creates a shard as a read side effect",
    }

    #: Generator draw methods; a call whose chain tail is one of these and
    #: whose receiver names an RNG counts as drawing randomness.
    _RNG_DRAWS = frozenset(
        {
            "random",
            "integers",
            "choice",
            "shuffle",
            "permutation",
            "normal",
            "standard_normal",
            "uniform",
            "exponential",
            "poisson",
            "binomial",
            "geometric",
            "gamma",
            "beta",
            "bytes",
        }
    )

    def applies_to(self, module: SourceModule) -> bool:
        return module.in_package(*DETERMINISTIC_PACKAGES)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name in self._PURE_METHODS
                ):
                    yield from self._check_method(module, node, stmt)

    def _check_method(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted_chain(node.func)
            if chain is None:
                continue
            tail = chain[-1]
            if tail in self._FORBIDDEN_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"pure read {cls.name}.{method.name}() calls "
                    f"{'.'.join(chain)}(), which "
                    f"{self._FORBIDDEN_CALLS[tail]}",
                    self._HINT,
                )
            elif (
                tail in self._RNG_DRAWS
                and len(chain) >= 2
                and any("rng" in part.lower() for part in chain[:-1])
            ):
                yield self.finding(
                    module,
                    node,
                    f"pure read {cls.name}.{method.name}() draws randomness "
                    f"via {'.'.join(chain)}()",
                    self._HINT,
                )


class EnvConfigRule(Rule):
    id = "env-config"
    description = (
        "no os.environ/os.getenv reads in the deterministic packages: an "
        "environment switch is a second code path no caller can see"
    )
    _HINT = (
        "take the setting as a constructor argument, or make the behaviour "
        "unconditional; a switch read from the environment changes what "
        "the code does without any call site saying so"
    )
    _ENV_NAMES = frozenset({"environ", "environb", "getenv", "getenvb"})

    def applies_to(self, module: SourceModule) -> bool:
        return module.in_package(*DETERMINISTIC_PACKAGES)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        os_names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "os":
                        os_names.add(alias.asname or "os")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in self._ENV_NAMES:
                        yield self.finding(
                            module,
                            node,
                            f"import of os.{alias.name} (environment configuration)",
                            self._HINT,
                        )
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._ENV_NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id in os_names
            ):
                yield self.finding(
                    module,
                    node,
                    f"read of os.{node.attr} (environment configuration)",
                    self._HINT,
                )


def default_rules() -> list[Rule]:
    """Fresh instances of every shipped rule."""
    return [
        DeterminismRule(),
        PickleBanRule(),
        ErrorSwallowingRule(),
        IterOrderRule(),
        StateDictRule(),
        PureReadRule(),
        EnvConfigRule(),
        RoutingFingerprintRule(),
    ]


ALL_RULES: tuple[str, ...] = tuple(rule.id for rule in default_rules())
