"""Rule ``cache-key``: every result-affecting config field is folded into
a cache key (or declared value-preserving, or suppressed with a reason).

The failure mode this guards against is the silent cache fork: a new
``DPSolverConfig`` / ``PlannerConfig`` field changes what a solve
produces, but the keyed caches (the search context's ``key = (...)``
tuples and the whole-solve memo) never learned about it -- so a shared
or long-lived context serves results computed under a *different*
configuration.  PRs 1-8 avoided this by hand; this rule machine-checks
it.

The contract, per config field:

1. **Keyed** -- the field's value reaches a recognised cache-key
   expression.  Recognised key expressions are (a) tuples assigned to a
   name in ``{"key", "signature", "sig", "cache_key"}`` and (b) the first
   argument of ``context.solution(...)`` (the whole-solve memo).
   Reaching is resolved through one level of local aliasing
   (``limit = self.config.max_combos_per_stage`` then ``limit`` in the
   key) and through function parameters (``max_mixed`` in
   ``stage_master_combos``'s key, bound to
   ``self.config.max_mixed_types_per_stage`` at its call site).  A
   composite config passed through ``astuple(...)`` folds in every leaf
   field (the whole-solve memo keys ``astuple(self.config.dp_config)``).
2. **Declared value-preserving** -- the field's ``#:`` doc comment
   contains one of the :data:`~repro.analysis.core.VALUE_PRESERVING_MARKERS`
   phrases ("bit-identical", "off only for equivalence testing", ...),
   i.e. the field is a pure latency/dispatch knob backed by the
   equivalence suites, so no cached artifact can depend on it.
3. **Suppressed** -- ``# lint: disable=cache-key -- <why>`` on the field,
   for fields that affect results but provably never flow into a cached
   artifact (e.g. per-candidate search-policy knobs).

Fields read nowhere in the solver stack are flagged as dead.  The scanned
modules are recognised by basename (``dp_solver.py``,
``resource_state.py``, ``search_cache.py``, ``planner.py``), which is
also what lets the fixture suites feed the rule miniature replicas.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.core import (
    ConfigField,
    Finding,
    ProjectIndex,
    SourceFile,
    attribute_chain,
    call_name,
    extract_config_fields,
)
from repro.analysis.registry import Rule, register_rule

CONFIG_CLASSES = ("DPSolverConfig", "PlannerConfig")
CONFIG_FILES = ("dp_solver.py", "planner.py")
KEY_SITE_FILES = ("dp_solver.py", "resource_state.py", "search_cache.py",
                  "planner.py")
KEY_NAMES = {"key", "signature", "sig", "cache_key"}
KEY_CACHE_METHODS = {"solution"}
#: Attribute spellings under which a config object is read.
CONFIG_ATTRS = {"config", "dp_config", "_config"}


def _config_field_of(node: ast.AST) -> str | None:
    """``self.config.X`` / ``config.X`` / ``self.config.dp_config.X`` -> X."""
    chain = attribute_chain(node)
    if chain is None or len(chain) < 2:
        return None
    if chain[-2] in CONFIG_ATTRS:
        return chain[-1]
    return None


def _fields_of(node: ast.AST, field_names: set[str],
               composites: dict[str, set[str]]) -> set[str]:
    """Config fields one expression node reads: a direct read, or every
    leaf field of a composite config passed through ``astuple(...)``."""
    fname = _config_field_of(node)
    if fname in field_names:
        return {fname}
    if (isinstance(node, ast.Call) and call_name(node) == "astuple"
            and node.args):
        return set(composites.get(_config_field_of(node.args[0]), ()))
    return set()


def _alias_fields(value: ast.AST, field_names: set[str],
                  composites: dict[str, set[str]]) -> set[str]:
    """Fields a local name aliases when assigned ``value``: a direct config
    read, or any ``astuple(<composite>)`` inside it (e.g. a conditional
    ``astuple(self.config.dp_config) if ... else None``)."""
    fields = _fields_of(value, field_names, composites)
    for sub in ast.walk(value):
        if isinstance(sub, ast.Call):
            fields |= _fields_of(sub, field_names, composites)
    return fields


@dataclass
class _FunctionScan:
    """Key-relevant facts about one function."""

    qualname: str
    params: list[str]
    #: local name -> config fields (single-step aliases).
    aliases: dict[str, set[str]] = field(default_factory=dict)
    #: parameter names appearing inside this function's key expressions.
    key_params: set[str] = field(default_factory=set)
    #: config fields keyed directly inside this function.
    keyed_fields: set[str] = field(default_factory=set)


@register_rule
class CacheKeyRule(Rule):
    name = "cache-key"
    description = ("every DPSolverConfig/PlannerConfig field must be folded "
                   "into a cache key, declared value-preserving, or carry a "
                   "justified suppression (unkeyed result-affecting fields "
                   "silently fork cached results)")

    def run(self, index: ProjectIndex) -> list[Finding]:
        config_fields: list[ConfigField] = []
        for source_file in index.by_basename(*CONFIG_FILES):
            config_fields.extend(
                extract_config_fields(source_file, CONFIG_CLASSES))
        if not config_fields:
            return []
        field_names = {f.name for f in config_fields}
        # Composite fields (a config class nested in another, like
        # ``PlannerConfig.dp_config``) -> that class's leaf fields.
        composites = {
            f.name: {g.name for g in config_fields
                     if g.cls_name == f.annotation}
            for f in config_fields if f.annotation in CONFIG_CLASSES}

        scans: dict[str, list[_FunctionScan]] = {}
        read_fields: set[str] = set()
        keyed_fields: set[str] = set()
        key_files = index.by_basename(*KEY_SITE_FILES)
        for source_file in key_files:
            for qualname, node in source_file.functions():
                scan = self._scan_function(qualname, node, field_names,
                                           composites)
                scans.setdefault(node.name, []).append(scan)
                keyed_fields |= scan.keyed_fields
            for node in ast.walk(source_file.tree):
                fname = _config_field_of(node)
                if fname in field_names:
                    read_fields.add(fname)

        # Second pass: call sites binding config fields to key parameters.
        for source_file in key_files:
            keyed_fields |= self._call_site_fields(source_file, scans,
                                                   field_names, composites)

        findings: list[Finding] = []
        for config_field in config_fields:
            if config_field.name in keyed_fields:
                continue
            if config_field.declared_value_preserving:
                continue
            label = f"{config_field.cls_name}.{config_field.name}"
            if config_field.name not in read_fields:
                message = (f"dead config field {label}: never read in the "
                           "solver stack (remove it, or wire it up)")
            else:
                message = (
                    f"config field {label} is read by the solver stack but "
                    "folded into no cache key and not declared "
                    "value-preserving; fold it into the relevant "
                    "signature/key, add a '#:' doc comment with an "
                    "equivalence-suite-backed marker (e.g. 'bit-identical', "
                    "'off only for equivalence testing'), or suppress with "
                    "a justification")
            findings.append(Finding(
                rule=self.name, path=config_field.file,
                line=config_field.line, col=0, message=message))
        return findings

    # -- pass 1: per-function key expressions ----------------------------------

    def _scan_function(self, qualname: str, node: ast.FunctionDef,
                       field_names: set[str],
                       composites: dict[str, set[str]]) -> _FunctionScan:
        params = [arg.arg for arg in (node.args.posonlyargs + node.args.args
                                      + node.args.kwonlyargs)]
        scan = _FunctionScan(qualname=qualname, params=params)
        # Single-step aliases: x = self.config.F or x = astuple(composite)
        # (only assignments in this function's own body).
        for stmt in ast.walk(node):
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                fields = _alias_fields(stmt.value, field_names, composites)
                if fields:
                    scan.aliases[stmt.targets[0].id] = fields

        key_exprs: list[ast.AST] = []
        for stmt in ast.walk(node):
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id in KEY_NAMES):
                key_exprs.append(stmt.value)
            elif (isinstance(stmt, ast.Call) and stmt.args
                  and call_name(stmt) in KEY_CACHE_METHODS):
                key_exprs.append(stmt.args[0])

        for expr in key_exprs:
            for sub in ast.walk(expr):
                fields = _fields_of(sub, field_names, composites)
                if fields:
                    scan.keyed_fields |= fields
                elif isinstance(sub, ast.Name):
                    if sub.id in scan.aliases:
                        scan.keyed_fields |= scan.aliases[sub.id]
                    elif sub.id in params:
                        scan.key_params.add(sub.id)
        return scan

    # -- pass 2: call sites feeding key parameters ------------------------------

    def _call_site_fields(self, source_file: SourceFile,
                          scans: dict[str, list[_FunctionScan]],
                          field_names: set[str],
                          composites: dict[str, set[str]]) -> set[str]:
        keyed: set[str] = set()
        # Alias maps per enclosing function, so call-site args spelled via a
        # local alias still resolve.
        alias_by_func: dict[ast.AST, dict[str, set[str]]] = {}
        for _, func in source_file.functions():
            aliases: dict[str, set[str]] = {}
            for stmt in ast.walk(func):
                if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)):
                    fields = _alias_fields(stmt.value, field_names,
                                           composites)
                    if fields:
                        aliases[stmt.targets[0].id] = fields
            alias_by_func[func] = aliases

        def resolve(arg: ast.AST, aliases: dict[str, set[str]]) -> set[str]:
            fields = _fields_of(arg, field_names, composites)
            if not fields and isinstance(arg, ast.Name):
                fields = aliases.get(arg.id, set())
            return fields

        for func, aliases in alias_by_func.items():
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                for scan in scans.get(name or "", []):
                    if not scan.key_params:
                        continue
                    params = scan.params
                    # Methods called as attributes drop the leading self.
                    offset = 1 if (params and params[0] in {"self", "cls"}
                                   and isinstance(node.func, ast.Attribute)
                                   ) else 0
                    for position, arg in enumerate(node.args):
                        slot = position + offset
                        if slot < len(params) and params[slot] in scan.key_params:
                            keyed |= resolve(arg, aliases)
                    for keyword in node.keywords:
                        if keyword.arg in scan.key_params:
                            keyed |= resolve(keyword.value, aliases)
        return keyed
