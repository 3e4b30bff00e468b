"""CSP003 — the ``SpatialIndex`` contract, checked at the AST level.

The privacy-aware processor is written against the abstract
``SpatialIndex`` surface ("it can be employed using R-tree or any other
methods", Section 5), and PR 1's batch engine additionally relies on
every implementation breaking distance ties by *insertion order* so
that accelerated indexes answer byte-identically to the brute-force
oracle.  ``abc`` enforces the abstract hooks only at instantiation
time — a subclass that is never constructed in the test run, or that
overrides a hook with an incompatible signature, slips through.  This
rule checks, for every direct subclass of the contract class found in
the project:

* every ``@abstractmethod`` of the base is implemented;
* every override of a base method keeps a compatible signature (the
  base's positional parameters, same names and order; extra trailing
  parameters must carry defaults);
* overrides of the tie-sensitive query hooks (``k_nearest*``,
  ``*_impl`` search methods) document the insertion-order tie-break —
  a docstring or comment inside the method mentioning "tie" or
  "insertion order" — because that contract clause lives only in prose
  and is exactly what a fast rewrite silently drops.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from dataclasses import dataclass

from repro.analysis.config import LintConfig
from repro.analysis.core import ModuleInfo, Project, RawFinding, Rule, register_rule

__all__ = ["IndexContractRule"]


@dataclass(frozen=True, slots=True)
class _MethodSig:
    name: str
    params: tuple[str, ...]  # positional parameter names, excluding self
    is_abstract: bool


def _positional_params(fn: ast.FunctionDef) -> tuple[str, ...]:
    args = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    return tuple(args[1:])  # drop self


def _defaults_count(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults)


def _is_abstract(fn: ast.FunctionDef) -> bool:
    for deco in fn.decorator_list:
        name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", "")
        if name == "abstractmethod":
            return True
    return False


def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }


def _find_contract(
    project: Project, base_name: str
) -> dict[str, _MethodSig] | None:
    """The method contract of the (unique) class named ``base_name``."""
    for info in project.iter_modules():
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ClassDef) and node.name == base_name:
                return {
                    name: _MethodSig(
                        name=name,
                        params=_positional_params(fn),
                        is_abstract=_is_abstract(fn),
                    )
                    for name, fn in _methods(node).items()
                    if name != "__init__"
                }
    return None


def _method_documentation(module: ModuleInfo, fn: ast.FunctionDef) -> str:
    """Docstring plus comment text inside a method's source span.

    Only prose counts — an identifier that happens to contain "tie"
    must not satisfy the documentation requirement.
    """
    parts = [ast.get_docstring(fn) or ""]
    end = fn.end_lineno if fn.end_lineno is not None else fn.lineno
    for line in module.lines[fn.lineno - 1 : end]:
        _, hash_mark, comment = line.partition("#")
        if hash_mark:
            parts.append(comment)
    return "\n".join(parts)


@register_rule
class IndexContractRule(Rule):
    code = "CSP003"
    name = "index-contract"
    description = (
        "every SpatialIndex subclass must implement the full abstract "
        "surface with signature-compatible overrides and documented "
        "insertion-order tie-breaking in its search methods"
    )
    default_severity = "error"

    #: ``(project, base name, contract)`` of the last lookup.  The engine
    #: makes one rule instance per lint run, so this finds the contract
    #: once per run instead of walking every module once per module.
    _memo: tuple[Project, str, dict[str, _MethodSig] | None] | None = None

    def _contract(
        self, project: Project, base_name: str
    ) -> dict[str, _MethodSig] | None:
        memo = self._memo
        if memo is None or memo[0] is not project or memo[1] != base_name:
            memo = (project, base_name, _find_contract(project, base_name))
            self._memo = memo
        return memo[2]

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterable[RawFinding]:
        contract = self._contract(project, config.index_base)
        if contract is None:
            return
        abstract = {s.name for s in contract.values() if s.is_abstract}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if config.index_base not in _base_names(node):
                continue
            if node.name == config.index_base:
                continue
            methods = _methods(node)
            missing = sorted(abstract - set(methods))
            if missing:
                yield RawFinding.at(
                    node,
                    f"'{node.name}' does not implement required "
                    f"{config.index_base} hooks: {missing}",
                )
            for name, fn in methods.items():
                sig = contract.get(name)
                if sig is None:
                    continue
                yield from self._check_signature(node, fn, sig)
                if name in config.tie_break_methods:
                    doc = _method_documentation(module, fn).lower()
                    if "tie" not in doc and "insertion order" not in doc:
                        yield RawFinding(
                            line=fn.lineno,
                            message=(
                                f"'{node.name}.{name}' overrides a "
                                "tie-sensitive search method without "
                                "documenting the insertion-order tie-break "
                                "(add a docstring/comment containing 'tie' "
                                "or 'insertion order')"
                            ),
                            end_line=fn.lineno,
                        )

    def _check_signature(
        self, cls: ast.ClassDef, fn: ast.FunctionDef, base: _MethodSig
    ) -> Iterable[RawFinding]:
        params = _positional_params(fn)
        expected = base.params
        if params[: len(expected)] != expected:
            yield RawFinding(
                line=fn.lineno,
                message=(
                    f"'{cls.name}.{fn.name}' override is signature-"
                    f"incompatible with {base.name}{tuple(expected)}: "
                    f"found parameters {tuple(params)}"
                ),
                end_line=fn.lineno,
            )
            return
        extra = len(params) - len(expected)
        if extra > _defaults_count(fn):
            yield RawFinding(
                line=fn.lineno,
                message=(
                    f"'{cls.name}.{fn.name}' adds {extra} positional "
                    "parameter(s) without defaults; callers using the "
                    f"abstract {base.name} surface would break"
                ),
                end_line=fn.lineno,
            )
