"""The batch/scalar parity registry (rule PAR007's data source).

The batch engines (:mod:`repro.core.batchpeel`,
:mod:`repro.cliques.batchlist`, and any future ``batch*`` module) carry
a bit-for-bit simulated-cost parity contract against their scalar
oracles.  Each engine module *declares* that contract in a module-level
literal::

    PARLINT_PARITY = {
        "peel_batch": {
            "oracle": "repro.core.decomp._peel_scalar",
            "fingerprint": {"add_round": 1, "task_span": 1, ...},
        },
    }

``oracle`` names the scalar twin whose tracker charges the batch kernel
must reproduce.  Top-level kernels must be registered; a class method is
registered by opting in with a ``"Class.method"`` key (a bulk method
pinned against its scalar form, e.g. ``UpdateLedger.fetch_sub_many``)
and is then checked the same way.  ``fingerprint`` is the kernel's *lexical charge
fingerprint*: for every direct charge-method call, the raw method name
with its call-site count, and for every call that forwards the tracker
to a helper, the helper's bare name with its count.  The analyzer
recomputes the fingerprint on every run and demands exact equality, so
deleting (or adding) a single charge call anywhere in a registered
kernel fails the strict lint until a human re-blesses the contract by
editing the declaration.

The declaration must be a pure literal (``ast.literal_eval``): the
analyzer reads it statically, without importing engine code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from .callgraph import (FunctionInfo, ModuleInfo, Project,
                        TRACKER_CHARGE_METHODS)

REGISTRY_NAME = "PARLINT_PARITY"

#: A module whose final component starts with ``batch`` is engine code.
ENGINE_MODULE_RE = re.compile(r"(^|\.)batch\w*$")


@dataclass(frozen=True)
class RegistryEntry:
    kernel: str              # kernel qualname (module + bare name)
    oracle: str              # scalar-oracle qualname
    fingerprint: dict        # raw charge-method / helper name -> count
    module: str
    lineno: int              # of the PARLINT_PARITY declaration


@dataclass(frozen=True)
class RegistryError:
    module: str
    path: str
    lineno: int
    message: str


def is_engine_module(module: ModuleInfo) -> bool:
    if ENGINE_MODULE_RE.search(module.name):
        return True
    return _registry_assign(module) is not None


def _registry_assign(module: ModuleInfo) -> ast.Assign | None:
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == REGISTRY_NAME
                for t in stmt.targets):
            return stmt
    return None


def kernel_fingerprint(fn: FunctionInfo) -> dict[str, int]:
    """The lexical charge fingerprint of one kernel (nested defs folded).

    Keys are raw charge-method names for direct charges and bare helper
    names for tracker-forwarding call sites; values are call-site counts.
    """
    counts: dict[str, int] = {}
    for charge in fn.charge_calls:
        counts[charge.attr] = counts.get(charge.attr, 0) + 1
    for site in fn.call_sites:
        if site.passes_tracker:
            key = site.callee_display
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def tracked_kernels(project: Project, summaries: dict,
                    module: ModuleInfo) -> list[FunctionInfo]:
    """The functions of an engine module that participate in cost
    accounting (and therefore must be registered): top-level functions
    that mention a tracker and have a nonempty transitive charge set."""
    kernels = []
    for fn in project.functions_of_module(module.name):
        if fn.class_name is not None:
            continue
        if not fn.mentions_tracker:
            continue
        summary = summaries.get(fn.qualname)
        if summary is None or not summary.charges:
            continue
        kernels.append(fn)
    return sorted(kernels, key=lambda f: f.lineno)


def registered_methods(project: Project, registry: dict,
                       module: ModuleInfo) -> list[FunctionInfo]:
    """The class methods of an engine module that its registry names
    (``"Class.method"`` keys): opt-in kernels, checked like top-level
    ones."""
    methods = [project.functions[qual] for qual, entry in registry.items()
               if entry.module == module.name and qual in project.functions
               and project.functions[qual].class_name is not None]
    return sorted(methods, key=lambda f: f.lineno)


def parity_kernels(project: Project, summaries: dict, module: ModuleInfo,
                   registry: dict) -> list[FunctionInfo]:
    """Every kernel of *module* whose parity contract PAR007 checks."""
    return sorted(tracked_kernels(project, summaries, module)
                  + registered_methods(project, registry, module),
                  key=lambda f: f.lineno)


def collect_registry(
        project: Project,
) -> tuple[dict[str, RegistryEntry], list[RegistryError]]:
    """Parse every engine module's ``PARLINT_PARITY`` declaration.

    Returns ``(entries by kernel qualname, declaration errors)``."""
    entries: dict[str, RegistryEntry] = {}
    errors: list[RegistryError] = []
    for module in project.modules.values():
        assign = _registry_assign(module)
        if assign is None:
            continue
        try:
            declared = ast.literal_eval(assign.value)
        except (ValueError, SyntaxError):
            errors.append(RegistryError(
                module.name, module.path, assign.lineno,
                f"{REGISTRY_NAME} must be a pure literal dict "
                f"(ast.literal_eval failed)"))
            continue
        if not isinstance(declared, dict):
            errors.append(RegistryError(
                module.name, module.path, assign.lineno,
                f"{REGISTRY_NAME} must be a dict, got "
                f"{type(declared).__name__}"))
            continue
        for name, entry in sorted(declared.items()):
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("oracle"), str)
                    and isinstance(entry.get("fingerprint"), dict)):
                errors.append(RegistryError(
                    module.name, module.path, assign.lineno,
                    f"registry entry {name!r} needs string 'oracle' and "
                    f"dict 'fingerprint' keys"))
                continue
            entries[f"{module.name}.{name}"] = RegistryEntry(
                kernel=f"{module.name}.{name}", oracle=entry["oracle"],
                fingerprint=dict(entry["fingerprint"]),
                module=module.name, lineno=assign.lineno)
    return entries, errors


def render_registry(project: Project, summaries: dict,
                    module: ModuleInfo) -> str:
    """Pretty-print the declaration the analyzer expects for *module* ---
    the ``--emit-registry`` authoring aid.  The oracle lines are left for
    the human to fill in (or keep, when re-blessing a fingerprint)."""
    existing, _ = collect_registry(project)
    lines = [f"{REGISTRY_NAME} = {{"]
    for fn in parity_kernels(project, summaries, module, existing):
        entry = existing.get(fn.qualname)
        oracle = entry.oracle if entry else "<scalar-oracle-qualname>"
        key = fn.qualname[len(module.name) + 1:]
        lines.append(f'    "{key}": {{')
        lines.append(f'        "oracle": "{oracle}",')
        lines.append('        "fingerprint": {')
        for key, count in kernel_fingerprint(fn).items():
            lines.append(f'            "{key}": {count},')
        lines.append("        },")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


# re-exported for the rules module
__all__ = [
    "REGISTRY_NAME", "ENGINE_MODULE_RE", "RegistryEntry", "RegistryError",
    "is_engine_module", "kernel_fingerprint", "tracked_kernels",
    "registered_methods", "parity_kernels", "collect_registry",
    "render_registry", "TRACKER_CHARGE_METHODS",
]
