"""The lock-order tables cannot go stale.

Every ``LOCK_SITES`` row must name a real lock: an existing module that
assigns that attribute from ``make_lock``/``make_rlock`` with the row's
domain (inside the row's class, when it names one).  And every domain
the leaf, outer and non-reentrant tables mention must be used by at
least one row — a domain whose last lock was deleted goes with it.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.lock_order import (
    LEAF_DOMAINS,
    LOCK_SITES,
    NON_REENTRANT_DOMAINS,
    OUTER_DOMAINS,
)

PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"
FACTORIES = {"make_lock", "make_rlock"}


def _factory_domains(value: ast.AST):
    """Domains of every ``make_lock("d")``/``make_rlock("d")`` in ``value``."""
    for node in ast.walk(value):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        first = node.args[0]
        if name in FACTORIES and isinstance(first, ast.Constant):
            yield first.value


def _assigned_name(target: ast.AST):
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return None


def _lock_assignments(scope: ast.AST):
    """``(attribute, domain)`` for each factory-built lock in ``scope``."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            name = _assigned_name(target)
            if name is not None:
                for domain in _factory_domains(value):
                    yield name, domain


def _scope(tree: ast.Module, class_name):
    if class_name is None:
        return tree
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return node
    return None


@pytest.mark.parametrize("site", sorted(LOCK_SITES, key=str),
                         ids=lambda site: ":".join(map(str, site)))
def test_lock_site_names_a_factory_built_lock(site):
    relpath, class_name, attribute = site
    path = PACKAGE_ROOT / relpath
    assert path.is_file(), f"LOCK_SITES row names missing module {relpath}"
    scope = _scope(ast.parse(path.read_text()), class_name)
    assert scope is not None, f"{relpath} has no class {class_name}"
    found = {domain for name, domain in _lock_assignments(scope)
             if name == attribute}
    assert LOCK_SITES[site] in found, (
        f"{relpath}: no {attribute} = make_lock/make_rlock"
        f"({LOCK_SITES[site]!r}) (found domains {sorted(found)})")


@pytest.mark.parametrize("table", ["LEAF_DOMAINS", "OUTER_DOMAINS",
                                   "NON_REENTRANT_DOMAINS"])
def test_every_table_domain_is_used_by_a_lock_site(table):
    domains = {"LEAF_DOMAINS": LEAF_DOMAINS, "OUTER_DOMAINS": OUTER_DOMAINS,
               "NON_REENTRANT_DOMAINS": NON_REENTRANT_DOMAINS}[table]
    unused = domains - set(LOCK_SITES.values())
    assert not unused, f"{table} lists domains no lock uses: {sorted(unused)}"
