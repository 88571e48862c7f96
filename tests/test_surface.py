"""Every public name of the package, and every field of its settings and
data types, has a reader outside the tests.

A top-level function or class of ``src/trhreg``, or a public method of a
public class, that only tests reach is surface kept for its own sake.
This parses the package, the demos and the benchmark with ``ast`` and
requires each such ``def``/``class`` to be referenced -- as a name, an
attribute or an imported name -- somewhere in ``src/`` (outside its own
definition), ``demos/`` or ``bench/``.  Likewise a field of a config
section or of ``Dataset`` that no code reads is a setting that changes
nothing: each must be read as an attribute in ``src/`` (outside
``__post_init__``, which only checks it), ``demos/`` or ``bench/``.
"""

import ast
import dataclasses
import os

from trhreg.attacks import AttackConfig
from trhreg.config import (MeasureConfig, PacBayesConfig, RobustLossKind,
                           TrainConfig, TrHConfig)
from trhreg.data import Dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "trhreg")
SOURCES = [PACKAGE] + [os.path.join(ROOT, d) for d in ("demos", "bench")]
FIELD_TYPES = [RobustLossKind, AttackConfig, TrHConfig, TrainConfig,
               PacBayesConfig, MeasureConfig, Dataset]


def _python_files(directory):
    for dirpath, _, names in os.walk(directory):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _referenced(node):
    """Names, attribute names and imported names used anywhere in `node`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _public(stmt):
    return (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_"))


def _public_definitions():
    """``{(qualified name, name)}`` of the package's public top-level defs
    and classes and the public methods of its public classes."""
    defined = set()
    for path in _python_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        for stmt in filter(_public, _parse(path).body):
            defined.add((f"{module}.{stmt.name}", stmt.name))
            if isinstance(stmt, ast.ClassDef):
                for method in filter(_public, stmt.body):
                    defined.add((f"{module}.{stmt.name}.{method.name}", method.name))
    return defined


def _references():
    refs = set()
    for path in _python_files(PACKAGE):
        for stmt in _parse(path).body:
            if isinstance(stmt, ast.ClassDef):
                names = {name for node in stmt.bases + stmt.decorator_list
                         for name in _referenced(node)}
                for sub in stmt.body:
                    sub_names = _referenced(sub)
                    if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                        sub_names.discard(sub.name)  # nor does a method
                    names |= sub_names
            else:
                names = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)  # a definition does not call itself
            refs |= names
    for directory in ("demos", "bench"):
        for path in _python_files(os.path.join(ROOT, directory)):
            refs |= _referenced(_parse(path))
    return refs


def test_every_public_name_has_a_caller_outside_tests():
    refs = _references()
    unused = sorted(qualified for qualified, name in _public_definitions()
                    if name not in refs)
    assert not unused, f"public names reached only from tests: {unused}"


def _attributes_read():
    """Attribute names loaded anywhere in the sources, outside the bodies
    of ``__post_init__`` methods."""
    read = set()
    for directory in SOURCES:
        for path in _python_files(directory):
            tree = _parse(path)
            checks = {id(node) for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                      for node in ast.walk(fn)}
            read |= {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load) and id(node) not in checks}
    return read


def test_every_settings_field_is_read_outside_tests():
    read = _attributes_read()
    unread = [f"{cls.__name__}.{field.name}" for cls in FIELD_TYPES
              for field in dataclasses.fields(cls) if field.name not in read]
    assert not unread, f"fields read only by tests: {unread}"
