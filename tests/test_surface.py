"""Every public name of the package has a caller outside the tests.

A top-level function or class of ``src/trhreg``, or a public method of a
public class, that only tests reach is surface kept for its own sake.
This parses the package, the demos and the benchmark with ``ast`` and
requires each such ``def``/``class`` to be referenced -- as a name, an
attribute or an imported name -- somewhere in ``src/`` (outside its own
definition), ``demos/`` or ``bench/``.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "trhreg")


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
