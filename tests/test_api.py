"""The documented Python API: the README's examples, each module's exports,
and the rule that every public name and every parameter with a default is
used."""

import ast
import collections
import importlib
import os
import re

import pytest

import cartanheis

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _readme():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def _readme_python_blocks():
    return re.findall(r"```python\n(.*?)```", _readme(), flags=re.S)


def test_readme_python_blocks_run():
    # every ```python block of the README, in order, in one namespace
    blocks = _readme_python_blocks()
    assert len(blocks) >= 3
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)


@pytest.mark.parametrize("name", cartanheis.__all__)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"cartanheis.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, missing


# -- the public surface is used: every exported name has a caller, every
# -- parameter with a default is passed somewhere --------------------------

def _sources(*dirs):
    for top in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    with open(path, encoding="utf-8") as fh:
                        yield name, ast.parse(fh.read(), path)


def _identifiers(node):
    """Every name and attribute that ``node`` reads, imports included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _public_definitions():
    """(module, qualified name, defining node) of each ``__all__`` name and
    of each public method or property of an exported class."""
    trees = dict(_sources(os.path.join("src", "cartanheis")))
    for module_name in cartanheis.__all__:
        top = {node.name: node for node in trees[f"{module_name}.py"].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        module = importlib.import_module(f"cartanheis.{module_name}")
        for name in getattr(module, "__all__", ()):
            node = top.get(name)
            yield module_name, name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        yield module_name, f"{name}.{member.name}", member


def test_every_public_name_has_a_caller_or_is_documented():
    # a name counts as used when code of the package or of the benchmark
    # reads it outside its own definition, or when the README names it
    uses = collections.Counter()
    for _, tree in _sources(os.path.join("src", "cartanheis"), "perfbench"):
        uses.update(_identifiers(tree))
    readme = _readme()
    unused = []
    for module_name, qualname, node in _public_definitions():
        name = qualname.rsplit(".", 1)[-1]
        own = 0 if node is None else sum(
            1 for ident in _identifiers(node) if ident == name)
        if uses[name] - own <= 0 and not re.search(rf"\b{name}\b", readme):
            unused.append(f"{module_name}.{qualname}")
    assert not unused, unused


def _calls():
    """Per called name: the keywords it is given, the most positional
    arguments it is given, and whether some call spreads *args or **kwargs."""
    trees = [tree for _, tree in _sources("src", "tests", "tools", "perfbench")]
    trees += [ast.parse(block) for block in _readme_python_blocks()]
    keywords = collections.defaultdict(set)
    positional = collections.Counter()
    spread = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                spread.add(name)
            keywords[name].update(k.arg for k in call.keywords)
            positional[name] = max(positional[name], len(call.args))
    return keywords, positional, spread


def _defaulted_parameters():
    """(where, function name, parameter, positional index or None) of every
    parameter with a default in the package, ``__init__`` aside."""
    for file_name, tree in _sources(os.path.join("src", "cartanheis")):
        methods = {id(member) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for member in node.body
                   if isinstance(member, ast.FunctionDef)
                   and not any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                               for dec in member.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name == "__init__":
                continue
            args = node.args
            ordered = args.posonlyargs + args.args
            bound = 1 if id(node) in methods else 0
            where = f"{file_name}:{node.lineno}"
            for k in range(len(ordered) - len(args.defaults), len(ordered)):
                yield where, node.name, ordered[k].arg, k - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield where, node.name, arg.arg, None


def test_every_defaulted_parameter_is_passed_somewhere():
    keywords, positional, spread = _calls()
    never = [f"{where} {func}({param})"
             for where, func, param, index in _defaulted_parameters()
             if func not in spread and param not in keywords[func]
             and (index is None or positional[func] <= index)]
    assert not never, never
