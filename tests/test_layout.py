"""The library holds only code that the program reads.

Every function and class defined under ``src/perispec`` must be read somewhere in
``src/perispec/*.py`` or ``perfbench/*.py`` outside its own definition: by a name, an
attribute, or a string that is exactly its name (``getattr(mesh, "fingerprint")``).  Imports,
the re-exports of ``perispec/__init__.py`` among them, are not reads, and neither are the
tests: a function that only tests call belongs with them.  Dunder names are exempt.
"""

import ast
import collections
import glob
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unread_definitions(sources: dict) -> list:
    """(path, line, name) of each definition in a source under src/ that no read names."""
    defs, reads = [], collections.defaultdict(list)  # reads: name -> [(path, line)]
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text, path)):
            if isinstance(node, DEFINITIONS) and path.startswith("src"):
                defs.append((path, node.lineno, node.end_lineno, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads[node.attr].append((path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads[node.value].append((path, node.lineno))
    return [(path, first, name) for path, first, last, name in defs
            if not (name.startswith("__") and name.endswith("__"))
            and not any(p != path or not first <= line <= last for p, line in reads[name])]


def program_sources() -> dict:
    paths = glob.glob(os.path.join(ROOT, "src", "perispec", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    sources = {}
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            sources[os.path.relpath(path, ROOT)] = fh.read()
    return sources


def test_every_library_definition_is_read_by_the_program():
    assert unread_definitions(program_sources()) == []


def test_a_definition_only_tests_read_is_flagged():
    sources = program_sources()
    path = os.path.join("src", "perispec", "energy.py")
    sources[path] += "\n\ndef only_tests_call(u):\n    return only_tests_call(u)\n"
    line = sources[path].splitlines().index("def only_tests_call(u):") + 1
    assert unread_definitions(sources) == [(path, line, "only_tests_call")]


def test_reads_by_name_attribute_and_string_count():
    defs = "def a():\n    pass\n\n\ndef b():\n    pass\n\n\nclass C:\n    pass\n"
    uses = "x = a\ny = m.b\nz = getattr(m, 'C')\n"
    assert unread_definitions({"src/m.py": defs, "perfbench/u.py": uses}) == []
    assert unread_definitions({"src/m.py": defs, "src/__init__.py": "from .m import a, b, C\n"}) \
        == [("src/m.py", 1, "a"), ("src/m.py", 5, "b"), ("src/m.py", 9, "C")]
