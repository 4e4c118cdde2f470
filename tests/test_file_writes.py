"""Every file fedsim writes goes through one of a few named writers."""
import ast
import pathlib

import fedsim

# (module, function) pairs that may open a file for writing: orchestrator's
# whole-file writer and append, and `partition --out`, whose path may be a pipe
WRITERS = {("orchestrator", "_replace_file"), ("orchestrator", "_append"),
           ("cli", "_cmd_partition")}


class _Writes(ast.NodeVisitor):
    """(enclosing function, line) of each open() call in a module whose mode
    may write: a mode holding w, a, x or +, or one that is not a literal."""

    def __init__(self):
        self.func, self.found = "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if name == "open" and mode is not None and (
                not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+")):
            self.found.append((self.func, node.lineno))
        self.generic_visit(node)


def test_only_the_named_writers_open_files_for_writing():
    found = []
    for path in sorted(pathlib.Path(fedsim.__file__).parent.rglob("*.py")):
        writes = _Writes()
        writes.visit(ast.parse(path.read_text()))
        found += [f"{path.name}:{line} in {func}" for func, line in writes.found
                  if (path.stem, func) not in WRITERS]
    assert found == []


def test_the_guard_sees_a_write_outside_the_writers():
    writes = _Writes()
    writes.visit(ast.parse("def f(p):\n    with open(p, 'a') as g:\n        pass\n"
                           "def h(p, m):\n    open(p, mode=m)\n    open(p)\n"))
    assert writes.found == [("f", 2), ("h", 5)]
