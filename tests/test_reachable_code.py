"""No function, class or method in ``src/ramplab`` is reached from tests alone.

An AST scan: every top-level function and class of a ``src/ramplab``
module, and every method defined in such a class, must be named somewhere
in ``src/ramplab``, ``scripts/`` or ``benchmark/`` outside its own
definition (so a recursive call or the op name an autodiff op gives its
node does not count), as a name, an attribute, or a word of a string
literal (the benchmark patches ``"ramplab.network:GitsrNetwork.forward_batch"``
and the like).  Docstrings do not count, and dunder methods, which Python
calls itself, are not checked.  Names are matched by spelling, not by
binding, so the scan can miss dead code that shares a name with live
code, but it flags only definitions that no program file names.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINING = sorted((ROOT / "src" / "ramplab").rglob("*.py"))
REFERRING = sorted(path for folder in ("src/ramplab", "scripts", "benchmark")
                   for path in (ROOT / folder).rglob("*.py"))

# Reached from tests alone, each on purpose.
ALLOWED = {
    "representation.stack_states":
        "the batched actor of ROADMAP item 8 stacks snapshots with it",
    "idm.equilibrium_gap":
        "acceptance criterion 4 checks the simulator against this closed form",
    "autodiff.sum_all":
        "acceptance criterion 1 sums the probe-weighted Q rows into its loss with it",
    "autodiff.mul":
        "acceptance criterion 1 weights the Q rows by a random probe with it",
    "network.QNetwork.forward":
        "acceptance criterion 1 differentiates through it, and the tests hold q_values to it",
    "network.load_checkpoint":
        "acceptance criterion 9 and the checkpoint tests read the stored parameters by name with it",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{node.name}.{item.name}", item


def references(tree: ast.AST) -> Counter:
    """How often each name is named in ``tree``, docstrings aside."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *DEFS)) and node.body
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def unreached(defining: dict[str, str], referring: list[str]) -> list[str]:
    """``module.qualified_name`` of each definition in the ``defining``
    sources (module name -> source) that no ``referring`` source names
    outside the definition itself."""
    named = sum((references(ast.parse(source)) for source in referring), Counter())
    return sorted(f"{module}.{qualified}" for module, source in defining.items()
                  for qualified, node in definitions(ast.parse(source))
                  if named[node.name] <= references(node)[node.name])


def test_every_definition_is_reached_from_program_code():
    defining = {path.stem: path.read_text() for path in DEFINING}
    assert unreached(defining, [path.read_text() for path in REFERRING]) == sorted(ALLOWED)


def test_the_scan_sees_a_definition_only_tests_reach():
    source = (
        '"""Module docstring naming unused_function."""\n'
        "def used(): pass\n"
        "def unused_function():\n"
        '    """Docstring naming unused_method."""\n'
        "def recursive(n):\n"
        '    return recursive(n - 1) if n else "recursive"\n'
        "def patched(): pass\n"
        "class Owner:\n"
        "    def __len__(self): return 0\n"
        "    def method(self): return used()\n"
        "    def unused_method(self): pass\n"
        "Owner().method()\n"
    )
    dead = ["mod.Owner.unused_method", "mod.patched", "mod.recursive", "mod.unused_function"]
    assert unreached({"mod": source}, [source]) == dead
    patcher = 'patch("mod:patched")\n'
    assert unreached({"mod": source}, [source, patcher]) == [n for n in dead if n != "mod.patched"]
