"""Structural rules of the runtime, read from the AST of every module in qbell:
it imports only the standard library and its own modules, absolute or
relative, and it holds no float."""

import ast
import sys
from pathlib import Path

import qbell

MODULES = sorted(Path(qbell.__file__).parent.glob("*.py"))

# math's names whose value, or whose result for any argument, is a float
FLOAT_MATH = frozenset({
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "cbrt", "copysign", "cos",
    "cosh", "degrees", "dist", "e", "erf", "erfc", "exp", "exp2", "expm1", "fabs", "fmod",
    "frexp", "fsum", "gamma", "hypot", "inf", "ldexp", "lgamma", "log", "log10", "log1p",
    "log2", "modf", "nan", "nextafter", "pi", "pow", "radians", "remainder", "sin", "sinh",
    "sqrt", "tan", "tanh", "tau", "ulp",
})


def _nodes():
    """(where, node) for every AST node of every module, where being file:line."""
    assert MODULES
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def _is_allowed(module: str) -> bool:
    # __init__ imports its submodules by absolute name, qbell.bell and so on
    top = module.partition(".")[0]
    return top in sys.stdlib_module_names or top == "qbell"


def test_every_import_is_stdlib_or_qbell():
    wrong = []
    for where, node in _nodes():
        if isinstance(node, ast.Import):
            wrong += [(where, alias.name) for alias in node.names if not _is_allowed(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and not _is_allowed(node.module):
            wrong.append((where, node.module))
    assert wrong == []


def test_no_float_literal_float_call_or_float_math_name():
    nodes = list(_nodes())
    # the names a module binds to math, by `import math` or `import math as m`
    math_names = {alias.asname or alias.name for _, node in nodes if isinstance(node, ast.Import)
                  for alias in node.names if alias.name == "math"}
    wrong = []
    for where, node in nodes:
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            wrong.append((where, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            wrong.append((where, "float()"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            wrong += [(where, f"math.{alias.name}") for alias in node.names
                      if alias.name in FLOAT_MATH]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr in FLOAT_MATH):
            wrong.append((where, f"math.{node.attr}"))
    assert wrong == []
