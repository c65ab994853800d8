"""Structural rules of the runtime, read from the AST of every module in qbell:
it imports only the standard library and its own modules, absolute or
relative, it holds no float, and each true division sits where it is listed
with its reason."""

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

# (module, function) of every true division, with why its result is exact: int / int is a float
DIVISIONS = {
    ("bell", "partial_bell"): "a Fraction x_i by i!",
    ("bell", "partial_bell_by_enumeration"): "a Fraction (x_i / i!)^j by j!",
    ("series", "_quotient"): "a Fraction by an int or a Fraction",
    ("series", "extract_log_coefficients"): "a series by its row's int scale",
}


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


def _divisions():
    """(module, innermost enclosing function or None, line) for every true division."""
    def walk(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                yield module, function, child.lineno
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from walk(child, module, child.name if named else function)

    for path in MODULES:
        yield from walk(ast.parse(path.read_text(), str(path)), path.stem, None)


def test_every_true_division_is_listed():
    found = list(_divisions())
    assert [where for where in found if where[:2] not in DIVISIONS] == []
    assert {where[:2] for where in found} == set(DIVISIONS)  # and no row is stale
