"""Design rules of the package, checked on its source.

The code that combines factors reads each one through the answers every
factor kind gives (`factors.FactorKind` and its subclasses), so no module
but `factors` tests a factor's kind, and no module probes an object for an
attribute it may lack.
"""

import ast
from pathlib import Path

import fprw

SOURCE = Path(fprw.__file__).parent
KINDS = {"LatticeNN", "FiniteGroup", "HomTree", "ExplicitSeries"}


def names_in(node) -> set:
    """The plain and dotted names an expression mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def kind_probes(path: Path) -> list:
    """`path:line` of each isinstance that names a factor kind (outside
    factors.py) and of each getattr or hasattr."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        kind_test = node.func.id == "isinstance" and len(node.args) == 2 and names_in(node.args[1]) & KINDS
        if (kind_test and path.name != "factors.py") or node.func.id in ("getattr", "hasattr"):
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_kind_tests_or_attribute_probes():
    sources = sorted(SOURCE.glob("*.py"))
    assert len(sources) >= 10  # the package, not an empty directory
    assert [probe for path in sources for probe in kind_probes(path)] == []
