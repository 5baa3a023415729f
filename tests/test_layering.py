"""Module layering, read from the source with ``ast``.

The 3-graph core (hypergraph, constructions, classification, improvement)
imports nothing from the colored 2-graph module, and the construction
model's names are assigned in one module only, as is the toggle-phase table
with its two checklist coefficients.  ``formats`` is not in the core: its
``.cg`` reader builds a ``ColoredGraph``.
"""

import ast
from pathlib import Path

import turanl2

SRC = Path(turanl2.__file__).parent
CORE = ("hypergraph", "constructions", "classification", "improvement")


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _module_level_imports(module: str):
    """(imported module, imported names) for each top-level import statement."""
    for node in _tree(module).body:
        if isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []


def _assigned_names(module: str) -> set:
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_core_does_not_import_colored():
    for module in CORE:
        for imported, names in _module_level_imports(module):
            assert imported not in (".colored", "turanl2.colored"), module
            assert not (imported in (".", "turanl2") and "colored" in names), module


def test_construction_model_has_one_home():
    modules = [p.stem for p in SRC.glob("*.py")]
    for name in ("Partition3", "CYCLIC_TRIANGLE_TYPES"):
        homes = [m for m in modules if name in _assigned_names(m)]
        assert homes == ["constructions"], (name, homes)


def test_toggle_phases_have_one_home():
    modules = [p.stem for p in SRC.glob("*.py")]
    homes = [m for m in modules if "TOGGLE_PHASES" in _assigned_names(m)]
    assert homes == ["classification"], homes


def _int_literals(module: str) -> list:
    return [
        node.value
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Constant) and type(node.value) is int
    ]


def test_phase_coefficients_are_written_once():
    for path in SRC.glob("*.py"):
        literals = _int_literals(path.stem)
        expected = 1 if path.stem == "classification" else 0
        for coeff in (47, 90):
            assert literals.count(coeff) == expected, (path.stem, coeff)
