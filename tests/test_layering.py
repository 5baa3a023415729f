"""Module layering, read from the source with ``ast``.

The 3-graph core (hypergraph, constructions, classification, improvement)
imports nothing from the colored 2-graph module, and the construction
model's names are assigned in one module only, as is the toggle-phase table
with its two checklist coefficients.  ``formats`` is not in the core: its
``.cg`` reader builds a ``ColoredGraph``.  Block permutations are enumerated
in one routine, sorted edge lists are merged with their edits in one
routine, colored neighbourhoods are rewritten in one routine, the colored
Mantel edge bound and the construction's closed-form l2 polynomial are
written once, and the
construction's closed-form codegree table is handed only to the memo.  The
K4^3 census's branch and bound canonicalizes no node and builds no graph,
and the census no longer reaches for ``completes_k43``.  Every census
searches by covers and closes its classes in one routine, the full scan is
called only by the naive K4^3 method and acceptance criterion 12, and
squares are counted in one routine; one runtime check counts the reference
sweeps per census.  Each acceptance criterion's name and time cap are written
only in the ``CRITERIA`` table, and only ``run_criterion`` reads the clock
there; census reports carry no clock, so ``cmd_census`` is the clock's one
other reader.  The public names that no library module and no benchmark
reaches are a written list, so a helper only tests call shows up here, and
``inequality`` holds the simplex inequality alone, with no 3-graph import.
"""

import ast
from pathlib import Path

import turanl2

SRC = Path(turanl2.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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


def _functions(module: str) -> dict:
    return {
        node.name: node
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.FunctionDef)
    }


def _permutations_calls(node) -> int:
    return sum(
        1
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr == "permutations"
        and isinstance(sub.func.value, ast.Name)
        and sub.func.value.id == "itertools"
    )


def test_block_permutations_have_one_home():
    total = {path.stem: _permutations_calls(_tree(path.stem)) for path in SRC.glob("*.py")}
    assert {m: c for m, c in total.items() if c} == {"hypergraph": 1}
    assert _permutations_calls(_functions("hypergraph")["least_relabeling"]) == 1
    for path in SRC.glob("*.py"):
        assert "canonical_form_pairs" not in _functions(path.stem), path.stem


def test_mantel_edge_bound_is_written_once():
    homes = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(_tree(path.stem)):
            if isinstance(node, ast.Assign) and "5 * n * n" in ast.unparse(node.value):
                homes.append(path.stem)
    assert homes == ["census"], homes


def test_closed_form_l2_has_one_home():
    homes = [
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name, node in _functions(path.stem).items()
        if "(a + d) ** 2" in ast.unparse(node)
    ]
    assert homes == [("constructions", "c_l2_doubled")], homes
    assert _calls_named(_functions("constructions")["c_l2_closed"], "c_l2_doubled") == 1
    reference = _functions("census")["best_construction_value"]
    assert _calls_named(reference, "c_l2_doubled") == 1
    assert _calls_named(reference, "c_l2_closed") == 0


def _calls_named(node, name: str) -> int:
    return sum(
        1
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
        and name in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None))
    )


def test_edge_merge_has_one_body():
    total = {path.stem: _calls_named(_tree(path.stem), "bisect_left") for path in SRC.glob("*.py")}
    assert {m: c for m, c in total.items() if c} == {"hypergraph": 1}
    assert _calls_named(_functions("hypergraph")["edit_sorted"], "bisect_left") == 1


def test_colored_neighbourhoods_are_rewritten_in_one_body():
    functions = _functions("colored")
    adders = {
        name
        for name, node in functions.items()
        if any(
            _calls_named(sub, "with_changes") and any(k.arg == "add" for k in sub.keywords)
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
        )
    }
    assert adders == {"_merge"}
    for name in ("symmetrize", "class_symmetrize", "locally_symmetrize"):
        assert _calls_named(functions[name], "_merge") == 1, name


def _keyword_calls(node, keyword: str) -> int:
    return sum(
        1
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and any(k.arg == keyword for k in sub.keywords)
    )


def test_closed_form_table_is_made_only_for_the_memo():
    makers, receivers = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(_tree(path.stem)):
            if not isinstance(node, ast.FunctionDef):
                continue
            if _calls_named(node, "_cyclic_codegrees"):
                makers.add((path.stem, node.name))
            if _keyword_calls(node, "_codegrees"):
                receivers.add((path.stem, node.name))
    assert makers == {("constructions", "construction")}
    # build_c counts its own table, so criterion 1 stays an independent count
    assert receivers == {("constructions", "construction"), ("hypergraph", "with_changes")}


def test_k43_search_canonicalizes_only_the_maximizers():
    search = _functions("census")["_max_free_subsets"]
    assert _calls_named(search, "canonical_form") == 0
    assert _calls_named(search, "ThreeGraph") == 0
    for imported, names in _module_level_imports("census"):
        assert "completes_k43" not in names, imported


def test_every_census_searches_by_covers_and_closes_classes_in_one_routine():
    functions = _functions("census")
    for name in ("census_k43", "_mantel_exhaustive", "census_tripartite_triangle_free"):
        assert _calls_named(functions[name], "_max_free_subsets") == 1, name
        assert _calls_named(functions[name], "_classes") == 1, name
    scanners = {
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name, node in _functions(path.stem).items()
        if _calls_named(node, "_free_subsets")
    }
    assert scanners == {("census", "census_k43"), ("acceptance", "_tripartite")}
    naive = [
        node
        for node in ast.walk(functions["census_k43"])
        if isinstance(node, ast.If) and ast.unparse(node.test) == "method == 'naive'"
    ]
    assert [sum(_calls_named(stmt, "_free_subsets") for stmt in node.body) for node in naive] == [1]


def _squares_a_name(node) -> bool:
    return any(
        isinstance(sub, ast.BinOp)
        and isinstance(sub.op, ast.Mult)
        and isinstance(sub.left, ast.Name)
        and isinstance(sub.right, ast.Name)
        and sub.left.id == sub.right.id
        for sub in ast.walk(node)
    )


def test_census_squares_are_counted_in_one_routine():
    functions = _functions("census")
    counters = {name for name, node in functions.items() if _calls_named(node, "bit_count")}
    squarers = {name for name, node in functions.items() if _squares_a_name(node)}
    # the outer routine and the value it returns
    assert counters == squarers == {"_square_sum", "square_sum"}


def test_k43_census_sweeps_the_reference_once(monkeypatch):
    from turanl2 import census

    calls = []
    sweep = census.best_construction_value

    def counted(n):
        calls.append(n)
        return sweep(n)

    monkeypatch.setattr(census, "best_construction_value", counted)
    for method in ("canonical", "naive"):
        calls.clear()
        census.census_k43(5, method)
        assert calls == [5], method


def test_acceptance_criteria_are_declared_once():
    tree = _tree("acceptance")
    [table] = [
        node for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "CRITERIA"
    ]
    records = [node for node in ast.walk(table.value) if isinstance(node, ast.Call)]
    names = {call.args[0].value for call in records}
    caps = {kw.value.value for call in records for kw in call.keywords if kw.arg == "cap"}
    assert len(records) == len(names) == 12 and caps == {60, 300, 10}
    inside = {id(node) for node in ast.walk(table)}
    outside = [node for node in ast.walk(tree) if id(node) not in inside]
    constants = [node.value for node in outside if isinstance(node, ast.Constant)]
    assert not [value for value in constants if isinstance(value, str) and value in names]
    # a cap is judged and reported only by run_criterion, through the record
    compared = [c for node in outside if isinstance(node, ast.Compare) for c in node.comparators]
    assert not [ast.unparse(c) for c in compared if isinstance(c, ast.Constant) and c.value in caps]
    functions = _functions("acceptance")
    reporters = {
        name
        for name, node in functions.items()
        if any(isinstance(sub, ast.Constant) and "; cap " in str(sub.value) for sub in ast.walk(node))
    }
    assert reporters == {"run_criterion"}
    assert _calls_named(tree, "monotonic") == _calls_named(functions["run_criterion"], "monotonic") == 2
    # the smoke scales come from the table too
    suite = [node.value for node in ast.walk(functions["run_suite"]) if isinstance(node, ast.Constant)]
    assert not [value for value in suite if type(value) is int]


def test_census_reports_carry_no_clock():
    readers = {
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name, node in _functions(path.stem).items()
        if _calls_named(node, "monotonic")
    }
    assert readers == {("acceptance", "run_criterion"), ("cli", "cmd_census")}
    assert all(imported != "time" for imported, _ in _module_level_imports("census"))
    [report] = [
        node for node in _tree("census").body
        if isinstance(node, ast.ClassDef) and node.name == "CensusReport"
    ]
    fields = [node for node in report.body if isinstance(node, ast.AnnAssign)]
    assert fields and not [ast.unparse(f) for f in fields if ast.unparse(f.annotation) == "float"]


def _public_definitions() -> dict:
    """Qualified name -> bare name of every public module-level function and
    class, and every public method, in ``src/turanl2``."""
    found = {}
    for path in SRC.glob("*.py"):
        for node in _tree(path.stem).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
    return found


def _referenced_names(tree: ast.AST) -> set:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_public_names_no_library_module_or_benchmark_reaches_are_listed():
    referenced = set()
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            referenced |= _referenced_names(_tree(path.stem))
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        referenced |= _referenced_names(tree)
        if path.name == "run.py":
            # traced spans name their targets as "module:qualname" strings
            for node in ast.walk(tree):
                value = node.value if isinstance(node, ast.Constant) else None
                if isinstance(value, str) and value.startswith("turanl2.") and ":" in value:
                    referenced.update(value.partition(":")[2].split("."))
    unreached = {qualified for qualified, name in _public_definitions().items() if name not in referenced}
    assert unreached == {
        "colored.DirectedView.longest_directed_path",
        "colored.class_symmetrize",
        "colored.degree_sum_on_path",
        "colored.is_locally_maximal",
        "colored.is_locally_symmetrized",
        "colored.rho3",
        "colored.symmetrize",
        "hypergraph.Graph.has_edge",
        "hypergraph.ThreeGraph.has_edge",
        "hypergraph.link",
        "hypergraph.shadow",
        "improvement.build_queues",
        "inequality.margin",
    }


def test_inequality_imports_nothing_from_hypergraph():
    imported = set()
    for node in ast.walk(_tree("inequality")):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported == {"__future__", "dataclasses", "fractions", "typing", ".errors"}
