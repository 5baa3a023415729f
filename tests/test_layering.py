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
squares are counted, in full and by differences, in one routine; one
runtime check counts the reference sweeps per census.  Each acceptance
criterion's name and time cap are written only in the ``CRITERIA`` table,
and only ``run_criterion`` reads the clock there; census reports carry no
clock, so ``cmd_census`` is the clock's one other reader.  The public names
that no library module and no benchmark reaches are a written list, so a
helper only tests call shows up here; every perfbench trace target and
import resolves; every error class is raised or is the base of one that is;
and ``inequality`` holds the simplex inequality alone, with no 3-graph
import.
"""

import ast
import importlib
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
    assert _calls_named(functions["locally_symmetrize"], "_merge") == 1


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
    # the outer routine counts the whole set in full, the drop it returns
    # counts each branch's difference
    assert counters == {"_square_sum", "drop"}
    assert squarers == {"_square_sum"}
    # only the cover search takes a value from it, and no census hands the
    # search a popcount of its own
    callers = {name for name, node in functions.items() if _calls_named(node, "_square_sum")}
    assert callers == {"_max_free_subsets"}
    popcounts = [
        node for node in ast.walk(_tree("census"))
        if isinstance(node, ast.Attribute) and node.attr == "bit_count"
    ]
    assert len(popcounts) == _calls_named(functions["_square_sum"], "bit_count") == 2


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


def _package_imports(tree: ast.AST):
    """(home, name, local name) for each name imported from ``turanl2``:
    home is the module it is read from, "" for the package itself."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            home = node.module or ""
        elif node.level == 0 and node.module and node.module.split(".")[0] == "turanl2":
            home = node.module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            yield home, alias.name, alias.asname or alias.name


def _trace_targets(tree: ast.AST) -> list:
    """The ``"turanl2.module:qualname"`` strings in a perfbench module."""
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("turanl2.")
        and ":" in node.value
    ]


def _reached_functions(functions: set) -> set:
    """The public module-level functions (``module.name``) that a library
    module or perfbench reaches: the home module uses the name, another
    library module imports it from its home and uses it (also as
    ``alias.name`` after importing the home as ``alias``), or perfbench
    imports it or names it in a trace target."""
    reached = set()
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = _tree(path.stem)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        reached |= {f"{path.stem}.{name}" for name in names}
        attributes = {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        }
        for home, name, local in _package_imports(tree):
            if home and local in names:
                reached.add(f"{home}.{name}")
            elif not home:  # the module itself, used as local.attribute
                reached |= {f"{name}.{attr}" for owner, attr in attributes if owner == local}
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        for home, name, _ in _package_imports(tree):
            if home:
                reached.add(f"{home}.{name}")
            else:
                reached |= {f for f in functions if f.rpartition(".")[2] == name}
        for target in _trace_targets(tree):
            module, _, qualname = target.partition(":")
            reached.add(f"{module.partition('.')[2]}.{qualname}")
    return reached & functions


def test_public_names_no_library_module_or_benchmark_reaches_are_listed():
    """A public module-level function counts as reached only by the routes
    ``_reached_functions`` lists.  Methods and classes are still matched by
    bare name against every name a library or perfbench module mentions, so
    a method that shares its name with one in use (``ThreeGraph.degree``
    beside ``Graph.degree``) passes unseen and must be found by hand."""
    referenced = set()
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            referenced |= _referenced_names(_tree(path.stem))
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        referenced |= _referenced_names(tree)
        for target in _trace_targets(tree):
            referenced.update(target.partition(":")[2].split("."))
    definitions = _public_definitions()
    functions = {
        f"{path.stem}.{node.name}"
        for path in SRC.glob("*.py")
        for node in _tree(path.stem).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    reached = _reached_functions(functions)
    unreached = {
        qualified
        for qualified, name in definitions.items()
        if (qualified not in reached if qualified in functions else name not in referenced)
    }
    assert unreached == {"inequality.margin"}


def test_perfbench_targets_and_imports_exist():
    """Every ``SPANS`` and ``COUNTS`` target in ``perfbench/run.py`` resolves
    the way ``Tracer.install`` resolves it, and every name ``run.py`` and
    ``workloads.py`` import from ``turanl2`` exists; a traced benchmark run
    would otherwise die on a deleted library name."""
    run = ast.parse((PERFBENCH / "run.py").read_text())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in run.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTS")
    }
    assert tables.keys() == {"SPANS", "COUNTS"}
    for target, _ in tables["SPANS"] + tables["COUNTS"]:
        module, _, qualname = target.partition(":")
        owner = importlib.import_module(module)
        cls_name, _, attr = qualname.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            assert cls is not None and attr in vars(cls), target
        else:
            assert callable(getattr(owner, attr, None)), target
    for name in ("run.py", "workloads.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        for home, imported, _ in _package_imports(tree):
            module = importlib.import_module(f"turanl2.{home}" if home else "turanl2")
            assert hasattr(module, imported), (name, home, imported)


def test_every_error_class_is_raised_or_is_the_base_of_one_that_is():
    bases = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for node in _tree("errors").body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(_tree(path.stem)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    live, frontier = set(), list(raised & bases.keys())
    while frontier:
        name = frontier.pop()
        if name not in live:
            live.add(name)
            frontier += bases[name] & bases.keys()
    assert bases.keys() - live == set()


def test_inequality_imports_nothing_from_hypergraph():
    imported = set()
    for node in ast.walk(_tree("inequality")):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported == {"__future__", "dataclasses", "fractions", "typing", ".errors"}
