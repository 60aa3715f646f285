import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _run(args):
    return subprocess.run(
        [sys.executable, "-m", "quadconc", *args], capture_output=True, text=True,
    )


def test_module_entry_point(tmp_path):
    # the unit square, then a 5,000-digit one: each runs in a fresh process,
    # where no earlier ``main`` has lifted the interpreter's 4,300-digit
    # limit, so ``main`` has to lift it itself
    for side in ("1", "1" + "0" * 4999):
        doc = {
            "vertices": {"A": ["0", "0"], "B": [side, "0"], "C": [side, side],
                         "D": ["0", side]},
            "ratios": {"m": "1", "n": "1", "p": "1", "q": "1"},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = _run(["verify", str(path)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["overall"] in ("pass", "degenerate")


def test_no_ignored_file_is_tracked():
    # a generated or ignored file that is committed anyway (a build
    # artefact, a run log) goes stale the moment its source changes
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("needs a git checkout")
    proc = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=REPO, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == ""


def test_every_error_subclass_is_caught_by_name():
    # a subclass of GeometryError earns its place only while some ``except``
    # in the package tells it apart, by name or through a module-level tuple
    # such as ``cli._INVALID_INPUT``
    src = REPO / "src" / "quadconc"
    errors = ast.parse((src / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    caught = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tuples = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                  for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                handled = node.type
                if isinstance(handled, ast.Name) and handled.id in tuples:
                    handled = tuples[handled.id]
                caught |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(handled)
                           if isinstance(n, (ast.Name, ast.Attribute))}
    assert classes - {"GeometryError"} - caught == set()


def _importers(module: str) -> set[str]:
    """The files of ``src/quadconc`` with an import statement of ``module``."""
    importers = set()
    for path in (REPO / "src" / "quadconc").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == module for name in names):
                importers.add(path.name)
    return importers


def test_only_generators_imports_dataclasses():
    # the named tuples keep dataclasses off every other import path; GenSpec
    # stays a dataclass while perfbench/workloads.py copies a spec with
    # dataclasses.replace(spec, force_gamma_one=...)
    importers = _importers("dataclasses")
    assert importers == {"generators.py"}, (
        "only generators.py (GenSpec, which perfbench copies with dataclasses.replace) "
        f"may import dataclasses; found {sorted(importers)}")


def test_only_instancefile_reads_the_instance_keys():
    # instancefile writes the instance layout once, in instance_text, and
    # parses it; a second reader of its key tuples would be a second writer
    names = {"VERTEX_KEYS", "POINT_KEYS", "RATIO_KEYS"}
    readers = set()
    for path in (REPO / "src" / "quadconc").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                read = {node.name, node.asname}
            elif isinstance(node, ast.Name):
                read = {node.id}
            elif isinstance(node, ast.Attribute):
                read = {node.attr}
            else:
                continue
            if read & names:
                readers.add(path.name)
    assert readers == {"instancefile.py"}, (
        f"only instancefile.py may read the instance keys; found {sorted(readers)}")


def test_only_report_writes_the_report_keys():
    # report.py writes a report one way, in its layouts; a second place that
    # names a report's keys would be a second writer, or a tree built by hand
    keys = ("claim", "status", "detail", "witness", "exact_values", "degeneracies", "verdicts")
    found = {key: [] for key in keys}
    for path in sorted((REPO / "src" / "quadconc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in found:
                found[node.value].append(path.name)
    assert found == {key: ["report.py"] for key in keys}


def test_each_equality_and_selection_is_written_once():
    # Point and Line share one equality, and the claim ids and the figure
    # layers one selection rule; a second copy of either would drift
    src = REPO / "src" / "quadconc"
    kernel = ast.parse((src / "kernel.py").read_text(encoding="utf-8"))
    defined = [node.name for node in ast.walk(kernel) if isinstance(node, ast.FunctionDef)]
    assert [defined.count(name) for name in ("__eq__", "__hash__", "_wrap")] == [1, 1, 1]
    selectors = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("select_"):
                body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) \
                    else None
                assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name) \
                    and call.func.id == "select", f"{path.name}: {node.name}"
                selectors.append(node.name)
    assert selectors == ["select_layers", "select_claims"]


def test_verifiers_decide_and_write_no_value():
    # the checks store exact values as pairs and the report writes them, so
    # the checks run unchanged on polynomial pairs; no module state either
    tree = ast.parse((REPO / "src" / "quadconc" / "verifiers.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Global), f"global statement at line {node.lineno}"
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    assert names & {"rational_text", "gamma_text", "_last_gamma"} == set()


def test_verifiers_read_no_builder_flag():
    # the builder's flags and the verdicts' reasons share one vocabulary, but
    # each check finds its own reasons in the stored triples
    tree = ast.parse((REPO / "src" / "quadconc" / "verifiers.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr != "degeneracies", f"flag read at line {node.lineno}"
        elif isinstance(node, ast.alias):
            assert node.name != "DIAGONAL_FLAGS", f"flag import at line {node.lineno}"


def test_no_module_imports_fractions():
    # every rational is an integer (num, den) pair and every point a
    # canonical integer triple; only the tests read and write Fractions
    assert _importers("fractions") == set()


def test_cli_import_loads_neither_fractions_nor_decimal():
    # fractions imports decimal, and the figures round in integers
    code = ("import sys, quadconc.cli\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# public names that no module of the package and no benchmark script
# reaches, each kept on purpose; everything else earns its place by a caller
_UNCALLED_ON_PURPOSE = {
    "cli.entry": "the console script pyproject.toml installs",
}


def _public_definitions(path: Path):
    """``(qualified name, name, is method, first line, last line)`` of every
    public module-level function and class of ``path``, and every public
    method."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name, False, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield (f"{path.stem}.{node.name}.{item.name}", item.name, True,
                           item.lineno, item.end_lineno)


def _references(path: Path, strings: bool = False):
    """``(name, is attribute, line)`` of every name and attribute that
    ``path`` reads, and with ``strings`` every string constant, such as a
    name in ``microops.OPS``, as a name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, True, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, False, node.lineno


def _uncalled(bench: set[str], src: Path = REPO / "src" / "quadconc") -> set[str]:
    """The qualified public names of the package in ``src`` that no module
    reaches, other than those named in ``bench``: no module reads the name,
    the ``__init__`` re-exports aside, except inside its own definition or
    inside the definition of a name that is itself not reached.  A method is
    read only as an attribute, so a local variable of its name does not
    count; a module-level name is read as a name or as an attribute."""
    modules = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    refs = [(path, *ref) for path in modules for ref in _references(path)]
    defs = [(path, *definition) for path in modules for definition in _public_definitions(path)
            if definition[0] not in _UNCALLED_ON_PURPOSE and definition[1] not in bench]
    uncalled: set[str] = set()
    while True:
        dead = [(path, first, last) for path, qualified, _, _, first, last in defs
                if qualified in uncalled]
        live = [(path, ref, attribute, line) for path, ref, attribute, line in refs
                if not any(path == p and first <= line <= last for p, first, last in dead)]
        found = {qualified for path, qualified, name, method, first, last in defs
                 if not any(ref == name and (attribute or not method)
                            and (other != path or not first <= line <= last)
                            for other, ref, attribute, line in live)}
        if found == uncalled:
            return found
        uncalled = found


def test_a_method_is_reached_only_as_an_attribute(tmp_path):
    # a local variable that shares a method's name reads nothing of the
    # method; a module-level function is reached by its name or as an
    # attribute, and a method as an attribute
    (tmp_path / "shapes.py").write_text(
        "class Shape:\n"
        "    def text(self):\n"
        "        return ''\n"
        "    def area(self):\n"
        "        return 0\n"
        "def helper():\n"
        "    return 1\n"
        "def label(shape):\n"
        "    text = str(helper())\n"
        "    return text + str(shape.area())\n", encoding="utf-8")
    (tmp_path / "use.py").write_text("import shapes\nprint(shapes.label)\n", encoding="utf-8")
    assert _uncalled(set(), tmp_path) == {"shapes.Shape", "shapes.Shape.text"}


def test_every_public_name_has_a_caller():
    # a public name that neither a command nor the benchmark reaches is
    # surface kept for the tests alone; the __init__ re-exports do not
    # count, and a name read anywhere else does (the cmd_* handlers are
    # read where build_parser passes them to set_defaults)
    bench = {name for path in (REPO / "perfbench").glob("*.py")
             for name, _, _ in _references(path, strings=True)}
    uncalled = _uncalled(bench)
    assert not uncalled, f"public names with no caller: {', '.join(sorted(uncalled))}"


# the public names that only perfbench reaches: microops.py times the
# kernel's Point and Line functions and the pure kernel's cross3 on operands
# it harvests through named_points, workloads.py reads point triples through
# named_points and patches cli.degenerate_report, no command makes a Point or
# a Line, and the checks take their cross products inline
_BENCHMARK_ONLY = {
    "_purekernel.cross3",
    "configuration.Configuration.named_points", "kernel.Line", "kernel.Point",
    "kernel.Point.is_ideal", "kernel.Point.triple", "kernel.affine_parameter",
    "kernel.collinear", "kernel.directed_ratio", "kernel.line_through", "kernel.meet",
    "kernel.point_dividing", "report.degenerate_report",
}


def test_benchmark_only_surface_is_pinned():
    # a name leaves this set when a command starts to call it or the
    # benchmark stops, and the name then goes from src/ with it
    assert _uncalled(set()) == _BENCHMARK_ONLY


def test_readme_names_the_benchmark_only_surface():
    # README § Kernel's *Library surface* paragraph lists the same names;
    # a name counts as listed when a code span there is its dotted suffix
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    start = readme.index("*Library surface.*")
    spans = re.findall(r"`([\w.]+)`", readme[start:readme.index("\n- ", start)])
    unnamed = {name for name in _BENCHMARK_ONLY
               if not any(name == span or name.endswith("." + span) for span in spans)}
    assert not unnamed, f"README's library surface omits {', '.join(sorted(unnamed))}"
