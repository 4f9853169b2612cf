"""No module of the package imports a name it does not use, and no
private module-level name goes unreferenced.

Each module under src/wavechain is parsed with `ast`.  A name bound by an
import counts as used when it is read anywhere in the module (an
attribute read `np.zeros` reads `np`), when a quoted annotation names it,
or when the module re-exports it through `__all__`.  A private function,
class or constant defined at module level counts as referenced when some
module of the package reads it, reads it as an attribute
(`core._vec_mat`) or imports it; a name only tests read is dead code.
`DENSE_LIMIT` is read in `core` alone, once, by `core._densifiable`;
`__init__` may import it to re-export it, and no other module imports it.
`_EIGEN_REPORT_LIMIT` is read in `core` alone, by
`core._reports_eigenvalues`.  `core._densifiable` is called in four
places: in `MarkovKernel.dense`, the one refusal of a kernel for its
size, and for the stationary solve's start, the SVD path and
wave-profile's TV line.  The one graph search,
`spectral._search_levels`, is called only by `spectral._period_or_none`
and `spectral._closed_class`.  No module calls `weighted_singular_values`:
every singular value the package uses comes from
`spectral._singular_values`, and `merging` builds no step kernel's full
decomposition, wave measure or window product.  A structural answer is
a value, not an exception: the only `except` clause that names a class of
`wavechain.errors` is `cli.main`'s catch-all.  `cli` is the one writer of
output files: no other module imports `csv` or `io`, only `cli` and
`interchange` (the kernel documents) import `json`, and no other module
defines a CSV writer or a report document.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavechain"


def imported_names(tree: ast.Module) -> dict:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for note in annotations:
        for part in ast.walk(note) if note is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.parse(part.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    return sorted(
        f"{path.name}:{line} {name}"
        for name, line in imported_names(tree).items()
        if name not in used
    )


def private_definitions(tree: ast.Module) -> dict:
    """Each private name a module-level def, class or assignment binds,
    with its line; dunder names are not private."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def referenced_names(tree: ast.Module) -> set:
    """Names a module reads, reads as an attribute, or imports."""
    names = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_names(paths) -> list:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    return sorted(
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in referenced
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom typing import Optional\n"
        "from .core import A, B\n"
        "__all__ = ['B']\n"
        "def f(x: 'Optional[int]') -> np.ndarray:\n"
        "    return x\n"
    )
    assert unused_imports(module) == ["mod.py:2 os", "mod.py:5 A"]


def test_no_private_module_name_goes_unreferenced():
    assert unreferenced_private_names(sorted(PACKAGE.glob("*.py"))) == []


def test_the_check_sees_an_unreferenced_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n_UNUSED: int = 4\n__version__ = '1'\n"
        "def _helper():\n    return _LIMIT\n"
        "class _Gone:\n    pass\n"
        "def _read_elsewhere():\n    pass\n"
        "def _imported():\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import _imported\n"
        "_local = a._read_elsewhere\n"
        "def f():\n    return a._helper(), _local\n"
    )
    assert unreferenced_private_names(sorted(tmp_path.glob("*.py"))) == [
        "a.py:2 _UNUSED", "a.py:6 _Gone"
    ]


def limit_reads(paths, limit) -> list:
    """Each read of the constant `limit`, as "module:line": a name read,
    an attribute read or an import; `__init__`'s import, a re-export, is
    not one."""
    reads = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                hit = any(alias.name == limit for alias in node.names)
            else:
                hit = (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                       or isinstance(node, ast.Attribute)) and limit in (
                    getattr(node, "id", None), getattr(node, "attr", None))
            if hit:
                reads.append(f"{path.stem}:{node.lineno}")
    return reads


def assert_only_the_core_predicate_reads(limit, predicate):
    reads = limit_reads(sorted(PACKAGE.glob("*.py")), limit)
    assert [read.split(":")[0] for read in reads] == ["core"]
    tree = ast.parse((PACKAGE / "core.py").read_text())
    found = next(f for f in tree.body if getattr(f, "name", None) == predicate)
    assert found.lineno <= int(reads[0].split(":")[1]) <= found.end_lineno


def test_only_the_core_predicate_reads_the_dense_limit():
    assert_only_the_core_predicate_reads("DENSE_LIMIT", "_densifiable")


def test_only_the_core_predicate_reads_the_eigen_report_limit():
    assert_only_the_core_predicate_reads("_EIGEN_REPORT_LIMIT", "_reports_eigenvalues")


def test_the_check_sees_a_planted_dense_limit_read(tmp_path):
    (tmp_path / "core.py").write_text(
        "DENSE_LIMIT = 4\ndef _densifiable(k):\n    return k.size <= DENSE_LIMIT\n"
    )
    (tmp_path / "__init__.py").write_text(
        "from .core import DENSE_LIMIT\n__all__ = ['DENSE_LIMIT']\n"
    )
    (tmp_path / "spectral.py").write_text(
        "from . import core\nfrom .core import DENSE_LIMIT, _densifiable\n"
        "def f(k):\n    return _densifiable(k) and k.size < core.DENSE_LIMIT\n"
    )
    assert limit_reads(sorted(tmp_path.glob("*.py")), "DENSE_LIMIT") == [
        "core:3", "spectral:2", "spectral:4"
    ]


def test_the_check_sees_a_planted_eigen_report_limit_read(tmp_path):
    (tmp_path / "core.py").write_text(
        "_EIGEN_REPORT_LIMIT = 4\n"
        "def _reports_eigenvalues(k):\n    return k.size <= _EIGEN_REPORT_LIMIT\n"
    )
    (tmp_path / "cli.py").write_text(
        "from . import core\nfrom .core import _EIGEN_REPORT_LIMIT\n"
        "def f(k):\n    return k.size <= core._EIGEN_REPORT_LIMIT\n"
    )
    assert limit_reads(sorted(tmp_path.glob("*.py")), "_EIGEN_REPORT_LIMIT") == [
        "cli:2", "cli:4", "core:3"
    ]


def calls(paths, name) -> list:
    """Each call of the function `name`, as "module:line": by its name, by
    a name an import binds to it, or as an attribute."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {name} | {
            alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name == name and alias.asname
        }
        found += [
            f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and bound & {
                getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        ]
    return found


def test_no_module_calls_weighted_singular_values():
    assert calls(sorted(PACKAGE.glob("*.py")), "weighted_singular_values") == []


def test_the_check_sees_a_planted_weighted_singular_values_call(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .spectral import weighted_singular_values\n"
        "__all__ = ['weighted_singular_values']\n"
    )
    (tmp_path / "spectral.py").write_text(
        "def weighted_singular_values(k):\n    return k\n"
        "def f(k):\n    return weighted_singular_values(k)\n"
    )
    (tmp_path / "merging.py").write_text(
        "from . import spectral\nfrom .spectral import weighted_singular_values as svd\n"
        "def g(k):\n    return svd(k), spectral.weighted_singular_values(k)\n"
    )
    assert calls(sorted(tmp_path.glob("*.py")), "weighted_singular_values") == [
        "merging:4", "merging:4", "spectral:4"
    ]


def calling_functions(paths, name) -> set:
    """The module-level function or method around each call of `name`, as
    "module.function" or "module.Class.method", or "module" for a call
    outside every function."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [([f.name], f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        scopes += [([c.name, f.name], f) for c in tree.body if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)]
        for site in calls([path], name):
            line = int(site.split(":")[1])
            outer = [n for names, f in scopes if f.lineno <= line <= f.end_lineno
                     for n in names]
            found.add(".".join([path.stem] + outer))
    return found


def test_one_graph_search_decides_strong_connectivity():
    # irreducibility and the period, and on a reducible kernel its closed
    # class: no other function searches the support graph
    assert calling_functions(sorted(PACKAGE.glob("*.py")), "_search_levels") == {
        "spectral._period_or_none", "spectral._closed_class"
    }


def test_the_check_sees_a_planted_second_graph_search(tmp_path):
    (tmp_path / "spectral.py").write_text(
        "def _search_levels(n, t, h, s):\n    return n\n"
        "def _period_or_none(k):\n    return _search_levels(k, 0, 0, 0)\n"
        "def _shifted_stationary_weights(k):\n    return _search_levels(k, 0, 0, 0)\n"
    )
    (tmp_path / "models.py").write_text(
        "from . import spectral\nLEVELS = spectral._search_levels(1, 0, 0, 0)\n"
    )
    assert calling_functions(sorted(tmp_path.glob("*.py")), "_search_levels") == {
        "models", "spectral._period_or_none", "spectral._shifted_stationary_weights"
    }


# The dense view refuses a kernel for its size; the other three calls pick
# an algorithm.  wave-profile's TV line stays gated while the wave measure
# of a circle above 4096 points raises NotConverged.
DENSIFIABLE_CALLERS = {
    "core.MarkovKernel.dense",
    "spectral._shifted_stationary_weights",
    "spectral._avatar",
    "cli._cmd_wave_profile",
}


def test_the_size_decision_is_made_in_four_places():
    paths = sorted(PACKAGE.glob("*.py"))
    assert calling_functions(paths, "_densifiable") == DENSIFIABLE_CALLERS
    assert len(calls(paths, "_densifiable")) == len(DENSIFIABLE_CALLERS)


def test_the_check_sees_a_planted_size_decision(tmp_path):
    (tmp_path / "core.py").write_text(
        "def _densifiable(k):\n    return k.size <= 4\n"
        "class MarkovKernel:\n    def dense(self):\n        return _densifiable(self)\n"
    )
    (tmp_path / "merging.py").write_text(
        "from . import core\nfrom .core import _densifiable as fits\n"
        "def merging_time(s):\n    return fits(s.base), core._densifiable(s.base)\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert calling_functions(paths, "_densifiable") == {
        "core.MarkovKernel.dense", "merging.merging_time"
    }
    assert calls(paths, "_densifiable") == ["core:5", "merging:4", "merging:4"]


def test_merging_imports_no_step_by_step_builder():
    # the product bound and the point measure read the shifted kernel
    tree = ast.parse((PACKAGE / "merging.py").read_text())
    builders = {"weighted_singular_values", "wave_measures", "compose_window"}
    assert builders.isdisjoint(imported_names(tree))


def error_classes(path: Path) -> set:
    """The classes a module defines at its top level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _handled(node, where):
    """(function, class) for each class an except clause under node names,
    the function being the innermost def around the clause."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _handled(child, child.name)
            continue
        if isinstance(child, ast.ExceptHandler) and child.type is not None:
            caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
            for t in caught:
                yield where, getattr(t, "id", None) or getattr(t, "attr", None)
        yield from _handled(child, where)


def error_handlers(paths, classes) -> list:
    """Each except clause naming one of `classes`, as "module:function class"."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.stem}:{where} {name}" for where, name in _handled(tree, "<module>")
                  if name in classes]
    return sorted(found)


def test_only_the_catch_all_catches_a_package_error():
    classes = error_classes(PACKAGE / "errors.py")
    assert error_handlers(sorted(PACKAGE.glob("*.py")), classes) == ["cli:main WavechainError"]


def test_the_check_sees_a_planted_error_handler(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Base(Exception):\n    pass\nclass Missing(Base):\n    pass\n"
    )
    (tmp_path / "mod.py").write_text(
        "from . import errors\nfrom .errors import Missing\n"
        "try:\n    pass\nexcept Missing:\n    pass\n"
        "def f():\n"
        "    def g():\n        try:\n            pass\n"
        "        except (ValueError, errors.Base):\n            pass\n"
        "    try:\n        g()\n    except ValueError:\n        pass\n"
        "    except:\n        pass\n"
    )
    classes = error_classes(tmp_path / "errors.py")
    assert error_handlers(sorted(tmp_path.glob("*.py")), classes) == [
        "mod:<module> Missing", "mod:g Base"
    ]


def importers(paths, module) -> list:
    """The modules that import the top-level module `module`, by `import`
    or by `from ... import`."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        named = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        named += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 0]
        if module in {name.split(".")[0] for name in named}:
            found.append(path.stem)
    return found


# documents that carry a kernel or a map, not a result
INTERCHANGE_DOCUMENTS = {
    "kernel_document", "kernel_from_document", "permutation_document", "permutation_from_document"
}


def output_formatters(paths) -> list:
    """Each function or method outside `cli` that formats an output file, as
    "module:line name": a CSV writer (`_csv_text`, `to_csv`) or a report
    document (a name ending in "document"), `interchange`'s own excepted."""
    found = []
    for path in paths:
        if path.stem == "cli":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if path.stem == "interchange" and node.name in INTERCHANGE_DOCUMENTS:
                continue
            if node.name in ("_csv_text", "to_csv") or node.name.endswith("document"):
                found.append(f"{path.stem}:{node.lineno} {node.name}")
    return sorted(found)


def test_the_cli_alone_formats_output_files():
    paths = sorted(PACKAGE.glob("*.py"))
    assert importers(paths, "csv") == importers(paths, "io") == ["cli"]
    assert importers(paths, "json") == ["cli", "interchange"]
    assert output_formatters(paths) == []


def test_the_check_sees_a_planted_output_format(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import csv\nimport io\nfrom json.encoder import encode_basestring_ascii\n"
        "def _csv_text(h, rows):\n    return h\n"
        "def _spectral_document(k):\n    return {}\n"
    )
    (tmp_path / "interchange.py").write_text(
        "import json\ndef kernel_document(k):\n    return {}\n"
        "def kernel_from_document(d):\n    return d\n"
    )
    (tmp_path / "merging.py").write_text(
        "from io import StringIO\nclass Report:\n"
        "    def to_document(self):\n        return {}\n"
        "    def to_csv(self):\n        return StringIO().getvalue()\n"
    )
    (tmp_path / "spectral.py").write_text(
        "import json.decoder\nfrom .interchange import kernel_document\n"
        "def spectral_report_document(k):\n    return kernel_document(k)\n"
        "def _csv_text(h, rows):\n    return h\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert importers(paths, "csv") == ["cli"]
    assert importers(paths, "io") == ["cli", "merging"]
    assert importers(paths, "json") == ["cli", "interchange", "spectral"]
    assert output_formatters(paths) == [
        "merging:3 to_document", "merging:5 to_csv",
        "spectral:3 spectral_report_document", "spectral:5 _csv_text",
    ]
