"""Layout rules of the package source that no behaviour test would notice."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import gausspseudo

census = importlib.import_module("gausspseudo.census")

SOURCES = sorted(Path(gausspseudo.__file__).parent.glob("*.py"))

# (file, module, name) of each private import the package permits: none.
ALLOWED_PRIVATE_IMPORTS = set()


def private_imports(path):
    """(file, module, name) for each private name imported from the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("gausspseudo"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield path.name, module.rpartition(".")[2], alias.name


def test_sources_found():
    assert {"census.py", "fermat.py", "residues.py"} <= {p.name for p in SOURCES}


def test_no_private_name_crosses_modules():
    found = {hit for path in SOURCES for hit in private_imports(path)}
    assert found <= ALLOWED_PRIVATE_IMPORTS, sorted(found - ALLOWED_PRIVATE_IMPORTS)


def test_imaginary_form_shares_no_code_with_the_main_path():
    """gaussian_fermat_im_test runs a ladder of its own: it names neither
    the main path nor the main path's raw ladder."""
    source = next(path for path in SOURCES if path.name == "fermat.py")
    (im_test,) = [
        node
        for node in ast.parse(source.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "gaussian_fermat_im_test"
    ]
    assert not {"_pow_components", "ratio_power_is_one"} & set(_used_names(im_test))


def imported_modules(tree):
    """The module of each import in tree, a relative one with its dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_oracles_import_nothing_from_the_package():
    """tests/oracle_utils.py checks the package only while it shares no
    code with it: no import of gausspseudo, and no relative import."""
    tree = ast.parse((Path(__file__).parent / "oracle_utils.py").read_text(encoding="utf-8"))
    modules = list(imported_modules(tree))
    assert modules
    assert not [m for m in modules if m.startswith((".", "gausspseudo"))], modules


def _is_literal_2_63(node):
    """1 << 63 or 2 ** 63 written out as code."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.right, ast.Constant)):
        return False
    pair = (getattr(node.left, "value", None), node.right.value)
    return (isinstance(node.op, ast.LShift) and pair == (1, 63)) or (
        isinstance(node.op, ast.Pow) and pair == (2, 63)
    )


def test_domain_rule_has_one_home():
    """The bound 2**63 is written only in arith.py, whose check_domain is
    the one check of 2 <= n < 2**63; no module grows its own _check_*."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name != "arith.py" and _is_literal_2_63(node):
                found.append((path.name, node.lineno, ast.unparse(node)))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_"):
                found.append((path.name, node.lineno, node.name))
    assert not found, found


def census_functions():
    """The module-level functions of census.py, by name."""
    source = next(path for path in SOURCES if path.name == "census.py")
    tree = ast.parse(source.read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


TABLE_BUILDER_SUFFIXES = ("_orders", "_bounds", "_witness")


def test_kernels_build_no_tables():
    """Order tables and large-prime rules are built once per query, in the
    parent: no block kernel of census.py names a function of census.py
    whose name ends in one of TABLE_BUILDER_SUFFIXES."""
    functions = census_functions()
    builders = {name for name in functions if name.endswith(TABLE_BUILDER_SUFFIXES)}
    assert {"_unit_orders", "_large_prime_bounds"} <= builders
    kernels = [node for name, node in functions.items() if name.endswith("_kernel")]
    assert kernels
    found = [
        (kernel.name, node.lineno, node.id)
        for kernel in kernels
        for node in ast.walk(kernel)
        if isinstance(node, ast.Name) and node.id in builders
    ]
    assert not found, found


def test_one_large_prime_rule():
    """Every sieved test states its large-prime rule through one function,
    given the test's witness."""
    assert [name for name in census_functions() if name.endswith("_bounds")] == [
        "_large_prime_bounds"
    ]


CACHE_DECORATORS = {"lru_cache", "cache"}


def _decorator_name(node):
    """lru_cache for @lru_cache, @lru_cache(...) and @functools.lru_cache(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_one_cache():
    """Caches are out of scope: factorize's is the only one in the package."""
    found = [
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_decorator_name(d) in CACHE_DECORATORS for d in node.decorator_list)
    ]
    assert set(found) <= {("arith.py", "factorize")}, found


def test_factorize_only_for_what_the_sieves_leave():
    """The census functions that name _factorize are the column sieve, for
    the cofactors its primes leave above 2**32, and the confirm of the
    survivors of a sieve: no exact scan factors every n of its range."""
    source = next(path for path in SOURCES if path.name == "census.py")
    found = {
        node.name
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "_factorize" for n in ast.walk(node))
    }
    assert found == {"_multiplicative_batch", "_factored_confirm"}


def test_batch_entries_name_the_columns_their_rules_read():
    """Every exact scan asks _multiplicative_batch for one column per
    argument of its rule after n, and only for columns the batch has;
    lambda_G is a column of the odd n only."""
    batch_entries = {
        name: (entry, params)
        for name, entry in census._CLASS_SEARCHES.items()
        for kernel, params in [entry.build(2, 1000)]
        if kernel is census._batch_kernel
    }
    assert set(batch_entries) == {"g_cyclic", "congruence_exception", "giuga"}
    for name, (entry, (columns, rule)) in batch_entries.items():
        assert set(columns) <= {"phi", "lam", "d"}, name
        assert len(columns) == len(inspect.signature(rule).parameters) - 1, name
        assert "lam" not in columns or entry.odd_only, name


FACTORED_CLASSES = ("g_carmichael", "g_lehmer", "carmichael", "williams_1")


def test_one_korselt_path_per_factored_class(monkeypatch):
    """Every class search that factors, and the 4k+3 intersection scan, is
    one _SieveSpec of _korselt_search: no witness table, and the one
    confirm that factors, _factored_confirm, behind a Fermat prefilter."""
    builds = {name: entry.build(2, 1000) for name, entry in census._CLASS_SEARCHES.items()}
    sieved = {name for name, (kernel, _) in builds.items() if kernel is census._sieve_kernel}
    assert sieved == set(FACTORED_CLASSES)
    built = [builds[name][1] for name in FACTORED_CLASSES]
    monkeypatch.setattr(
        census, "_run_blocks", lambda kernel, params, *args: built.append(params) or []
    )
    census.carmichael_intersection_scan(census.RangeQuery(2, 1000))
    assert len(built) == len(FACTORED_CLASSES) + 1
    for _, specs in built:
        (spec,) = specs
        assert isinstance(spec, census._SieveSpec)
        assert spec.witnesses == ()
        assert spec.confirm.func is census._factored_confirm


def test_list_searches_share_one_stream_reader():
    """The list searches reach the block stream only through _search, which
    flattens its per-block hits in the one place; joint_census, whose
    blocks return counts, is the other reader of the stream."""
    readers = {
        name
        for name, node in census_functions().items()
        if any(isinstance(n, ast.Name) and n.id == "_run_blocks" for n in ast.walk(node))
    }
    assert readers == {"_search", "joint_census"}
    source = next(path for path in SOURCES if path.name == "census.py")
    flattens = [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.comprehension)
        and isinstance(node.target, ast.Tuple)
        and [ast.unparse(elt) for elt in node.target.elts] == ["hits"]
    ]
    assert len(flattens) == 1, flattens


def test_no_orphan_private_definition():
    """Every module-level private function and class of the package is
    named somewhere in the package besides its own definition."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    defined = {
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted(hit for hit in defined if hit[1] not in named) == []


def _used_names(tree):
    """Each name, attribute and imported top-level module named in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


WRITERS = {"print", "stdout", "stderr"}


def test_only_the_cli_writes():
    """The library reports through the callbacks it is given: no module of
    the package names logging, and only cli.py names print, sys.stdout or
    sys.stderr."""
    found = []
    for path in SOURCES:
        names = set(_used_names(ast.parse(path.read_text(encoding="utf-8"))))
        banned = {"logging"} | (WRITERS if path.name != "cli.py" else set())
        found += [(path.name, name) for name in sorted(names & banned)]
    assert not found, found


# Prints the named modules that the package loaded: those in sys.modules
# now and not before the import (the interpreter's site may load some).
COLD_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import gausspseudo
from gausspseudo import RangeQuery, search_classifier

def loaded(names):
    return sorted(name for name in names if name in sys.modules and name not in before)

print(loaded(("concurrent.futures", "multiprocessing", "json", "logging")))
search_classifier(RangeQuery(2, 1 << 14, workers=1), "g_cyclic", block_size=1 << 12)
print(loaded(("concurrent.futures", "multiprocessing")))
import gausspseudo.cli
print(loaded(("concurrent.futures", "multiprocessing", "json", "logging")))
"""


def test_cold_start_loads_no_pool_json_or_logging():
    """A fresh import of the package loads neither the process pool nor
    json nor logging, a one-worker search still loads no pool, and the CLI
    module adds none of them: each is imported by the one function that
    uses it, and no module uses logging.  Run in a fresh interpreter, as
    the test process may already hold these modules."""
    src = str(Path(gausspseudo.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]", "[]"]
