"""Every module under ``src/repro`` is load-bearing.

A module is *reached* when a reached file under ``src/``, or any file
under ``benchmarks/`` or ``examples/``, imports it or calls a name it
defines. A package ``__init__.py`` re-exporting a name does not reach
the module that defines it, and neither does a test: ``__init__`` files
are read only to resolve ``from repro.pkg import Name`` (or
``repro.pkg.Name``) to the module that really defines ``Name``. What the
scan cannot see — an entry point, a reference implementation tests
compare against, a module reached through a string-keyed registry — is
listed in ``EXEMPT`` with its reason.

Names follow the same rule: a package exports a name only when some
file under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``
imports it through that package (``from repro.pkg import Name`` or
``repro.pkg.Name``); another ``__init__`` re-exporting it does not count.

The same rule holds one level down for the classes a pass is built
from: a defaulted constructor parameter is an option only if some call
under ``src/``, ``benchmarks/`` or ``examples/`` passes it; the ones
that exist so a test can substitute a fake are named in ``SEAMS``.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules the import scan cannot reach, each with the reason it stays.
EXEMPT = {
    "repro.__main__": "entry point of `python -m repro`",
    "repro.baselines.serial": "oracle: the per-app reference every substrate is compared to",
    "repro.apps.histogram": "registered through repro.apps, run by key",
    "repro.apps.kmeans": "registered through repro.apps, run by key",
    "repro.apps.knn": "registered through repro.apps, run by key",
    "repro.apps.moments": "registered through repro.apps, run by key",
    "repro.apps.pagerank": "registered through repro.apps, run by key",
    "repro.apps.wordcount": "registered through repro.apps, run by key",
}


class _Scan:
    def __init__(self) -> None:
        # Parsed source of every module under src/, and which are packages.
        self.trees: dict[str, ast.Module] = {}
        self.packages: set[str] = set()
        for path in sorted(SRC.rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
                self.packages.add(".".join(parts))
            self.trees[".".join(parts)] = ast.parse(
                path.read_text(), filename=str(path)
            )
        # package -> {exported name: (module it was imported from, name there)}
        self.exports = {
            pkg: self._import_table(pkg, self.trees[pkg]) for pkg in self.packages
        }

    def _absolute(self, importer: str, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        base = importer.split(".")
        if importer not in self.packages:
            base = base[:-1]
        base = base[: len(base) - (node.level - 1)]
        return ".".join(base + ([node.module] if node.module else []))

    def _import_table(self, importer: str, tree: ast.Module) -> dict[str, tuple[str, str]]:
        table: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = self._absolute(importer, node)
                for alias in node.names:
                    table[alias.asname or alias.name] = (source, alias.name)
        return table

    def resolve(self, module: str, name: str) -> str | None:
        """The module under ``src/`` that ``module.name`` names or is
        defined in (``module`` itself for an empty ``name``); ``None``
        when it is outside ``src/`` or defined in an ``__init__``."""
        seen = set()
        while (module, name) not in seen:
            seen.add((module, name))
            if f"{module}.{name}" in self.trees:
                module, name = f"{module}.{name}", ""
            if module not in self.packages or not name:
                break
            if name not in self.exports[module]:
                break  # defined in the __init__ itself
            module, name = self.exports[module][name]
        if module in self.packages and name:
            return None
        return module if module in self.trees else None

    def references(self, importer: str, tree: ast.Module) -> set[tuple[str, str]]:
        """Every ``(module, name)`` that ``tree`` imports or calls into, as
        spelled: ``from repro.pkg import Name`` and ``repro.pkg.Name`` are
        ``("repro.pkg", "Name")``; a module itself is ``(module, "")``."""
        found: set[tuple[str, str]] = set()
        bound: dict[str, str] = {}  # local name -> module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    found.add((alias.name, ""))
                    top = alias.name.split(".")[0]
                    bound[alias.asname or top] = alias.name if alias.asname else top
            elif isinstance(node, ast.ImportFrom):
                source = self._absolute(importer, node)
                found.add((source, ""))
                for alias in node.names:
                    found.add((source, alias.name))
                    if f"{source}.{alias.name}" in self.trees:
                        bound[alias.asname or alias.name] = f"{source}.{alias.name}"
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if not chain or not isinstance(node, ast.Name) or node.id not in bound:
                continue
            module = bound[node.id]
            for attr in reversed(chain):
                if f"{module}.{attr}" in self.trees:
                    module = f"{module}.{attr}"
                    found.add((module, ""))
                else:
                    found.add((module, attr))
                    break
        return found

    def uses(self, importer: str, tree: ast.Module) -> set[str]:
        """Modules under ``src/`` that ``tree`` imports or calls into."""
        targets = {self.resolve(*ref) for ref in self.references(importer, tree)}
        return targets - {None}

    def reached(self) -> set[str]:
        frontier: set[str] = set()
        for folder in ("benchmarks", "examples"):
            for path in sorted((ROOT / folder).rglob("*.py")):
                frontier |= self.uses("", ast.parse(path.read_text(), filename=str(path)))
        frontier |= EXEMPT.keys() & self.trees.keys()
        reached: set[str] = set()
        while frontier:
            module = frontier.pop()
            if module in reached:
                continue
            reached.add(module)
            if module not in self.packages:  # an __init__ re-export reaches nothing
                frontier |= self.uses(module, self.trees[module]) - reached
        return reached

    def exported(self, package: str) -> set[str]:
        """The names ``package``'s ``__init__`` hands out: its ``__all__``
        and every name it imports (a bare submodule import is not a name)."""
        names = {
            name
            for name, (source, original) in self.exports[package].items()
            if f"{source}.{original}" not in self.trees
        }
        for node in self.trees[package].body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                names |= set(ast.literal_eval(node.value))
        return names

    def through_packages(self) -> set[tuple[str, str]]:
        """``(package, name)`` for every name a file under ``src/``,
        ``tests/``, ``benchmarks/`` or ``examples/`` reaches through the
        package path; an ``__init__`` re-exporting it does not count."""
        trees = [(m, tree) for m, tree in self.trees.items() if m not in self.packages]
        for folder in ("tests", "benchmarks", "examples"):
            trees += [
                ("", ast.parse(path.read_text(), filename=str(path)))
                for path in sorted((ROOT / folder).rglob("*.py"))
            ]
        return {
            (module, name)
            for importer, tree in trees
            for module, name in self.references(importer, tree)
            if module in self.packages and name
        }


@functools.cache
def _scan() -> _Scan:
    return _Scan()


def test_every_module_is_reached():
    scan = _scan()
    modules = set(scan.trees) - scan.packages
    orphans = sorted(modules - scan.reached())
    assert not orphans, (
        "modules no run, bench or oracle reaches (delete them, or add an "
        f"exemption with its reason): {orphans}"
    )


def test_exempted_modules_still_exist():
    missing = sorted(
        name for name in EXEMPT
        if not (SRC / name.replace(".", "/")).with_suffix(".py").is_file()
    )
    assert not missing, f"exempted modules that no longer exist: {missing}"
    assert all(reason.strip() for reason in EXEMPT.values())


# -- the same rule for names: a package exports what is reached through it ----


def test_every_export_is_reached_through_its_package():
    scan = _scan()
    reached = scan.through_packages()
    unreached = sorted(
        f"{package}.{name}"
        for package in scan.packages
        for name in scan.exported(package)
        # ``__version__`` is the conventional place users look, never imported.
        if (package, name) not in reached and name != "__version__"
    )
    assert not unreached, (
        "names a package exports that nothing imports through it (drop the "
        "re-export; importers use the defining module): "
        f"{unreached}"
    )


# -- the same rule one level down: run-path constructor options ----------------

#: The classes a pass is assembled from.
RUN_PATH = (
    "CloudBurstingRuntime", "SlaveWorker", "MasterNode", "HeadNode",
    "Mailbox", "ProcessSlavePool", "ProcessSlave", "DatasetReader",
)

#: Defaulted parameters no run, bench or example sets, each with the
#: reason it stays: it lets a test substitute a fake or inject a failure,
#: or a platform needs it.
SEAMS = {
    "CloudBurstingRuntime.fault_hook": "injected slave crash",
    "SlaveWorker.clock": "FakeClock drives the prefetch window in virtual time",
    "HeadNode.clock": "FakeClock pins the global-reduction stopwatch",
    "ProcessSlavePool.start_method": "spawn-only platforms (no fork)",
}


def _dataclass_init(node: ast.ClassDef) -> ast.arguments:
    """The ``__init__`` ``@dataclass`` generates: the annotated fields in
    order, those assigned a value defaulted."""
    fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
    return ast.arguments(
        posonlyargs=[],
        args=[ast.arg("self")] + [ast.arg(f.target.id) for f in fields],
        kwonlyargs=[],
        kw_defaults=[],
        defaults=[f.value for f in fields if f.value is not None],
    )


def _constructors(scan: _Scan) -> dict[str, ast.arguments]:
    """``{class: its __init__ arguments}`` for the run-path classes (a
    dataclass's fields are its constructor options)."""
    found = {}
    for tree in scan.trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in RUN_PATH:
                inits = [
                    stmt.args for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
                ]
                found[node.name] = inits[0] if inits else _dataclass_init(node)
    return found


def _defaulted(args: ast.arguments) -> set[str]:
    positional = args.posonlyargs + args.args
    return {a.arg for a in positional[len(positional) - len(args.defaults):]} | {
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    }


def _passed(scan: _Scan, constructors: dict[str, ast.arguments]) -> dict[str, set[str]]:
    """``{class: parameters some call outside tests passes}`` — by keyword,
    or by position against the class's ``__init__`` signature."""
    trees = list(scan.trees.values())
    for folder in ("benchmarks", "examples"):
        trees += [ast.parse(p.read_text()) for p in sorted((ROOT / folder).rglob("*.py"))]
    passed: dict[str, set[str]] = {name: set() for name in constructors}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in passed:
                args = constructors[name]
                by_position = [a.arg for a in args.posonlyargs + args.args][1:]
                passed[name] |= {k.arg for k in node.keywords if k.arg}
                passed[name] |= set(by_position[: len(node.args)])
    return passed


def test_every_run_path_option_is_set_by_a_run_or_is_a_named_seam():
    scan = _scan()
    constructors = _constructors(scan)
    assert set(constructors) == set(RUN_PATH)
    passed = _passed(scan, constructors)
    options = {
        f"{cls}.{param}": param in passed[cls]
        for cls, args in constructors.items()
        for param in _defaulted(args)
    }
    unset = sorted(o for o, is_set in options.items() if not is_set and o not in SEAMS)
    assert not unset, (
        "constructor options only a test (or nobody) sets — delete them with "
        f"the path they select, or name the seam in SEAMS: {unset}"
    )
    stale = sorted(SEAMS.keys() - options.keys())
    assert not stale, f"SEAMS entries naming parameters that no longer exist: {stale}"
    assert all(reason.strip() for reason in SEAMS.values())
