"""What each entry point imports, and what each package exports.

A process loads the modules its entry point runs and no others: most
package ``__init__``s re-export lazily (:func:`repro.lazy_exports`),
``DynamoSystem.run_vm`` imports the VM on its first call, ``repro``'s
CLI handlers import their own modules, and ``src/`` modules import from
the defining module.  Each entry point below runs in a fresh
interpreter, because a module another test already loaded would hide a
missing import.

The second half checks that no public name was lost on the way: every
name in a package's ``__all__`` resolves to the object its defining
module holds.
"""

from __future__ import annotations

import ast
import importlib
import json
import pathlib
import subprocess
import sys
import types

import pytest

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent

#: ``import repro.experiments.targets``: the artifact graph, its eight
#: targets and the layers a cold or warm ``run_targets`` runs.  Not the
#: CFG, the ISA, the VM, the walker or the path extractor.
TARGETS_MODULES = [
    "repro",
    "repro.dynamo",
    "repro.dynamo.config",
    "repro.dynamo.costmodel",
    "repro.dynamo.flush",
    "repro.dynamo.stats",
    "repro.dynamo.system",
    "repro.errors",
    "repro.experiments",
    "repro.experiments.claims",
    "repro.experiments.data",
    "repro.experiments.engine",
    "repro.experiments.engine.cache",
    "repro.experiments.engine.executor",
    "repro.experiments.engine.graph",
    "repro.experiments.engine.planner",
    "repro.experiments.figure2",
    "repro.experiments.figure3",
    "repro.experiments.figure4",
    "repro.experiments.figure5",
    "repro.experiments.phases",
    "repro.experiments.report",
    "repro.experiments.sweep",
    "repro.experiments.table1",
    "repro.experiments.table2",
    "repro.experiments.targets",
    "repro.metrics",
    "repro.metrics.hotpaths",
    "repro.metrics.quality",
    "repro.metrics.space",
    "repro.obs",
    "repro.obs.core",
    "repro.prediction",
    "repro.prediction.base",
    "repro.prediction.net",
    "repro.prediction.path_profile",
    "repro.resilience",
    "repro.resilience.signals",
    "repro.trace",
    "repro.trace.path",
    "repro.trace.recorder",
    "repro.workloads",
    "repro.workloads.base",
    "repro.workloads.generator",
    "repro.workloads.pathmodel",
    "repro.workloads.phased",
    "repro.workloads.regions",
    "repro.workloads.spec",
]

#: serve-durable's import line: the server, the load generator's stream
#: builder and what they run.  Not the offline sweep, the Dynamo
#: simulator, the ISA, the chaos harness or the TCP skin.
SERVING_MODULES = [
    "repro",
    "repro.cfg",
    "repro.cfg.analysis",
    "repro.cfg.block",
    "repro.cfg.builder",
    "repro.cfg.edge",
    "repro.cfg.generators",
    "repro.cfg.procedure",
    "repro.cfg.program",
    "repro.cfg.validate",
    "repro.errors",
    "repro.obs",
    "repro.obs.core",
    "repro.prediction",
    "repro.prediction.base",
    "repro.prediction.net",
    "repro.prediction.streaming",
    "repro.serving",
    "repro.serving.durability",
    "repro.serving.loadgen",
    "repro.serving.server",
    "repro.serving.session",
    "repro.serving.wire",
    "repro.trace",
    "repro.trace.batch",
    "repro.trace.columnar",
    "repro.trace.extractor",
    "repro.trace.path",
    "repro.trace.recorder",
    "repro.trace.walker",
]

#: Packages whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = [
    "repro.analysis",
    "repro.cfg",
    "repro.dynamo",
    "repro.hardware",
    "repro.isa",
    "repro.metrics",
    "repro.obs",
    "repro.prediction",
    "repro.profiling",
    "repro.resilience",
    "repro.serving",
    "repro.trace",
]


def _repro_modules(code: str) -> list[str]:
    """The sorted ``repro`` modules a fresh interpreter holds after
    running ``code``."""
    script = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(name for name in sys.modules"
        + " if name == 'repro' or name.startswith('repro.'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def _inside(modules: list[str], *prefixes: str) -> list[str]:
    """The modules that are one of ``prefixes`` or lie below one."""
    return [
        name
        for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


# ----------------------------------------------------------------------
# What each entry point loads
# ----------------------------------------------------------------------
def test_importing_targets_loads_the_pinned_modules():
    assert _repro_modules("import repro.experiments.targets") == (
        TARGETS_MODULES
    )


def test_cold_and_warm_run_targets_import_nothing_more():
    """The saving is not moved into the timed run: a cold then a warm
    ``run_targets`` loads no module the import did not."""
    modules = _repro_modules(
        "import tempfile\n"
        "from repro.experiments.engine.cache import SweepCache\n"
        "from repro.experiments.targets import run_targets\n"
        "with tempfile.TemporaryDirectory() as root:\n"
        "    cache = SweepCache(root)\n"
        "    cold = run_targets(flow_scale=0.02, cache=cache)\n"
        "    warm = run_targets(flow_scale=0.02, cache=cache)\n"
        "assert cold.texts == warm.texts\n"
    )
    assert modules == TARGETS_MODULES


def test_importing_a_lazy_package_runs_none_of_its_modules():
    modules = _repro_modules(
        "\n".join(f"import {package}" for package in LAZY_PACKAGES)
    )
    assert modules == sorted(["repro", *LAZY_PACKAGES])


def test_serving_entry_point_loads_the_pinned_modules():
    modules = _repro_modules(
        "from repro.serving import (\n"
        "    PredictionServer, ServerConfig, build_stream,"
        " standalone_outcome,\n"
        ")\n"
    )
    assert modules == SERVING_MODULES
    assert _inside(
        modules, "repro.experiments", "repro.dynamo", "repro.isa"
    ) == []


def test_cli_run_dry_run_loads_neither_serving_nor_the_vm(tmp_path):
    modules = _repro_modules(
        "from repro.cli import main\n"
        "code = main(['run', '--dry-run', '--flow-scale', '0.02',"
        f" '--cache-dir', {str(tmp_path / 'cache')!r}])\n"
        "assert code == 0\n"
    )
    assert "repro.experiments.targets" in modules
    assert _inside(
        modules,
        "repro.serving",
        "repro.analysis",
        "repro.hardware",
        "repro.profiling",
        "repro.isa",
        "repro.cfg",
        "repro.dynamo.vm",
        "repro.dynamo.compiler",
    ) == []


#: ``repro list``: the CLI, the target list's modules and the extension
#: studies' registry.  No study's own modules (the CFG, the ISA, the
#: hardware models, the profilers, the walker).
LIST_MODULES = sorted(
    [
        *TARGETS_MODULES,
        "repro.cli",
        "repro.experiments.extended",
        "repro.obs.manifest",
        "repro.obs.report",
    ]
)


def test_cli_list_loads_the_pinned_modules():
    modules = _repro_modules(
        "from repro.cli import main\nassert main(['list']) == 0\n"
    )
    assert modules == LIST_MODULES


def test_parsing_extended_loads_no_study_module():
    """The ``extended`` subcommand's help lists ``EXTENDED_IDS``: parsing
    it loads what ``repro list`` loads."""
    modules = _repro_modules(
        "from repro.cli import build_parser\n"
        "args = build_parser().parse_args(['extended', 'overhead'])\n"
        "assert args.names == ['overhead']\n"
    )
    assert modules == LIST_MODULES


def test_importing_the_cli_loads_only_what_main_reads():
    assert _repro_modules("import repro.cli") == [
        "repro",
        "repro.cli",
        "repro.errors",
        "repro.obs",
        "repro.obs.core",
        "repro.obs.manifest",
        "repro.obs.report",
    ]


# ----------------------------------------------------------------------
# No public name is lost
# ----------------------------------------------------------------------
def _packages() -> list[str]:
    """Every ``repro`` package with an ``__all__``."""
    names = []
    for init in sorted(PACKAGE_ROOT.rglob("__init__.py")):
        tree = ast.parse(init.read_text(encoding="utf-8"))
        if "__all__" in _bound_names(tree):
            parts = init.parent.relative_to(PACKAGE_ROOT.parent).parts
            names.append(".".join(parts))
    return names


def _bound_names(tree: ast.Module) -> set[str]:
    """The names a module's top level defines (a def, a class or an
    assignment; not an import)."""
    names = set()
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


def _definers(package: str, name: str) -> list[str]:
    """The modules at or below ``package`` whose top level defines
    ``name``."""
    found = []
    root = PACKAGE_ROOT.parent.joinpath(*package.split("."))
    for path in sorted(root.rglob("*.py")):
        if name in _bound_names(ast.parse(path.read_text(encoding="utf-8"))):
            parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            found.append(".".join(parts))
    return found


def test_lazy_package_list_matches_the_sources():
    lazy = [
        package
        for package in _packages()
        if "lazy_exports(" in PACKAGE_ROOT.parent.joinpath(
            *package.split("."), "__init__.py"
        ).read_text(encoding="utf-8")
    ]
    assert lazy == LAZY_PACKAGES


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_is_its_defining_modules_object(package):
    module = importlib.import_module(package)
    assert module.__all__, package
    for name in module.__all__:
        value = getattr(module, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"{package}.{name}"]
            continue
        definers = _definers(package, name)
        assert len(definers) == 1, (package, name, definers)
        defining = importlib.import_module(definers[0])
        assert value is getattr(defining, name), (package, name)


@pytest.mark.parametrize("package", _packages())
def test_star_import_binds_exactly_all_and_dir_lists_it(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    del namespace["__builtins__"]
    module = importlib.import_module(package)
    assert sorted(namespace) == sorted(module.__all__)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", _packages())
def test_unknown_name_raises_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"'{package}'"):
        module.no_such_name
