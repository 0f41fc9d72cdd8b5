"""Every library function is reached by an experiment.

Runs a small config set through `cli.run` under a profiler and checks that
each module-level function and method of the package was called, apart
from an explicit allowlist.  Code that no experiment reaches should be
wired into one or deleted, not left to drift.  A static check asks the same
of dataclass fields: each is read somewhere in the package.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
import threading
from pathlib import Path

import pytest

import wschebor
from wschebor import increments, paths
from wschebor.cli import ExperimentConfig, run
from wschebor.errors import ConfigError

from test_cli import FAST_CONFIGS

# Functions that no experiment run calls, each with the reason it stays.
ALLOWED_UNREACHED = {
    "wschebor.cli.main": "the command-line entry point; test_cli drives it",
    "wschebor.cli._build_parser": "called only by main",
    "wschebor.cli.list_experiments": "the `wschebor list` command, called only by main",
    "wschebor.cli.experiment": "the registering decorator, which runs at import",
    "wschebor.paths.fbm_covariance": "the exact fBm covariance that tests compare "
                                     "the generators against",
    "wschebor.paths.GridPath.node_index": "a documented GridPath accessor that tests use",
}

TRACED_CONFIGS = [
    *({"experiment": name, **overrides} for name, overrides in FAST_CONFIGS.items()),
    {"experiment": "stable-marginal", "family": "brownian", "replicas": 50},
    {"experiment": "stable-marginal", "family": "fbm", "hurst": 0.3, "replicas": 50},
    *({"experiment": "spectral-tables", "kernel_id": kid} for kid in
      ("psi2", "triangle", "ou-bessel")),
    {"experiment": "spectral-tables", "kernel_id": "fbm-ou:H=0.4", "hurst": 0.3},
    {"experiment": "ou-match", "kernel_id": "ou-bessel", "replicas": 2, "horizon": 5.0},
    {"experiment": "discrete-lag", "lag_kind": "overlog", "n_discrete": 2 ** 8, "replicas": 1},
    # A density kernel touches more than 8 grid offsets: the FFT stencil route.
    {"experiment": "wschebor-check", "kernel_id": "triangle", "grid_n": 2 ** 12,
     "replicas": 1, "epsilon": 2.0 ** -5},
]


def _library_functions():
    """Qualified name -> code object of every function and method of the package."""
    found = {}
    for info in pkgutil.iter_modules(wschebor.__path__):
        module = importlib.import_module(f"wschebor.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{module.__name__}.{obj.__qualname__}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr in vars(obj).values():
                    if isinstance(attr, property):
                        attr = attr.fget
                    attr = getattr(attr, "__func__", attr)
                    # Dataclass-generated methods are compiled from strings.
                    if inspect.isfunction(attr) \
                            and attr.__code__.co_filename == module.__file__:
                        found[f"{module.__name__}.{attr.__qualname__}"] = attr.__code__
    return found


def test_every_library_function_is_reached(tmp_path):
    # A cache hit would skip the functions that fill it; start from cold caches.
    paths._circulant_sqrt_eigenvalues.cache_clear()
    increments._dpsi_stencil.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for i, body in enumerate(TRACED_CONFIGS):
            run(ExperimentConfig.from_dict({"seed": 7, **body}), output_dir=tmp_path / str(i))
        with pytest.raises(ConfigError):  # the refusal of a bad config (exit 1)
            ExperimentConfig.from_dict({"experiment": "ou-match", "kernel_id": "psi1"})
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    functions = _library_functions()
    unreached = {name for name, code in functions.items() if code not in called}
    extra = sorted(unreached - ALLOWED_UNREACHED.keys())
    stale = sorted(ALLOWED_UNREACHED.keys() - unreached)
    assert not extra, f"reached by no experiment: {extra}"
    assert not stale, f"allowlisted, but reached or gone: {stale}"


def _dataclass_fields(tree):
    """(class name, field name) of every annotated field of a @dataclass class."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", None) == "dataclass" for d in decorators):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def test_every_dataclass_field_is_read():
    """Every dataclass field of the package is loaded as an attribute somewhere in it.

    A static check over the package's source: it matches attribute names,
    not their owners, so a field passes when any object's attribute of the
    same name is read anywhere in the package.  A field that nothing reads
    is state that no experiment uses.
    """
    trees = [ast.parse(path.read_text()) for path in
             sorted(Path(wschebor.__file__).parent.glob("*.py"))]
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [f for tree in trees for f in _dataclass_fields(tree)]
    assert fields
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in loaded)
    assert not unread, f"dataclass fields read nowhere in the package: {unread}"
