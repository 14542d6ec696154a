"""One boundary contract over the exported surface.

For every exported callable the table below gives one valid call and the
argument slots that take a system size, a sample count, an integer, a real
number, an angle, a polarizer configuration, a list of numbers or a library
object.  Junk put into any one slot must give a result or a
``DickesimError``, never a bare ``TypeError``, ``ValueError`` or the like.
Every exported callable is either in the table or in ``OUT_OF_SCOPE`` with
the reason it is not.  Four guards keep the surface honest: every exported
exception class is raised somewhere in the package, every exported callable
and every public method, staticmethod, classmethod and property of an
exported class has a caller in the package or the benchmark, and the
benchmark's view of the library still builds.
"""

import ast
import importlib.util
import inspect
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dickesim as ds

PACKAGE = Path(ds.__file__).parent
#: The package modules that can call an export: all but ``__init__.py``.
MODULES = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"

#: ``str()`` of an int of more than 4300 digits raises ``ValueError``, so
#: an error message must not format ``-(10 ** 5000)``.
JUNK = (None, True, np.bool_(False), float("nan"), float("inf"), float("-inf"),
        10 ** 400, -(10 ** 5000), -1, 0, 1.5, "0.5", b"1", [], object())

#: Sizes beyond the float range of ``sqrt(C(n, k))`` are ``TooLargeError``.
SIZE_JUNK = (-1, 0, 1.5, True, "3", None, 10 ** 400, 10 ** 5000, -(10 ** 5000), 2054)

#: A huge sample count would sample forever before it fails.
COUNT_JUNK = (-1, 0, 1.5, True, "3", None)

SIZE, COUNT, INTEGER, REAL, ANGLE, CONFIG, NUMBERS, OBJECT = (
    "size", "count", "integer", "real", "angle", "config", "numbers", "object")

CONFIG2 = ds.PolarizerConfig.from_angles([0.2, 1.1])
CONFIG3 = ds.PolarizerConfig.from_angles([0.1, 0.7, 1.9])
GEO2 = ds.DetectionGeometry.linear_chain(2)
STATE2 = ds.dicke_coefficients(CONFIG2)
STATE3 = ds.dicke_coefficients(CONFIG3)
PYRAMID3 = ds.build_pyramid(CONFIG3)
REGISTER2 = ds.EmitterRegister.ground(2)
DETECTED2 = ds.apply_detection(ds.apply_detection(REGISTER2, CONFIG2[0]), CONFIG2[1])
POSITIONS2 = [[-2.5e-6, 0.0, 0.0], [2.5e-6, 0.0, 0.0]]
DIRECTIONS2 = [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]

#: ``(name, call, slots)``: ``call()`` is a valid call, ``call(slot=junk)``
#: the same call with junk in one slot.  A name is the exported name, or
#: ``Exported.method`` for a classmethod, staticmethod or method; a name that has slots
#: both for a whole argument and for an entry inside it appears twice.
TABLE = [
    ("Polarizer", lambda alpha=1.0, beta=0.5j: ds.Polarizer(alpha, beta),
     {"alpha": REAL, "beta": REAL}),
    ("Polarizer.linear", lambda theta=0.3: ds.Polarizer.linear(theta), {"theta": ANGLE}),
    ("SymmetricState", lambda n=1, coeffs=(0.6, 0.8): ds.SymmetricState(n, coeffs),
     {"n": SIZE, "coeffs": NUMBERS}),
    ("SymmetricState", lambda d0=0.6: ds.SymmetricState(1, [d0, 0.8]), {"d0": REAL}),
    ("SymmetricState.from_raw", lambda n=2, raw=(1.0, 0.5, 0.25): ds.SymmetricState.from_raw(
        n, raw), {"n": SIZE, "raw": NUMBERS}),
    ("SymmetricState.from_raw", lambda d0=1.0: ds.SymmetricState.from_raw(2, [d0, 0.5, 0.25]),
     {"d0": REAL}),
    ("EmitterRegister", lambda n=1, a0=1.0: ds.EmitterRegister(n, [a0, 0.0, 0.0]),
     {"n": SIZE, "a0": REAL}),
    ("EmitterRegister.ground", lambda n=2: ds.EmitterRegister.ground(n), {"n": SIZE}),
    ("PolarizerConfig", lambda polarizers=CONFIG3.polarizers: ds.PolarizerConfig(polarizers),
     {"polarizers": CONFIG}),
    ("PolarizerConfig.from_angles", lambda angles=(0.1, 0.7, 1.9): ds.PolarizerConfig.from_angles(
        angles), {"angles": CONFIG}),
    ("PolarizerConfig.from_angles", lambda theta=0.7: ds.PolarizerConfig.from_angles(
        [0.1, theta, 1.9]), {"theta": ANGLE}),
    ("DetectionGeometry",
     lambda transverse_sigma=5e-9, wavelength=493e-9, window_halfangle=0.01:
         ds.DetectionGeometry(POSITIONS2, transverse_sigma, wavelength, DIRECTIONS2,
                              window_halfangle),
     {"transverse_sigma": REAL, "wavelength": REAL, "window_halfangle": ANGLE}),
    ("DetectionGeometry.linear_chain",
     lambda n=2, spacing=5e-6, transverse_sigma=5e-9, wavelength=493e-9,
     window_halfangle=0.01: ds.DetectionGeometry.linear_chain(
         n, spacing, transverse_sigma, wavelength, window_halfangle),
     {"n": SIZE, "spacing": REAL, "transverse_sigma": REAL, "wavelength": REAL,
      "window_halfangle": ANGLE}),
    ("dicke_coefficients", lambda config=CONFIG3: ds.dicke_coefficients(config),
     {"config": CONFIG}),
    ("build_pyramid", lambda config=CONFIG3: ds.build_pyramid(config), {"config": CONFIG}),
    ("pyramid_edges",
     lambda config=CONFIG3, levels=None, level=PYRAMID3[1], terms=PYRAMID3[0].terms, step=0:
         ds.pyramid_edges(config, [ds.PyramidLevel(step, terms), level, *PYRAMID3[2:]]
                          if levels is None else levels),
     {"config": CONFIG, "levels": OBJECT, "level": OBJECT, "terms": OBJECT, "step": INTEGER}),
    ("tangle_closed_form", lambda config=CONFIG3: ds.tangle_closed_form(config),
     {"config": CONFIG}),
    ("classify_from_config", lambda config=CONFIG3: ds.classify_from_config(config),
     {"config": CONFIG}),
    ("ghz_config", lambda n=3, phi=0.4: ds.ghz_config(n, phi), {"n": SIZE, "phi": REAL}),
    ("s_config", lambda n=3, phi=0.4: ds.s_config(n, phi), {"n": SIZE, "phi": REAL}),
    ("w_config", lambda n=3, phi=0.4: ds.w_config(n, phi), {"n": SIZE, "phi": REAL}),
    ("estimate_fidelity",
     lambda config=CONFIG2, geometry=GEO2, target=STATE2, samples=4, seed=0:
         ds.estimate_fidelity(config, geometry, target, samples=samples, seed=seed),
     {"config": CONFIG, "geometry": OBJECT, "target": OBJECT, "samples": COUNT,
      "seed": INTEGER}),
    ("fidelity", lambda a=STATE2, b=STATE2: ds.fidelity(a, b), {"a": OBJECT, "b": OBJECT}),
    ("synthesize", lambda target=STATE2: ds.synthesize(target), {"target": OBJECT}),
    ("entanglement_report", lambda state=STATE3: ds.entanglement_report(state),
     {"state": OBJECT}),
    ("tangle_hyperdeterminant", lambda state=STATE3: ds.tangle_hyperdeterminant(state),
     {"state": OBJECT}),
    ("apply_detection",
     lambda register=REGISTER2, polarizer=CONFIG2[0]: ds.apply_detection(register, polarizer),
     {"register": OBJECT, "polarizer": OBJECT}),
    ("project_symmetric", lambda register=DETECTED2: ds.project_symmetric(register),
     {"register": OBJECT}),
    ("same_orientation", lambda p=CONFIG2[0], q=CONFIG2[1]: ds.same_orientation(p, q),
     {"p": OBJECT, "q": OBJECT}),
]

OUT_OF_SCOPE = {
    "PyramidLevel": "record returned by build_pyramid; not validated",
    "EntanglementReport": "record returned by entanglement_report; not validated",
    "ClassPrediction": "record returned by classify_from_config; not validated",
    "FidelityEstimate": "record returned by estimate_fidelity; not validated",
    **{name: "exception type; takes any message"
       for name, value in vars(ds).items()
       if isinstance(value, type) and issubclass(value, Exception)},
}

CASES = [pytest.param(call, slot, kind, id=f"{name}-{slot}")
         for name, call, slots in TABLE for slot, kind in slots.items()]


@pytest.mark.parametrize("name, call, slots", TABLE, ids=[name for name, _, _ in TABLE])
def test_table_calls_are_valid(name, call, slots):
    call()


@pytest.mark.parametrize("call, slot, kind", CASES)
@given(data=st.data())
def test_junk_in_one_slot_gives_a_result_or_a_typed_error(call, slot, kind, data):
    junk = data.draw(st.sampled_from({SIZE: SIZE_JUNK, COUNT: COUNT_JUNK}.get(kind, JUNK)),
                     label=slot)
    try:
        call(**{slot: junk})
    except ds.DickesimError:
        pass


def test_every_exported_callable_is_in_the_table_or_out_of_scope():
    exported = {name for name, value in vars(ds).items()
                if not name.startswith("_") and callable(value)}
    tabled = {name for name, _, _ in TABLE}
    covered = {name.split(".")[0] for name in tabled}
    assert not covered & OUT_OF_SCOPE.keys()
    assert exported == covered | OUT_OF_SCOPE.keys()
    # every named constructor that takes an argument has its own row
    constructors = {f"{name}.{attr}" for name, cls in vars(ds).items()
                    if isinstance(cls, type) and not issubclass(cls, Exception)
                    for attr, member in vars(cls).items()
                    if not attr.startswith("_")
                    and isinstance(member, (staticmethod, classmethod))
                    and inspect.signature(getattr(cls, attr)).parameters}
    assert constructors <= tabled


#: Object arguments given something else.
OBJECT_CALLS = {
    "estimate_fidelity-geometry": lambda: ds.estimate_fidelity(CONFIG2, None),
    "estimate_fidelity-target": lambda: ds.estimate_fidelity(CONFIG2, GEO2, target=5),
    "fidelity-a": lambda: ds.fidelity(None, STATE2),
    "fidelity-b": lambda: ds.fidelity(STATE2, 5),
    "apply_detection-register": lambda: ds.apply_detection(None, CONFIG2[0]),
    "apply_detection-polarizer": lambda: ds.apply_detection(REGISTER2, 0.3),
    "project_symmetric-register": lambda: ds.project_symmetric(STATE2),
    "same_orientation-p": lambda: ds.same_orientation(STATE2, CONFIG2[0]),
    "same_orientation-q": lambda: ds.same_orientation(CONFIG2[0], None),
    "pyramid_edges-terms": lambda: ds.pyramid_edges(
        CONFIG3, [ds.PyramidLevel(0, None), *PYRAMID3[1:]]),
}


@pytest.mark.parametrize("call", OBJECT_CALLS.values(), ids=OBJECT_CALLS.keys())
def test_non_objects_are_config_errors(call):
    with pytest.raises(ds.ConfigError):
        call()


@pytest.mark.parametrize("n", [2054, 10 ** 400], ids=["2054", "huge"])
def test_system_sizes_beyond_the_float_range_are_too_large(n):
    for call in (ds.DetectionGeometry.linear_chain, ds.EmitterRegister.ground,
                 lambda n: ds.s_config(n, 0.0), lambda n: ds.w_config(n, 0.0),
                 lambda n: ds.ghz_config(n, 0.0)):
        with pytest.raises(ds.TooLargeError):
            call(n)


def test_the_largest_system_size_is_valid():
    assert len(ds.s_config(2053, 0.0)) == 2053
    assert ds.DetectionGeometry.linear_chain(2053).n == 2053


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.int64])
def test_numpy_integer_sizes_give_what_ints_give(dtype):
    # a size that kept its dtype made 2 * n, 3 ** n and 2 ** n wrap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for recipe in (ds.ghz_config, ds.w_config):
            assert recipe(dtype(100), 0.3) == recipe(100, 0.3)
        for n in (5, 11):
            register = ds.EmitterRegister.ground(dtype(n))
            assert type(register.n) is int
            assert np.array_equal(register.amps, ds.EmitterRegister.ground(n).amps)
        state = ds.SymmetricState.from_raw(dtype(7), np.ones(8))
        assert type(state.n) is int
        assert np.array_equal(state.to_qubit_amplitudes(),
                              ds.SymmetricState.from_raw(7, np.ones(8)).to_qubit_amplitudes())
        assert type(ds.SymmetricState(dtype(1), [1.0, 0.0]).n) is int
        assert type(ds.EmitterRegister(dtype(1), [1.0, 0.0, 0.0]).n) is int
        chain, reference = (ds.DetectionGeometry.linear_chain(n) for n in (dtype(100), 100))
        for name in ("emitter_positions", "detector_directions", "phase_table"):
            assert np.array_equal(getattr(chain, name), getattr(reference, name))


def test_every_exported_error_is_raised_somewhere():
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    errors = {name for name, value in vars(ds).items()
              if isinstance(value, type) and issubclass(value, Exception)}
    assert errors - {"DickesimError"} <= raised


def test_no_package_module_imports_gc():
    # switching the collector off inside a call moves its work into the
    # benchmark's calibration kernel, which then scales the op's time down;
    # and tuning the process's allocator (mallopt through ctypes) is not a
    # library's business: the window kernel keeps its own buffers instead
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert "numpy" in imported and not imported & {"gc", "ctypes"}


def test_only_core_store_writes_past_a_frozen_setattr():
    # one way to freeze a checked value: core._store writes the instance
    # __dict__, and no other code calls object.__setattr__ or touches __dict__
    writes = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "core.py":
            store, = (node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "_store")
            allowed = {id(node) for node in ast.walk(store)}
        writes += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and id(node) not in allowed
                   and node.attr in ("__setattr__", "__dict__")]
    assert writes == []


def test_only_the_module_defining_a_class_builds_it_past_its_checks():
    # core._built skips __post_init__, so a checked type is built that way
    # only where it is defined: the first argument names one of the module's
    # classes, or is cls inside one of them
    outside = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        own = {cls.name for cls in classes}
        in_class = {id(node) for cls in classes for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_built"):
                continue
            first = node.args[0] if node.args else None
            name = first.id if isinstance(first, ast.Name) else None
            if not (name in own or (name == "cls" and id(node) in in_class)):
                outside.append(f"{path.name}:{node.lineno}")
    assert outside == []


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml promises 3.10, so no file may need newer syntax
    root = Path(__file__).resolve().parents[1]
    paths = [p for folder in ("src", "tests", "benchmarks") for p in (root / folder).rglob("*.py")]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


#: Standard-library names that Python 3.11 added, by module; ``None`` is the
#: module itself.  Builtins are under ``"builtins"``, and ``add_note`` is a
#: method of every exception.
PY311_NAMES = {
    "tomllib": {None},
    "typing": {"Self", "Never", "assert_never", "LiteralString", "Required", "NotRequired",
               "reveal_type"},
    "enum": {"StrEnum"},
    "datetime": {"UTC"},
    "math": {"cbrt", "exp2"},
    "asyncio": {"TaskGroup", "timeout"},
    "contextlib": {"chdir"},
    "hashlib": {"file_digest"},
    "operator": {"call"},
    "builtins": {"ExceptionGroup"},
}


def _py311_uses(tree):
    """``(line, name)`` of every use of a :data:`PY311_NAMES` entry in ``tree``."""
    modules = {}  # local name -> module
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in PY311_NAMES:
                    modules[alias.asname or alias.name] = alias.name
                    if None in PY311_NAMES[alias.name]:
                        uses.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in PY311_NAMES:
            new = PY311_NAMES[node.module]
            uses += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names
                     if None in new or alias.name in new]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.attr in PY311_NAMES.get(modules.get(node.value.id), ())):
            uses.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
        elif isinstance(node, ast.Attribute) and node.attr == "add_note":
            uses.append((node.lineno, "add_note"))
        elif isinstance(node, ast.Name) and node.id in PY311_NAMES["builtins"]:
            uses.append((node.lineno, node.id))
    return uses


def test_the_python_3_11_name_check_finds_every_listed_name():
    source = "\n".join(
        [f"import {module}\n{module}.{name}" if name else f"import {module}"
         for module, names in PY311_NAMES.items() if module != "builtins" for name in names]
        + [f"from {module} import {name}" for module, names in PY311_NAMES.items()
           if module not in ("builtins", "tomllib") for name in names]
        + ["import typing as t", "t.Self", "ExceptionGroup", "error.add_note('x')"])
    found = {name for _, name in _py311_uses(ast.parse(source))}
    listed = {f"{module}.{name}" if name else module
              for module, names in PY311_NAMES.items() if module != "builtins"
              for name in names}
    assert found == listed | {"ExceptionGroup", "add_note"}
    assert _py311_uses(ast.parse("import math\nmath.cbrt_like\nfrom typing import Any")) == []


def test_no_source_file_names_a_python_3_11_library_api():
    # the 3.10 grammar check above cannot see a call of an API that 3.10 lacks
    root = Path(__file__).resolve().parents[1]
    uses = [f"{path.relative_to(root)}:{line} {name}"
            for folder in ("src", "tests", "benchmarks") for path in (root / folder).rglob("*.py")
            for line, name in _py311_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert uses == []


def _benchmark_lib(monkeypatch):
    """The benchmark's view of the library, loaded without writing there."""
    path = BENCHMARKS / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    return workloads.make_lib(ds)


def test_the_benchmark_view_of_the_library_builds(monkeypatch):
    # benchmarks/probes.py catches ds.DickesimError
    lib = _benchmark_lib(monkeypatch)
    assert all(map(callable, vars(lib).values()))
    assert issubclass(ds.DickesimError, Exception)


def _named(paths):
    """Every name that the files at ``paths`` use as an ``ast.Name`` or ``ast.Attribute``."""
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return named


def test_every_exported_callable_has_a_caller(monkeypatch):
    # a caller names it in another module of the package, or the benchmark uses it
    exported = {name for name, value in vars(ds).items()
                if not name.startswith("_") and callable(value)}
    assert exported - _named(MODULES) - vars(_benchmark_lib(monkeypatch)).keys() == set()


def test_every_public_member_of_an_exported_class_has_a_caller():
    # a method, staticmethod, classmethod or property is named in another
    # module of the package or in the benchmark
    named = _named(MODULES + sorted(BENCHMARKS.glob("*.py")))
    uncalled = {f"{name}.{attr}" for name, cls in vars(ds).items()
                if isinstance(cls, type) and not issubclass(cls, Exception)
                for attr, member in vars(cls).items()
                if not attr.startswith("_") and attr not in named
                and (inspect.isfunction(member)
                     or isinstance(member, (staticmethod, classmethod, property)))}
    assert uncalled == set()


def test_only_the_window_module_names_the_chain_defaults():
    # the default chain and the CLI's geometry section are both filled in by
    # window._chain, so no other module needs a _CHAIN_* constant
    others = [path for path in PACKAGE.glob("*.py") if path.name != "window.py"]
    assert {name for name in _named(others) if name.startswith("_CHAIN_")} == set()
    assert {name for name in _named([PACKAGE / "window.py"]) if name.startswith("_CHAIN_")}


def test_a_failing_property_example_is_a_test_failure_not_the_end_of_the_session(tmp_path):
    # under this repository's warnings filters, in its own directory, since
    # Hypothesis keeps its example database in the working directory
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_a_property_that_fails(x):\n"
        "    assert x < 10\n\n\n"
        "def test_a_later_test():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1]
