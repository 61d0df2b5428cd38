"""Public API guard: the package exports exactly what its modules export."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scbands

MODULES = (
    "bands", "bootstrap", "cli", "errors", "experiments", "fdata", "kinematic",
    "lkc", "models", "rng", "sampleio", "scalespace",
)

PUBLIC = {
    "DegenerateVarianceError", "ECDensityModel", "ExperimentConfig", "FunctionalSample",
    "Grid1D", "Grid2D", "LKCVector", "METHOD_NAMES", "ModelSpec", "QuantileNoSolutionError",
    "SCBand", "ScaleGrid", "add_observation_noise", "band_to_dict", "ceiling_rank_quantile",
    "covers", "eec", "format_report_table", "gaussian_kernel", "gen_model", "gen_model_block",
    "lambda_hat", "lkc_1d", "lkc_2d", "lkc_estimate", "model_mean", "normed_residuals",
    "read_sample", "run_coverage", "run_width", "scb_one_sample", "scb_scale_space",
    "scb_two_sample", "smooth_sample", "substream", "tgkf_quantile", "two_sample_residuals",
    "weight_matrix", "write_band", "write_report_csv", "write_report_json", "write_sample",
}

# Functions that perfbench/tracer.py reads by name, with the leading
# parameters its hooks bind. The tracer wraps every unprefixed function of
# a module and names its span <module>.<function>, so renaming, prefixing or
# moving one of these silently zeroes a per-layer benchmark row. After
# renaming any package function, also run `python -m pytest perfbench/tests`.
TRACED = {
    "kinematic": {"tgkf_quantile": (), "eec": (), "ec_density": ()},
    "bootstrap": {
        "mult_t_quantile": ("sample", "law", "cfg"),
        "boots_t_quantile": ("sample", "cfg"),
    },
    "lkc": {"lambda_hat": (), "lkc_1d": (), "lkc_2d": ()},
    "models": {"gen_model": ("spec", "n", "rng")},
    "rng": {"substream": ()},
    "scalespace": {"weight_matrix": (), "smooth_sample": ()},
    "sampleio": {"read_sample": ("path",)},
    "experiments": {"run_coverage": (), "run_width": ()},
}


def test_every_module_is_guarded():
    assert {m.name for m in pkgutil.iter_modules(scbands.__path__)} == set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist_and_are_re_exported(name):
    module = importlib.import_module(f"scbands.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"scbands.{name}.__all__ lists missing {attr!r}"
        if (name, attr) == ("cli", "main"):
            continue
        assert attr in scbands.__all__, f"scbands does not re-export {name}.{attr}"
        assert getattr(scbands, attr) is getattr(module, attr)


def test_public_api_is_the_pinned_set():
    assert len(scbands.__all__) == len(PUBLIC) == 42
    assert set(scbands.__all__) == PUBLIC


def test_readme_lists_the_public_api_by_module():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {
        module: set(re.findall(r"`(\w+)`", names))
        for module, names in re.findall(r"^- `(\w+)`: (.*?)\.$", section, re.M | re.S)
    }
    exported = {m: set(importlib.import_module(f"scbands.{m}").__all__) for m in MODULES}
    assert listed == {m: names for m, names in exported.items() if m != "cli"}


@pytest.mark.parametrize("module", sorted(TRACED))
def test_traced_functions_keep_their_names_and_parameters(module):
    mod = importlib.import_module(f"scbands.{module}")
    for name, params in TRACED[module].items():
        fn = vars(mod).get(name)
        assert inspect.isfunction(fn), f"scbands.{module}.{name} is not a function"
        assert (fn.__module__, fn.__name__) == (mod.__name__, name)
        leading = tuple(inspect.signature(fn).parameters)[: len(params)]
        assert leading == params, f"scbands.{module}.{name} binds {leading}, not {params}"


def _package_imports(path):
    """Package modules that the module file at path imports, all by relative imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] != "scbands", path.name
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "scbands" for alias in node.names), path.name
    return names


def test_errors_is_the_import_root_and_only_experiments_imports_models():
    # errors holds the input checks every module applies, so it imports
    # nothing from the package; models holds the synthetic draws, which
    # only the sweeps and the package root need.
    src = Path(scbands.__file__).resolve().parent
    imports = {path.stem: _package_imports(path) for path in src.glob("*.py")}
    assert set(imports) == {*MODULES, "__init__"}
    assert imports["errors"] == set()
    assert {name for name, used in imports.items() if "models" in used} == {"experiments",
                                                                             "__init__"}


# The public entry points that read an array from outside, by module: each
# reads it through errors._real_array (grids through _ascending_points) and
# converts nothing itself.
ARRAY_READERS = {
    "fdata": ("_ascending_points", "_Lattice.__post_init__", "FunctionalSample.__post_init__"),
    "bands": ("SCBand.__post_init__", "covers"),
    "lkc": ("_field",),
    "bootstrap": ("ceiling_rank_quantile",),
    "scalespace": ("ScaleGrid.__post_init__", "weight_matrix"),
}

# The only functions that build a sample or band through errors._owned,
# skipping the rule: each holds arrays the package made itself, and proves
# the rule at the call.
OWNED_BUILDERS = {"bands._residual_field", "bands._scb", "sampleio.read_sample",
                  "models.gen_model"}


def _functions(tree):
    """{qualified name: node} of the module-level functions and class methods."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found |= {f"{node.name}.{f.name}": f for f in node.body
                      if isinstance(f, ast.FunctionDef)}
    return found


def _called(node):
    """Names of the functions called inside node: bare names and attributes."""
    calls = (n.func for n in ast.walk(node) if isinstance(n, ast.Call))
    return {f.id if isinstance(f, ast.Name) else f"{ast.unparse(f.value)}.{f.attr}"
            for f in calls if isinstance(f, (ast.Name, ast.Attribute))}


def test_the_array_rule_has_one_owner():
    src = Path(scbands.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    converters = {"np.asarray", "np.array"}
    for module, names in ARRAY_READERS.items():
        functions = _functions(trees[module])
        for name in names:
            called = _called(functions[name])
            assert called & {"_real_array", "_ascending_points"}, f"{module}.{name}"
            assert not called & converters, f"{module}.{name} converts an array itself"
    owned = [f"{module}.{name}" for module, tree in trees.items()
             for name, node in _functions(tree).items() if "_owned" in _called(node)]
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_owned")]
    assert sorted(owned) == sorted(OWNED_BUILDERS) and len(calls) == len(OWNED_BUILDERS)
    # numpy's ragged-list error comes from a conversion: only errors catches
    # a ValueError around one
    catchers = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try) or not any(
                "ValueError" in ast.unparse(h.type) for h in node.handlers if h.type
            ):
                continue
            if converters & set().union(*map(_called, node.body)):
                catchers.add(module)
    assert catchers == {"errors"}


def test_the_scale_grid_and_pooling_rules_have_one_owner():
    # ScaleGrid owns the bandwidth bounds and the curves-only rule: the config
    # orders no bandwidth against a bound and tests no model name.
    # fdata._mean_field owns two-group pooling: bands takes each group's mean
    # and factor from it, and computes no square root, mean or group-size ratio.
    src = Path(scbands.__file__).resolve().parent
    trees = {name: ast.parse((src / f"{name}.py").read_text()) for name in ("experiments", "bands")}
    config = next(node for node in trees["experiments"].body
                  if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    nodes = list(ast.walk(config))
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    ordered = [ast.unparse(n) for n in nodes
               if isinstance(n, ast.Compare) and any(isinstance(op, ordering) for op in n.ops)]
    assert not [text for text in ordered if re.search(r"\bh_m(in|ax)\b|\binf\b|scale_grid", text)]
    assert not [ast.unparse(n) for n in nodes
                if isinstance(n, ast.Attribute) and ast.unparse(n).endswith("model.model")]
    assert not [n.value for n in nodes if isinstance(n, ast.Constant) and n.value in ("A", "B", "C")]
    called = _called(trees["bands"])
    assert not {c for c in called if c.split(".")[-1] in ("sqrt", "mean", "_mean_var")}
    assert not [ast.unparse(n) for n in ast.walk(trees["bands"])
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
                and "n_samples" in ast.unparse(n)]


def test_each_model_and_law_is_one_table_row():
    # models._MODELS and models._LAWS are the only description of a synthetic
    # model: no comparison in models.py names a model letter or a law, and a
    # model's coordinate count is its row's axis count, not a signature.
    tree = ast.parse((Path(scbands.__file__).resolve().parent / "models.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "inspect" not in imported
    names = {"A", "B", "C", "gaussian", "t3", "chisq"}
    compared = {ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for operand in (node.left, *node.comparators) for c in ast.walk(operand)
                if isinstance(c, ast.Constant) and c.value in names}
    assert not compared


def _halves_an_interval(loop):
    """True for a while loop that takes a midpoint 0.5 * (lo + hi) of a bracket."""
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
               and ast.unparse(n.left) == "0.5" and isinstance(n.right, ast.BinOp)
               and isinstance(n.right.op, ast.Add) for n in ast.walk(loop))


def test_one_stencil_and_one_bisection():
    # fdata._stencil is the only finite-difference rule (no np.gradient), and
    # kinematic._root, which tgkf_quantile steps for one row or R in
    # lockstep, the only bisection
    src = Path(scbands.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    assert not [(m, ast.unparse(n)) for m, tree in trees.items() for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and n.attr == "gradient"
                and ast.unparse(n.value) in ("np", "numpy")]
    loops = [(m, f) for m, tree in trees.items() for f, node in _functions(tree).items()
             for loop in ast.walk(node) if isinstance(loop, ast.While) and _halves_an_interval(loop)]
    assert loops == [("kinematic", "_root")]


def test_package_exports_are_unique_and_come_from_modules():
    names = scbands.__all__
    assert len(names) == len(set(names))
    exported = {
        attr for name in MODULES for attr in importlib.import_module(f"scbands.{name}").__all__
    }
    assert set(names) == exported - {"main"}


def test_import_loads_neither_scipy_stats_nor_optimize():
    # Every fresh process pays for what the import loads (scipy.optimize
    # alone adds about 0.27 s), so the package keeps to scipy.special.
    src = os.path.dirname(os.path.dirname(scbands.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, scbands, scbands.cli; "
        "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_distribution_has_the_package_name_and_version():
    # one version string: the built distribution reads scbands.__version__
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = pyproject.read_configuration(path)["project"]
    assert (project["name"], project["version"]) == ("scbands", scbands.__version__)
