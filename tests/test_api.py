"""The package's public surface: the names the README's library example uses."""

import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import rdsm
from rdsm import bend, catalog, dataset, sampling, surrogate, workflow

_ROOT = Path(__file__).resolve().parent.parent
_TRACING = _ROOT / "bench" / "tracing.py"

PUBLIC = {
    "__version__",
    "build_catalog", "SamplingDistribution", "sample_lhs", "default_specimen",
    "simulate_dataset", "split_holdout", "fit_direct", "fit_summed",
    "compare_approaches",
}


def test_public_api_is_pinned():
    assert len(rdsm.__all__) == len(set(rdsm.__all__))
    assert set(rdsm.__all__) == PUBLIC
    for name in rdsm.__all__:
        assert hasattr(rdsm, name), name
    # the root is the one declaration of the public API
    for info in pkgutil.iter_modules(rdsm.__path__):
        module = importlib.import_module(f"rdsm.{info.name}")
        assert "__all__" not in vars(module), info.name


def _rdsm_namespaces():
    """Every rdsm module and every class the bench tracer patches, by id,
    with a copy of its namespace."""
    mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "rdsm"]
    classes = [bend.BendState, surrogate.SurrogateModel, catalog.SamplingDistribution,
               dataset.Dataset]
    return {id(o): dict(vars(o)) for o in mods + classes}


def test_bench_tracer_installs_and_restores():
    # bench/tracing.py wraps rdsm functions and methods by name from outside
    # the package, so renaming one of them breaks the traced benchmark
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _rdsm_namespaces()
    tracer = tracing.Tracer("test")
    patches = tracing.Patches(tracer)
    try:
        assert workflow.fit_summed is not before[id(workflow)]["fit_summed"]
        assert vars(dataset.Dataset)["load_csv"] is not before[id(dataset.Dataset)]["load_csv"]
        with tracer.span("pass"):
            design = sampling.sample_lhs(8, 2, 0)
        assert [s.name for s in tracer.spans] == ["pass", "sampling.sample_lhs"]
    finally:
        patches.restore()
    assert _rdsm_namespaces() == before
    assert (design == sampling.sample_lhs(8, 2, 0)).all()


def test_cli_starts_without_scipy(tmp_path):
    # the normal quantile and the t tail are rdsm's own numpy code, so no
    # command loads any scipy module: not at import, not in a screen or a uq
    probe = "\n".join([
        "import sys",
        "from rdsm.cli import main",
        "def scipy_modules():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "print(scipy_modules())",
        "for argv in (['simulate', '--n', '40', '--out', 'data.csv'],",
        "             ['screen', '--data', 'data.csv', '--output', 'DC'],",
        f"             ['uq', '--model', {str(_ROOT / 'bench' / 'fixture' / 'direct_rdsm.json')!r},",
        "              '--n', '200']):",
        "    assert main(argv) == 0, argv",
        "print(scipy_modules())",
    ])
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    env.pop("RDSM_OUTDIR", None)
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "[]"]
    assert (tmp_path / "screening_DC.csv").is_file() and (tmp_path / "uq.csv").is_file()


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma on first use (about 20 ms and 1 MB); rdsm
    # sorts and compares instead, in a dataset's row-id check and in Sobol'
    probe = "\n".join([
        "import sys",
        "from rdsm.cli import main",
        "from rdsm.catalog import build_catalog",
        "from rdsm.dataset import Dataset",
        "loaded = lambda: 'numpy.ma' in sys.modules",
        "print(loaded())",
        "for argv in (['simulate', '--n', '40', '--out', 'data.csv'],",
        "             ['screen', '--data', 'data.csv', '--output', 'DC'],",
        f"             ['sobol', '--model', {str(_ROOT / 'bench' / 'fixture' / 'summed')!r},",
        "              '--n-base', '128', '--n-bootstrap', '2']):",
        "    assert main(argv) == 0, argv",
        "Dataset.load_csv('data.csv', build_catalog()).subset([3, 1, 2])",
        "print(loaded())",
    ])
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    env.pop("RDSM_OUTDIR", None)
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["False", "False"]
    assert (tmp_path / "sobol.csv").is_file()
