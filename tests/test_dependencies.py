"""Guards on what the package depends on and loads: pinned constants, no scipy
at run time, a lazy namespace, and the modules each subcommand imports."""

import ast
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy
import pytest

import cavitycharge
from cavitycharge.quantities import CODATA

# every name the package namespace exported when it imported its modules
# eagerly, less the since-deleted CavityAssembly, AbsorptionSpectrum, tauc_bandgap,
# multi-trace ring-down fit, the configs that repeated the scenario sections
# (TrapConfig, RydbergConfig, FilmSample, IlluminationScenario, TransportSample)
# and the functions only tests called (finesse_from_reflectivities,
# sheet_pair_field, potential_exact, potential_quadratic) and the film optics
# that no command, report row or demo reached (ComplexIndex, DrudeModel,
# drude_from_transport, lambda_cubed_ratio, power_attenuation); finesse and
# fsr_from_length moved from ringdown to quantities, which the report reaches
# without NumPy, and ringdown re-exports them; propagate_monte_carlo, which
# only the tests called, left for them (tests/mc_oracle.py)
OLD_EXPORTS = {
    "quantities": "CODATA Constants UncertainQuantity finesse fsr_from_length "
                  "propagate_linear",
    "ringdown": "RingdownFit RingdownTrace fit_ringdown load_trace_csv pool_linewidths "
                "synthesize_trace",
    "cavity_optics": "MirrorState excess_reflection_loss extinction_from_finesse "
                     "r0_from_symmetric_finesse r1_from_asymmetric_finesse resonant_response",
    "film_optics": "drude_index",
    "electrostatics": "ChargeScenario disc_point_ratios expansion_coefficients field_at",
    "ion_impact": "GateParams bessel_j0 carrier_intensity_factor equilibrium_position "
                  "gate_detuning_verdict lamb_dicke_budget max_charge_for_cooling "
                  "micromotion_amplitude shifted_frequency zero_point_spread",
    "rydberg_impact": "blockade_infidelity decoherence_time dephasing "
                      "max_charge_for_infidelity stark_shift",
    "charging": "equilibrium_charge film_resistance gaussian_clipping_factor photocurrent transport_consistency",
    "scenario": "Scenario load_scenario parse_scenario serialize_scenario",
}
SUBMODULES = (
    "budgets", "cavity_optics", "charging", "cli", "electrostatics", "errors", "film_optics",
    "ion_impact", "quantities", "reports", "ringdown", "rydberg_impact", "scenario",
)
# what the benchmark's set-up probe calls and its tracer rebinds on `cli`
CLI_TRACED = ("load_trace_csv", "fit_ringdown", "finesse", "pool_linewidths")


def _probe(code: str, cwd=None, flags=()) -> str:
    """stdout of `python -c code` in a fresh interpreter on this source tree
    (stderr instead when interpreter flags are given)."""
    src = str(Path(cavitycharge.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env, cwd=cwd, capture_output=True, text=True, check=True, timeout=60,
    )
    return out.stderr if flags else out.stdout


def test_codata_2022_values_are_pinned():
    assert CODATA.edition == "CODATA 2022"
    assert CODATA.e == 1.602176634e-19
    assert CODATA.h == 6.62607015e-34
    assert CODATA.c == 299792458.0
    assert CODATA.eps0 == 8.8541878188e-12
    assert CODATA.amu == 1.66053906892e-27
    assert CODATA.m_e == 9.1093837139e-31
    assert CODATA.hbar == CODATA.h / (2 * math.pi)
    assert CODATA.k_e == 1.0 / (4.0 * math.pi * CODATA.eps0)


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, cavitycharge.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _probe(probe).strip() == "[]"


def test_lazy_namespace_keeps_the_old_surface():
    star = {}
    exec("from cavitycharge import *", star)
    names = [(m, n) for m, listed in OLD_EXPORTS.items() for n in listed.split()]
    assert len(names) == 47
    for module_name, name in names:
        assert name in cavitycharge.__all__ and name in dir(cavitycharge)
        defined = getattr(getattr(cavitycharge, module_name), name)
        assert getattr(cavitycharge, name) is defined
        assert star[name] is defined
    from cavitycharge import budgets, reports

    assert reports.BUDGET_TARGETS is cavitycharge.BUDGET_TARGETS
    assert reports.budget_report is budgets.budget_report
    assert reports.SWEEP_POINTS == budgets.SWEEP_POINTS == 200
    with pytest.raises(AttributeError, match="no_such_name"):
        cavitycharge.no_such_name


def test_package_import_loads_no_submodule_and_resolves_each_on_access():
    probe = (
        "import json, sys, cavitycharge as cc; "
        "before = sorted(m for m in sys.modules if m.startswith('cavitycharge')); "
        f"names = {SUBMODULES!r}; "
        "resolved = [getattr(cc, n).__name__ for n in names]; "
        "from cavitycharge import charging; "
        "print(json.dumps([before, resolved, charging is cc.charging]))"
    )
    before, resolved, same = json.loads(_probe(probe))
    assert before == ["cavitycharge"]
    assert resolved == [f"cavitycharge.{n}" for n in SUBMODULES]
    assert same


def test_every_name_in_a_submodule_all_resolves():
    modules = [getattr(cavitycharge, m) for m in SUBMODULES]
    unresolved = [
        f"{mod.__name__}.{name}"
        for mod in modules for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)
    ]
    assert unresolved == []


def _loaded_by(argv, cwd=None) -> tuple[int, list[str]]:
    """Exit code and every module loaded by one `toolkit` command."""
    probe = (
        "import sys\n"
        "from cavitycharge import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(repr([code, sorted(sys.modules)]))\n"
    )
    code, mods = ast.literal_eval(_probe(probe, cwd).splitlines()[-1])
    return code, mods


def test_fit_ringdown_loads_only_cli_errors_quantities_and_ringdown(large_traces):
    trace = str(resources.files("cavitycharge").joinpath("data/traces/ringdown_01.csv"))
    code, mods = _loaded_by(["fit-ringdown", "--fsr-hz", "7.41e9", trace])
    assert code == 0
    assert [m for m in mods if m.split(".")[0] == "cavitycharge"] == ["cavitycharge"] + [
        f"cavitycharge.{m}" for m in ("cli", "errors", "quantities", "ringdown")
    ]
    assert "numpy.ma" not in mods  # np.median's NaN check imports it
    if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
        return  # one usable CPU: fit-ringdown forks no worker
    # Two large traces fork a worker (BLAS pinned to one thread, so that the
    # process is single-threaded). The fork needs os and pickle, and numpy
    # loaded pickle already: no further module is loaded.
    probe = (
        "import os, sys\n"
        "os.environ.update(OPENBLAS_NUM_THREADS='1', OMP_NUM_THREADS='1', MKL_NUM_THREADS='1')\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(fork()) or forks[-1]\n"
        "from cavitycharge import cli\n"
        f"code = cli.main({['fit-ringdown', '--fsr-hz', '7.41e9', *large_traces]!r})\n"
        "print(repr([code, sorted(sys.modules), len(forks)]))\n"
    )
    code, forked_mods, forks = ast.literal_eval(_probe(probe).splitlines()[-1])
    assert (code, forks) == (0, 1)
    assert forked_mods == mods


# the cavitycharge submodules `reproduce-paper` loads: every one but film_optics
# and ringdown
REPRODUCE_PAPER_PATH = {
    "budgets", "cavity_optics", "charging", "cli", "electrostatics", "errors", "ion_impact",
    "quantities", "reports", "rydberg_impact", "scenario",
}


@pytest.mark.parametrize("argv", [
    ["budget", "--scenario", "paper_yb.scenario", "--target", "gate", "--out", "sweep.csv"],
    ["reproduce-paper"],
])
def test_budget_and_reproduce_paper_load_no_film_optics(argv, tmp_path):
    code, mods = _loaded_by(argv, tmp_path)
    assert code == 0
    assert "cavitycharge.film_optics" not in mods
    if argv[0] == "budget":
        assert "cavitycharge.budgets" in mods
        assert not {"cavitycharge.reports", "cavitycharge.cavity_optics", "json"} & set(mods)
    else:
        loaded = {m.split(".", 1)[1] for m in mods if m.startswith("cavitycharge.")}
        assert loaded == REPRODUCE_PAPER_PATH


def _loaded_under_a_clean_site(argv, cwd) -> tuple[int, list[str]]:
    """Exit code (argparse's, where it exits) and every module loaded by one
    `toolkit` command under python -S, with NumPy's directory on the path.
    No .pth file in site-packages then loads a module first, so the modules
    are those the command itself loads."""
    probe = (
        "import sys\n"
        "from cavitycharge import cli\n"
        "try:\n"
        f"    code = cli.main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(repr([code, sorted(sys.modules)]), file=sys.stderr)\n"
    )
    numpy_dir = os.path.dirname(os.path.dirname(numpy.__file__))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [os.environ.get("PYTHONPATH"), numpy_dir])))
        return ast.literal_eval(_probe(probe, cwd, flags=("-S",)).splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["reproduce-paper"],
    ["budget", "--scenario", "paper_yb.scenario", "--target", "gate", "--out", "sweep.csv"],
    ["fit-ringdown", "--fsr-hz", "7.41e9",
     str(resources.files("cavitycharge").joinpath("data/traces/ringdown_01.csv"))],
], ids=lambda argv: argv[0])
def test_commands_under_a_clean_site_load_no_resource_readers(argv, tmp_path):
    # nor argparse, with gettext and locale, which only help and usage errors load
    code, mods = _loaded_under_a_clean_site(argv, tmp_path)
    assert code == 0
    assert "site" not in mods
    assert not {"importlib.resources", "pathlib", "zipfile", "tempfile"} & set(mods)
    assert not {"argparse", "gettext", "locale"} & set(mods)
    assert ("numpy" in mods) == (argv[0] == "fit-ringdown")


def test_help_under_a_clean_site_loads_argparse(tmp_path):
    code, mods = _loaded_under_a_clean_site(["--help"], tmp_path)
    assert code == 0
    assert "argparse" in mods


def test_scenario_loads_no_physics_module():
    probe = "import sys, cavitycharge.scenario; print(sorted(sys.modules))"
    loaded = set(ast.literal_eval(_probe(probe)))
    physics = {"ion_impact", "electrostatics", "rydberg_impact", "charging", "ringdown"}
    assert not {f"cavitycharge.{m}" for m in physics} & loaded


@pytest.mark.parametrize("argv", [
    ["reproduce-paper"],
    ["budget", "--scenario", "paper_yb.scenario", "--target", "gate", "--out", "sweep.csv"],
    ["fit-ringdown", "--fsr-hz", "7.41e9",
     str(resources.files("cavitycharge").joinpath("data/traces/ringdown_01.csv"))],
], ids=lambda argv: argv[0])
def test_commands_load_no_dataclasses(argv, tmp_path):
    code, mods = _loaded_by(argv, tmp_path)
    assert code == 0
    assert "dataclasses" not in mods


REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "cavitycharge"


def _readers():
    """(path, top-level statement) of every module the field and key pins
    read: the package, the demos and the benchmark."""
    for path in [*PACKAGE.glob("*.py"), *REPO.glob("demos/*.py"), *REPO.glob("perfbench/*.py")]:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path, statement


def test_every_scenario_key_is_read():
    # read means read as an attribute outside the schema machinery, which
    # touches every key, or named to Scenario._require, which reads it by name:
    # in another package module, in one of Scenario's accessors, in a demo or
    # in the benchmark
    from cavitycharge.scenario import _KEYS

    read = set()
    for path, statement in _readers():
        if path == PACKAGE / "scenario.py" and getattr(statement, "name", "") != "Scenario":
            continue
        read |= {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}
        read |= {node.args[1].value for node in ast.walk(statement)
                 if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "_require"
                 and len(node.args) == 2 and isinstance(node.args[1], ast.Constant)}
    unread = [f"[{section}] {key}" for section, keys in _KEYS.items()
              for key in keys if key not in read]
    assert unread == []


# the fields of public result records, and the keys of dicts that public
# functions return, that only tests read, each with the reason it stays
UNREAD = {
    "ringdown.RingdownFit.residual_rms": "the fit's residual quality, a diagnostic for the "
                                         "run record to report",
    "quantities.Constants.edition": "the CODATA edition, for the run record's provenance",
}


def test_every_result_field_and_returned_key_is_read_outside_its_definition():
    # read means read as an attribute (a field) or as a constant subscript (a
    # key) by the scan of test_every_scenario_key_is_read, in a package module
    # outside the record's class or the function's def, in a demo or in the
    # benchmark; the Scenario and its sections are that test's
    from cavitycharge.scenario import _SPECS

    sections = {cls.__name__ for cls in _SPECS}
    declared = {}  # (module, record or function, field or key) -> its top-level statement
    read = {}      # attribute or key -> the top-level statements that read it
    for path, statement in _readers():
        name = getattr(statement, "name", "_")
        if path.parent == PACKAGE and not name.startswith("_") and name not in sections:
            if isinstance(statement, ast.ClassDef) and any(
                    getattr(base, "id", "") == "NamedTuple" for base in statement.bases):
                declared |= {(path.stem, name, node.target.id): statement
                             for node in statement.body if isinstance(node, ast.AnnAssign)}
            elif isinstance(statement, ast.FunctionDef):
                declared |= {(path.stem, name, key.value): statement
                             for node in ast.walk(statement)
                             if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)
                             for key in node.value.keys if isinstance(key, ast.Constant)}
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute):
                read.setdefault(node.attr, []).append(statement)
            elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                read.setdefault(node.slice.value, []).append(statement)
    assert len(declared) > 50  # the scan finds the records
    unread = [".".join(entry) for entry, owner in declared.items()
              if all(reader is owner for reader in read.get(entry[2], []))]
    assert sorted(unread) == sorted(UNREAD)
    assert all(UNREAD.values())


# the package's functions that no command and no demo enters, as
# scripts/traffic.py lists them, each with the reason it stays
UNENTERED = {
    "__init__.__dir__": "PEP 562 dir() of the lazy namespace",
    "cli.__getattr__": "the benchmark's set-up probe reads cli.<name> (perfbench/worker.py:35), "
                       "and its tracer rebinds those names",
    "cli._fork_share": "fit-ringdown forks only for shares of 2 MB of traces or more: the "
                       "benchmark's cli-ringdown and CI's forked step",
    "cli._collect": "reaps the forked workers of cli._fork_share",
    "cli.run": "the toolkit console script",
    "ion_impact._j0_series_array": "the cooling sweep as one array call, which library callers "
                                   "with NumPy loaded run (the benchmark's lib-budgets)",
    "ion_impact.micromotion_of_single_charge": "exported; the sweeps compose its unchecked "
                                               "chain, and the benchmark's budget check calls "
                                               "it (perfbench/workloads.py:318, :322)",
    "quantities._outside_range": "error path: an overflow or a division by zero in a chain",
    "quantities._real": "error path: a cubature node where f returns what is not a float",
    "ringdown.RingdownTrace.__len__": "the benchmark's tracer counts samples with len(trace) "
                                      "(perfbench/tracer.py:84, :90)",
    "ringdown._loadtxt_rows": "blank or '#' lines among a trace's rows, and piped traces",
    "scenario.Scenario.trap_config": "the benchmark's budget check (perfbench/workloads.py:310)",
    "scenario.Scenario.rydberg_config": "the benchmark's budget check "
                                        "(perfbench/workloads.py:312)",
}


def test_every_function_is_entered_by_a_command_or_a_demo():
    run = subprocess.run([sys.executable, str(REPO / "scripts" / "traffic.py")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == sorted(UNENTERED)
    assert all(UNENTERED.values())


def test_no_module_imports_dataclasses():
    package = Path(cavitycharge.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            )
            assert "dataclasses" not in names, path.name


# the cavitycharge submodules every `budget` command loads, and each target's physics
BUDGET_PATH = {"budgets", "cli", "errors", "quantities", "scenario"}
TARGET_PHYSICS = {
    **dict.fromkeys(("cooling", "coupling", "lamb-dicke", "gate"),
                    {"electrostatics", "ion_impact"}),
    **dict.fromkeys(("rydberg-coherence", "rydberg-gate"),
                    {"electrostatics", "rydberg_impact"}),
    "charging": {"charging"},
}


@pytest.mark.parametrize("target", cavitycharge.BUDGET_TARGETS)
def test_each_budget_target_loads_only_its_own_physics(target, tmp_path):
    argv = ["budget", "--scenario", "paper_yb.scenario", "--target", target, "--out", "s.csv"]
    code, mods = _loaded_by(argv, tmp_path)
    assert code == 0
    loaded = {m.split(".", 1)[1] for m in mods if m.startswith("cavitycharge.")}
    assert loaded == BUDGET_PATH | TARGET_PHYSICS[target]


@pytest.mark.parametrize("target", cavitycharge.BUDGET_TARGETS)
def test_budget_commands_load_no_numpy(target, tmp_path):
    argv = ["budget", "--scenario", "paper_yb.scenario", "--target", target, "--out", "s.csv"]
    code, mods = _loaded_by(argv, tmp_path)
    assert code == 0
    assert "numpy" not in mods
    assert "cavitycharge.ringdown" not in mods


def test_report_path_loads_no_numpy(tmp_path):
    code, mods = _loaded_by(["reproduce-paper"], tmp_path)
    assert code == 0
    assert not {"numpy", "cavitycharge.ringdown"} & set(mods)
    for statement in ("import cavitycharge.reports",
                      "from cavitycharge import finesse, fsr_from_length, extinction_from_finesse"):
        probe = f"import sys; {statement}; print(sorted(sys.modules))"
        assert not {"numpy", "cavitycharge.ringdown"} & set(ast.literal_eval(_probe(probe)))
    # ringdown re-exports the two functions it no longer defines
    same = ast.literal_eval(_probe(
        "from cavitycharge import finesse, fsr_from_length, ringdown, quantities; "
        "print([ringdown.finesse is finesse is quantities.finesse, "
        "ringdown.fsr_from_length is fsr_from_length is quantities.fsr_from_length])"))
    assert same == [True, True]


def test_propagation_engines_load_no_numpy():
    probe = (
        "import sys; from cavitycharge import UncertainQuantity, propagate_cubature, "
        "propagate_linear; inputs = [UncertainQuantity(523e3, 9e3), 7.41e9]; "
        "print([engine(lambda d, f: f / d, inputs).sigma > 0 "
        "for engine in (propagate_cubature, propagate_linear)], 'numpy' in sys.modules)"
    )
    assert _probe(probe).strip() == "[True, True] False"


def _uses_numpy_random(node) -> bool:
    """Whether an AST node imports or names numpy.random or default_rng."""
    if isinstance(node, ast.Attribute):
        return node.attr == "default_rng" or (
            node.attr == "random" and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Name):
        return node.id == "default_rng"
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.random") or (
            node.module == "numpy" and any(alias.name == "random" for alias in node.names))
    return False


def test_only_the_synthetic_trace_draws_random_numbers():
    # no propagation engine draws: numpy.random serves the seeded noise of
    # ringdown.synthesize_trace alone
    package = Path(cavitycharge.__file__).resolve().parent
    users = {
        (path.stem, getattr(statement, "name", "<module>"))
        for path in sorted(package.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(statement) if _uses_numpy_random(node)
    }
    assert users == {("ringdown", "synthesize_trace")}


def test_drude_index_loads_no_numpy():
    probe = "import sys; from cavitycharge import drude_index; print('numpy' in sys.modules)"
    assert _probe(probe).strip() == "False"


def test_lazy_submodule_imports_are_logged_by_importtime():
    # perfbench counts loaded modules from this log
    log = _probe("import cavitycharge.reports", flags=("-X", "importtime"))
    logged = {line.rsplit("|", 1)[-1].strip() for line in log.splitlines()}
    for name in ("ion_impact", "charging", "electrostatics", "rydberg_impact", "cavity_optics"):
        assert f"cavitycharge.{name}" in logged


def test_fresh_cli_import_exposes_what_the_benchmark_rebinds():
    probe = (
        "import cavitycharge.cli as cli; "
        f"print([callable(getattr(cli, n, None)) for n in {CLI_TRACED!r}])"
    )
    assert _probe(probe).strip() == str([True] * len(CLI_TRACED))
