import csv
import dataclasses
import io
import json
import subprocess
import sys
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linoptlearn as ll
from linoptlearn import cli
from linoptlearn.core import as_rng
from linoptlearn.errors import InvalidParameter, SingularMatrix


ERM_INI = """
[erm]
scheme = ERM1
modes = 2
energies = 1.0
sizes = 2
seed_count = 2
base_seed = 0
restarts = 2
max_iters = 1500
"""

JUNTA_INI = """
[junta]
modes = 4
junta_size = 2
training_size = 2
energy_scale = 2.0
seed_count = 2
base_seed = 0
restarts = 2
max_iters = 1200
"""

BOUNDS_INI = """
[bounds]
scheme = ERM2
modes = 2
energy = 1.0
delta = 0.1
sizes = 2, 4
sets_per_size = 2
base_seed = 0
mc_samples = 20000
"""

SWAP_INI = """
[swap-risk]
scheme = ERM1
modes = 2
size = 3
energy = 1.0
shots = 50, 5000
seed_count = 2
base_seed = 0
"""

VERIFY_INI = """
[verify]
oracle_instances = 4
gradient_instances = 3
lipschitz_trials = 25
marginal_sets = 2000
series_samples = 50000
base_seed = 0
"""


CONFIG_TYPES = (cli.ErmConfig, cli.JuntaConfig, cli.BoundsConfig, cli.SwapRiskConfig, cli.VerifyConfig)

# config_to_ini of each default config; the .meta.json sidecars carry the same text.
DEFAULT_INIS = {
    "erm": (
        "[erm]\n"
        "scheme = ERM1\nmodes = 4\nenergies = 1.0, 4.0\nsizes = 2, 4, 8\n"
        "seed_count = 5\nbase_seed = 0\nrestarts = 10\nmax_iters = 4000\n\n"
    ),
    "junta": (
        "[junta]\n"
        "modes = 8\njunta_size = 4\njunta_modes = \ntraining_size = 4\n"
        "energy_scale = 1.0\nseed_count = 10\nbase_seed = 0\nrestarts = 3\n"
        "max_iters = 2500\n\n"
    ),
    "bounds": (
        "[bounds]\n"
        "scheme = ERM2\nmodes = 2\nenergy = 1.0\ndelta = 0.1\nsizes = 2, 4, 8, 16\n"
        "sets_per_size = 20\nbase_seed = 0\nmc_samples = 200000\n\n"
    ),
    "swap-risk": (
        "[swap-risk]\n"
        "scheme = ERM1\nmodes = 2\nsize = 4\nenergy = 1.0\nshots = 100, 10000\n"
        "seed_count = 5\nbase_seed = 0\n\n"
    ),
    "verify": (
        "[verify]\n"
        "oracle_instances = 20\ngradient_instances = 10\nlipschitz_trials = 100\n"
        "marginal_sets = 20000\nseries_samples = 200000\nbase_seed = 0\n\n"
    ),
}

FLOATS = st.floats(allow_nan=False) | st.just(0.1 + 0.2)
FIELD_VALUES = {
    int: st.integers(),
    float: FLOATS,
    tuple[int, ...]: st.lists(st.integers(), max_size=4).map(tuple),
    tuple[float, ...]: st.lists(FLOATS, max_size=4).map(tuple),
    ll.Scheme: st.sampled_from(ll.Scheme),
}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_config_roundtrips(data):
    for cls in CONFIG_TYPES:
        kinds = typing.get_type_hints(cls)
        cfg = cls(**{f.name: data.draw(FIELD_VALUES[kinds[f.name]]) for f in dataclasses.fields(cls)})
        assert cli.config_from_ini(cli.config_to_ini(cfg), cls.SECTION) == cfg


def test_default_config_ini_text():
    for cls in CONFIG_TYPES:
        assert cli.config_to_ini(cls()) == DEFAULT_INIS[cls.SECTION]


def test_config_value_syntax():
    canonical = cli.config_from_ini("[erm]\nscheme = ERM2\nenergies = 1.0, 4.0\nsizes = 2, 3\n", "erm")
    loose = cli.config_from_ini("[erm]\nscheme = erm2\nenergies = 1.0; 4\nsizes = 2;3\n", "erm")
    assert loose == canonical == cli.ErmConfig(scheme=ll.Scheme.ERM2, energies=(1.0, 4.0), sizes=(2, 3))


def test_config_rejects_unknown_keys():
    with pytest.raises(Exception):
        cli.config_from_ini("[erm]\nbogus = 1\n", "erm")


def test_missing_config_uses_defaults():
    assert cli.load_config(None, "erm") == cli.ErmConfig()


def test_cmd_erm_csv_and_determinism(tmp_path):
    config = _write(tmp_path, "erm.ini", ERM_INI)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["erm", "--config", config, "--out", out1]) == 0
    assert cli.main(["erm", "--config", config, "--out", out2]) == 0
    first, second = open(out1, "rb").read(), open(out2, "rb").read()
    assert first == second
    rows = list(csv.DictReader(io.StringIO(first.decode())))
    assert len(rows) == 2
    assert list(rows[0]) == cli.ERM_HEADER
    assert rows[0]["converged"] in {"true", "false"}
    meta = json.load(open(out1 + ".meta.json"))
    assert meta["command"] == "erm" and meta["version"] == ll.__version__


@pytest.mark.parametrize("command,text", [("erm", ERM_INI), ("junta", JUNTA_INI)], ids=["erm", "junta"])
def test_cmd_erm_workers_match_serial(tmp_path, command, text):
    config = _write(tmp_path, "sweep.ini", text)
    serial, parallel = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
    assert cli.main([command, "--config", config, "--out", serial, "--workers", "1"]) == 0
    assert cli.main([command, "--config", config, "--out", parallel, "--workers", "2"]) == 0
    assert open(serial, "rb").read() == open(parallel, "rb").read()


def test_pool_is_capped_at_the_point_count(monkeypatch):
    pool_sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    rows = cli._map_points(lambda config, point: (config, point), "cfg", [1, 2], workers=64)
    assert rows == [("cfg", 1), ("cfg", 2)]
    assert pool_sizes == [2]


def test_cmd_erm_json_format(tmp_path):
    config = _write(tmp_path, "erm.ini", ERM_INI)
    out = str(tmp_path / "rows.json")
    assert cli.main(["erm", "--config", config, "--out", out, "--format", "json"]) == 0
    rows = json.load(open(out))
    assert len(rows) == 2 and isinstance(rows[0]["converged"], bool)


def test_seed_override_changes_output(tmp_path):
    config = _write(tmp_path, "erm.ini", ERM_INI)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["erm", "--config", config, "--out", a]) == 0
    assert cli.main(["erm", "--config", config, "--out", b, "--seed", "99"]) == 0
    assert open(a, "rb").read() != open(b, "rb").read()


def test_cmd_junta(tmp_path):
    config = _write(tmp_path, "junta.ini", JUNTA_INI)
    out = str(tmp_path / "junta.csv")
    assert cli.main(["junta", "--config", config, "--out", out]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 2
    assert list(rows[0]) == cli.JUNTA_HEADER
    for row in rows:
        assert row["status"] == "ok"
        assert row["recovered_ok"] == "true"
        assert float(row["final_risk"]) < 1e-10


def test_cmd_bounds(tmp_path):
    config = _write(tmp_path, "bounds.ini", BOUNDS_INI)
    out = str(tmp_path / "bounds.csv")
    assert cli.main(["bounds", "--config", config, "--out", out]) == 0
    rows = list(csv.DictReader(open(out)))
    assert [int(r["T"]) for r in rows] == [2, 4]
    for row in rows:
        assert float(row["violation_fraction"]) == 0.0
        assert float(row["bound_erm2"]) > 0.0


def test_cmd_swap_risk(tmp_path):
    config = _write(tmp_path, "swap.ini", SWAP_INI)
    out = str(tmp_path / "swap.csv")
    assert cli.main(["swap-risk", "--config", config, "--out", out]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 4
    high_shots = [r for r in rows if r["shots"] == "5000"]
    assert all(float(r["abs_error"]) < 0.05 for r in high_shots)


def test_swap_risk_shot_seeds_do_not_collide(tmp_path, monkeypatch):
    # The old seed (base_seed + 7919 * seed) mod 2^31 gave base seed 7919 at
    # seed 0 the same shot stream as base seed 0 at seed 1.
    models = []

    def recording(training, target, hypothesis, model):
        models.append(model)
        return ll.swap_test_risk(training, target, hypothesis, model)

    monkeypatch.setattr(cli, "swap_test_risk", recording)
    for base_seed, seed_count in ((7919, 1), (0, 2)):
        config = cli.SwapRiskConfig(shots=(50,), seed_count=seed_count, base_seed=base_seed)
        assert cli.cmd_swap_risk(config, workers=1, out=str(tmp_path / "s.csv"), fmt="csv") == 0
    first, _, second = models  # (7919, seed 0), (0, seed 0), (0, seed 1)
    assert as_rng(first.seed).random(4).tolist() != as_rng(second.seed).random(4).tolist()


def test_cmd_verify_pass_and_negative_control(tmp_path, capsys):
    config = _write(tmp_path, "verify.ini", VERIFY_INI)
    assert cli.main(["verify", "--config", config]) == 0
    table = capsys.readouterr().out
    assert "oracle-agreement" in table and "FAIL" not in table

    def broken_fidelity(x, target, hypothesis):
        return min(1.0, ll.fidelity(x, target, hypothesis) + 1e-4)

    code = cli.cmd_verify(cli.VerifyConfig(oracle_instances=4, gradient_instances=1,
                                           lipschitz_trials=25, marginal_sets=500,
                                           series_samples=20000),
                          workers=1, out=None, fmt="csv", fidelity_fn=broken_fidelity)
    assert code == cli.EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path):
    for command, text in (
        ("erm", "[erm]\nbogus = 1\n"),
        ("erm", "[erm]\nscheme = ERM3\n"),
        ("erm", "[erm]\nmodes = four\n"),
        ("junta", "[junta]\nmodes = 4\njunta_size = 5\nseed_count = 1\n"),
    ):
        bad = _write(tmp_path, "bad.ini", text)
        assert cli.main([command, "--config", bad, "--out", "-"]) == cli.EXIT_CONFIG
    # A worker count below 1 once ran serially with exit 0.
    good = _write(tmp_path, "good.ini", ERM_INI)
    for workers in ("0", "-3"):
        assert cli.main(["erm", "--config", good, "--out", "-", "--workers", workers]) == cli.EXIT_CONFIG


def _raise_on_seed_one(fit, error):
    """``fit`` with ``error`` raised for sweep seed 1; the seed tuple is ``(base, seed, ...)``."""

    def flaky(*args, **kwargs):
        seed = kwargs["seed"] if "seed" in kwargs else args[2].seed
        if seed[1] == 1:
            raise error("raised on purpose")
        return fit(*args, **kwargs)

    return flaky


@pytest.mark.parametrize(
    "command,text,fit",
    [("erm", ERM_INI, "minimize"), ("junta", JUNTA_INI, "learn_junta")],
    ids=["erm", "junta"],
)
def test_failed_fit_is_a_row_not_an_abort(tmp_path, monkeypatch, command, text, fit):
    # A SingularMatrix inside one sweep point used to end the whole sweep as
    # "config error" (exit 2); a real config error still does.
    config, out = _write(tmp_path, "sweep.ini", text), str(tmp_path / "rows.csv")
    original = getattr(cli, fit)
    monkeypatch.setattr(cli, fit, _raise_on_seed_one(original, SingularMatrix))
    assert cli.main([command, "--config", config, "--out", out, "--workers", "1"]) == 0
    ok, failed = list(csv.DictReader(open(out)))
    if command == "erm":
        assert ok["converged"] == "true" and failed["converged"] == "false"
        assert all(failed[key] == "nan" for key in ("risk_final", "frobenius_dist_sq", "unitarity_residual"))
    else:
        assert ok["status"] == "ok" and failed["status"] == "singular_matrix"
        assert failed["final_risk"] == "nan" and failed["recovered_ok"] == "false"
    json_out = str(tmp_path / "rows.json")
    assert cli.main([command, "--config", config, "--out", json_out, "--format", "json", "--workers", "1"]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    ok, failed = json.load(open(json_out), parse_constant=reject)
    nan_keys = (
        ("risk_final", "frobenius_dist_sq", "unitarity_residual")
        if command == "erm"
        else ("final_risk", "frobenius_dist_sq", "energy_spent")
    )
    assert all(failed[key] is None for key in nan_keys)
    assert all(isinstance(ok[key], float) for key in nan_keys)
    monkeypatch.setattr(cli, fit, _raise_on_seed_one(original, InvalidParameter))
    assert cli.main([command, "--config", config, "--out", out, "--workers", "1"]) == cli.EXIT_CONFIG


def test_io_error_exit_code(tmp_path):
    config = _write(tmp_path, "erm.ini", ERM_INI)
    missing_dir = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    assert cli.main(["erm", "--config", config, "--out", missing_dir]) == cli.EXIT_IO


def test_missing_config_file_exit_code():
    assert cli.main(["erm", "--config", "/nonexistent.ini", "--out", "-"]) == cli.EXIT_IO


def test_env_var_worker_default(tmp_path, monkeypatch):
    config = _write(tmp_path, "erm.ini", ERM_INI)
    out = str(tmp_path / "env.csv")
    monkeypatch.setenv(cli.ENV_WORKERS, "2")
    assert cli.main(["erm", "--config", config, "--out", out]) == 0
    baseline = str(tmp_path / "serial.csv")
    monkeypatch.delenv(cli.ENV_WORKERS)
    assert cli.main(["erm", "--config", config, "--out", baseline]) == 0
    assert open(out, "rb").read() == open(baseline, "rb").read()
    for bad in ("abc", "0", "-3"):
        monkeypatch.setenv(cli.ENV_WORKERS, bad)
        assert cli.main(["erm", "--config", config, "--out", out]) == cli.EXIT_CONFIG


def test_verify_default_scale_runtime():
    import time

    started = time.time()
    rows, passed = cli.run_verification(cli.VerifyConfig())
    elapsed = time.time() - started
    assert passed
    assert elapsed < 300.0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "linoptlearn", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert ll.__version__ in proc.stdout
