import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose
from referencing import Registry, Resource

import monotangle.cli as cli
from monotangle.monogamy import MonogamyReport
from monotangle.qstate import haar_random_state, load_state, save_state
from monotangle.wclass import w_state_params, wclass_state

from .conftest import scaled_state_record, traced_peak_mb


def _schema_registry():
    root = resources.files("monotangle") / "schemas"
    registry = Registry()
    for name in ("common.defs.json", "state.schema.json",
                 "sm_report.schema.json", "tangle_report.schema.json",
                 "ckw_report.schema.json"):
        contents = json.loads((root / name).read_text())
        registry = registry.with_resource(name, Resource.from_contents(contents))
    return registry


REGISTRY = _schema_registry()


def validate(payload, schema_name):
    root = resources.files("monotangle") / "schemas"
    schema = json.loads((root / schema_name).read_text())
    jsonschema.Draft7Validator(schema, registry=REGISTRY).validate(payload)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(cli.main, args, catch_exceptions=False, **kwargs)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool `batch` makes; the fake pool maps
    in-process, so no process starts."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return made


class TestWclassGen:
    def test_w_state_file_and_echo(self, runner, tmp_path):
        out = tmp_path / "w3.json"
        result = invoke(runner, ["wclass-gen", "--n", "3", "--w",
                                 "--out", str(out)])
        assert result.exit_code == 0
        assert "8.89e-01" in result.output
        assert "4.44e-01" in result.output
        state = load_state(out)
        assert_allclose(state.amplitudes,
                        wclass_state(w_state_params(3)).amplitudes)
        validate(json.loads(out.read_text()), "state.schema.json")

    def test_seeded_generation_byte_identical(self, runner, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            result = invoke(runner, ["wclass-gen", "--n", "4", "--seed", "7",
                                     "--out", str(path)])
            assert result.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_norm_coefficients_exit_2(self, runner, tmp_path):
        coeffs = tmp_path / "bad.json"
        coeffs.write_text(json.dumps(
            {"a": [0.3, 0.0], "b": [[0.3, 0.0], [0.8, 0.0]]}
        ))
        result = invoke(runner, ["wclass-gen", "--coeffs", str(coeffs),
                                 "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 2

    def test_missing_inputs_exit_2(self, runner, tmp_path):
        result = invoke(runner, ["wclass-gen", "--out",
                                 str(tmp_path / "x.json")])
        assert result.exit_code == 2

    def test_unwritable_out_is_input_error(self, runner, tmp_path):
        result = invoke(runner, ["wclass-gen", "--n", "3", "--w", "--out",
                                 str(tmp_path / "missing" / "x.json")])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")

    def test_too_many_qubits_is_input_error(self, runner, tmp_path):
        result = invoke(runner, ["wclass-gen", "--n", "64", "--w", "--out",
                                 str(tmp_path / "x.json")])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")


class TestTangle:
    def test_ghz3_hierarchy(self, runner, tmp_path, ghz3):
        state_file = tmp_path / "ghz3.json"
        save_state(ghz3, state_file)
        out = tmp_path / "report.json"
        result = invoke(runner, ["tangle", str(state_file), "--focus", "1",
                                 "--restarts", "4", "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        validate(payload, "tangle_report.schema.json")
        assert payload["one_tangle"] == pytest.approx(1.0, abs=1e-9)
        for term in payload["terms"]:
            if term["m"] == 2:
                assert term["value"] == pytest.approx(0.0, abs=1e-9)
        assert payload["n_tangle"] == pytest.approx(1.0, abs=1e-9)
        assert payload["converged"] is True

    def test_bell_two_tangle(self, runner, tmp_path, bell_state):
        state_file = tmp_path / "bell.json"
        save_state(bell_state, state_file)
        out = tmp_path / "report.json"
        result = invoke(runner, ["tangle", str(state_file), "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        validate(payload, "tangle_report.schema.json")
        assert payload["n_tangle"] == pytest.approx(1.0, abs=1e-9)

    def test_w3_three_tangle_vanishes(self, runner, tmp_path, w3):
        state_file = tmp_path / "w3.json"
        save_state(w3, state_file)
        out = tmp_path / "report.json"
        result = invoke(runner, ["tangle", str(state_file), "--restarts", "4",
                                 "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["n_tangle"]) <= 1e-9

    def test_single_reduction_mode(self, runner, tmp_path, w3):
        state_file = tmp_path / "w3.json"
        save_state(w3, state_file)
        out = tmp_path / "report.json"
        result = invoke(runner, ["tangle", str(state_file),
                                 "--partners", "2", "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        validate(payload, "tangle_report.schema.json")
        assert payload["mode"] == "reduction"
        assert payload["term"]["value"] == pytest.approx(4 / 9, abs=1e-9)

    def test_partners_covering_the_rest_is_input_error(self, runner, tmp_path,
                                                       w3):
        # the whole state is not a reduction; its hierarchy has no --partners
        state_file = tmp_path / "w3.json"
        save_state(w3, state_file)
        result = invoke(runner, ["tangle", str(state_file),
                                 "--partners", "3,2"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize("raw", ["", ","])
    def test_empty_partner_list_is_input_error(self, runner, tmp_path, w3,
                                               raw):
        # an explicit empty list names no reduction; it is not the hierarchy
        state_file = tmp_path / "w3.json"
        save_state(w3, state_file)
        result = invoke(runner, ["tangle", str(state_file), "--partners", raw])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")

    def test_fractional_qubit_count_is_input_error(self, runner, tmp_path):
        # int() would read 2.5 as 2; the schema's integer rejects it
        state_file = tmp_path / "bad.json"
        state_file.write_text(json.dumps(
            {"num_qubits": 2.5, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
        result = invoke(runner, ["tangle", str(state_file)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: malformed state record")

    def test_uncapped_modes_ignore_the_cap_variable(self, runner, tmp_path,
                                                   monkeypatch, w3):
        # a reduction with m <= 3 evaluates no hierarchy, so it never reads
        # the cap
        state_file = tmp_path / "w3.json"
        save_state(w3, state_file)
        monkeypatch.setenv("MONOTANGLE_MAX_QUBITS", "abc")
        result = invoke(runner, ["tangle", str(state_file), "--partners", "2"])
        assert result.exit_code == 0
        result = invoke(runner, ["tangle", str(state_file)])
        assert result.exit_code == 2
        assert "MONOTANGLE_MAX_QUBITS must be an integer" in result.stderr

    @pytest.mark.parametrize("cap, message", [
        ("1", "error: 2 qubits exceeds the cap of 1"),
        ("abc", "error: MONOTANGLE_MAX_QUBITS must be an integer"),
    ])
    def test_two_qubit_hierarchy_reads_the_cap(self, runner, tmp_path,
                                               monkeypatch, bell_state, cap,
                                               message):
        state_file = tmp_path / "bell.json"
        save_state(bell_state, state_file)
        monkeypatch.setenv("MONOTANGLE_MAX_QUBITS", cap)
        result = invoke(runner, ["tangle", str(state_file)])
        assert result.exit_code == 2
        assert result.stderr.startswith(message)

    def test_two_qubit_hierarchy_summary(self, runner, tmp_path, bell_state):
        # n = 2 is the hierarchy with no terms: the n-tangle is the
        # one-tangle, reported in the format of every n
        state_file = tmp_path / "bell.json"
        save_state(bell_state, state_file)
        result = invoke(runner, ["tangle", str(state_file)])
        assert result.exit_code == 0
        assert result.stderr.splitlines()[:2] == [
            "one-tangle (hub 1): 1.00e+00",
            "two-tangle (full state): 1.00e+00",
        ]
        payload = json.loads(result.stdout)
        assert (payload["terms"], payload["converged"]) == ([], True)
        assert payload["n_tangle"] == payload["one_tangle"]

    def test_level4_reduction_reads_the_cap(self, runner, tmp_path,
                                           monkeypatch):
        # each member of a level-4 roof is a 4-qubit hierarchy
        state_file = tmp_path / "w5.json"
        save_state(wclass_state(w_state_params(5)), state_file)
        monkeypatch.setenv("MONOTANGLE_MAX_QUBITS", "3")
        result = invoke(runner, ["tangle", str(state_file),
                                 "--partners", "2,3,4"])
        assert result.exit_code == 2
        assert result.stderr == ("error: 4 qubits exceeds the cap of 3; set "
                                 "MONOTANGLE_MAX_QUBITS to override\n")

    def test_malformed_state_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        result = invoke(runner, ["tangle", str(bad)])
        assert result.exit_code == 2


    def test_rank2_level3_term_names_its_method(self, runner, tmp_path):
        # a level-3 reduction of a four-qubit state has rank <= 2
        state_file = tmp_path / "haar4.json"
        save_state(haar_random_state(4, 7), state_file)
        out = tmp_path / "term.json"
        result = invoke(runner, ["tangle", str(state_file), "--partners", "2,4",
                                 "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        validate(payload, "tangle_report.schema.json")
        assert payload["term"]["method"] == "rank2_lp"
        assert payload["term"]["restarts_used"] == 0
        assert payload["term"]["converged"] is True
        assert payload["term"]["value"] == pytest.approx(1.0070980784e-2,
                                                         abs=1e-6)

    def test_one_qubit_hierarchy_is_input_error(self, runner, tmp_path):
        state_file = tmp_path / "one.json"
        state_file.write_text(json.dumps(
            {"num_qubits": 1, "amplitudes": [[1, 0], [0, 0]]}))
        result = invoke(runner, ["tangle", str(state_file)])
        assert result.exit_code == 2
        assert result.stderr == ("error: tangle hierarchy needs at least "
                                 "2 qubits\n")


class TestCkwCheck:
    def test_ghz3(self, runner, tmp_path, ghz3):
        state_file = tmp_path / "ghz3.json"
        save_state(ghz3, state_file)
        out = tmp_path / "ckw.json"
        result = invoke(runner, ["ckw-check", str(state_file),
                                 "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        validate(payload, "ckw_report.schema.json")
        assert payload["ckw_residual"] == pytest.approx(1.0, abs=1e-9)
        assert payload["saturated_ckw"] is False

    def test_extreme_scale_file_is_rescaled(self, runner, tmp_path):
        # <psi|psi> overflows at 1e200 and underflows to zero at 1e-170;
        # both were rejected ("not finite", "zero norm")
        residuals = []
        for scale, noted in ((2 ** -0.5, False), (1e200, True), (1e-170, True)):
            path = tmp_path / "bell.json"
            path.write_text(json.dumps({"num_qubits": 2, "amplitudes": [
                [scale, 0], [0, 0], [0, 0], [scale, 0]]}))
            result = invoke(runner, ["ckw-check", str(path)])
            assert result.exit_code == 0, result.stderr
            note = f"note: {path} was rescaled to unit norm\n"
            assert result.stderr.startswith(note) is noted, scale
            residuals.append(json.loads(result.stdout)["ckw_residual"])
        assert residuals[1:] == pytest.approx([residuals[0]] * 2, abs=1e-12)

    @pytest.mark.parametrize("tol", ["-0.5", "nan"])
    def test_bad_tolerance_exit_2(self, runner, tmp_path, w3, tol):
        state_file = tmp_path / "w3.json"
        save_state(w3, state_file)
        result = invoke(runner, ["ckw-check", str(state_file),
                                 "--tol-closed", tol])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: tol_closed must be finite")

    def test_violation_exit_3(self, runner, tmp_path, monkeypatch, w3):
        state_file = tmp_path / "w3.json"
        save_state(w3, state_file)
        monkeypatch.setattr(cli, "ckw_residual", lambda *a, **k: -0.5)
        result = invoke(runner, ["ckw-check", str(state_file),
                                 "--out", str(tmp_path / "ckw.json")])
        assert result.exit_code == 3
        assert result.stderr.splitlines()[-1] == (
            "CKW residual is negative beyond tolerance: violation candidate")


class TestSmCheck:
    def test_seed_with_w_seeds_the_roof(self, runner, tmp_path):
        # wclass-gen rejects --seed with --w; here it is the roof seed
        out = tmp_path / "sm.json"
        result = invoke(runner, ["sm-check", "--wclass", "--n", "3", "--w",
                                 "--seed", "5", "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["manifest"]["seed"] == 5

    def test_w4_saturated(self, runner, tmp_path):
        out = tmp_path / "sm.json"
        result = invoke(runner, ["sm-check", "--wclass", "--n", "4", "--w",
                                 "--restarts", "4", "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        validate(payload, "sm_report.schema.json")
        report = payload["reports"][0]
        assert report["saturated_sm"] is True
        assert abs(report["sm_residual"]) <= 1e-6

    def test_ghz4_slack(self, runner, tmp_path):
        state_file = tmp_path / "ghz4.json"
        from monotangle.qstate import ket_from_basis_terms

        save_state(
            ket_from_basis_terms(4, [("0000", 2 ** -0.5), ("1111", 2 ** -0.5)]),
            state_file,
        )
        out = tmp_path / "sm.json"
        result = invoke(runner, ["sm-check", str(state_file),
                                 "--restarts", "4", "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())["reports"][0]
        assert report["sm_residual"] == pytest.approx(1.0, abs=1e-9)
        assert report["saturated_sm"] is False

    def test_sweep_foci_w4(self, runner, tmp_path):
        out = tmp_path / "sm.json"
        result = invoke(runner, ["sm-check", "--wclass", "--n", "4", "--w",
                                 "--sweep-foci", "--restarts", "4",
                                 "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        validate(payload, "sm_report.schema.json")
        assert [r["focus"] for r in payload["reports"]] == [1, 2, 3, 4]
        assert all(r["saturated_sm"] for r in payload["reports"])

    def test_violation_exit_3(self, runner, tmp_path, monkeypatch):
        crafted = MonogamyReport(
            focus=1, num_qubits=3, one_tangle=0.0, terms=(),
            ckw_residual=-0.5, sm_residual=-0.5, saturated_ckw=False,
            saturated_sm=False, sm_violation=True, converged=True,
            tol_closed=1e-9, tol_roof=1e-6, min_pure_tangle_seen=None,
        )
        monkeypatch.setattr(cli, "sm_residual", lambda *a, **k: crafted)
        result = invoke(runner, ["sm-check", "--wclass", "--n", "3", "--w",
                                 "--out", str(tmp_path / "sm.json")])
        assert result.exit_code == 3

    def test_qubit_cap_override(self, runner, tmp_path, monkeypatch, w3):
        state4 = wclass_state(w_state_params(4))
        state_file = tmp_path / "w4.json"
        save_state(state4, state_file)
        monkeypatch.setenv("MONOTANGLE_MAX_QUBITS", "3")
        cap_error = ("error: 4 qubits exceeds the cap of 3; set "
                     "MONOTANGLE_MAX_QUBITS to override\n")
        result = invoke(runner, ["sm-check", str(state_file),
                                 "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 2
        assert result.stderr == cap_error
        for args in (["tangle", str(state_file)],
                     ["batch", "--family", "wclass", "--n", "3..4",
                      "--samples", "1"]):
            result = invoke(runner, args)
            assert result.exit_code == 2
            assert result.stderr == cap_error
        monkeypatch.delenv("MONOTANGLE_MAX_QUBITS")
        result = invoke(runner, ["sm-check", str(state_file), "--restarts",
                                 "4", "--out", str(tmp_path / "y.json")])
        assert result.exit_code == 0

    @pytest.mark.parametrize("flag, tol", [("--tol-roof", "-1"),
                                           ("--tol-closed", "nan")])
    def test_bad_tolerance_exit_2(self, runner, tmp_path, flag, tol):
        # at the parent, --tol-roof -1 flagged the saturating W state as a
        # violation (exit 3) and --tol-closed nan made it unsaturated
        result = invoke(runner, ["sm-check", "--wclass", "--n", "4", "--w",
                                 "--restarts", "4", flag, tol,
                                 "--out", str(tmp_path / "sm.json")])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: tol_")
        assert not (tmp_path / "sm.json").exists()

    def test_missing_source_exit_2(self, runner):
        result = invoke(runner, ["sm-check"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")

    def test_state_at_the_norm_boundary(self, runner, tmp_path):
        # ckw-check accepted this file, and sm-check then exited 2 with
        # "error: trace must be 1" on one of its reductions
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(scaled_state_record(
            haar_random_state(4, 8).amplitudes, 0.99999e-12)))
        for command in ("ckw-check", "sm-check"):
            result = invoke(runner, [command, str(path), "--out",
                                     str(tmp_path / f"{command}.json")])
            assert result.exit_code == 0, result.stderr

    @pytest.mark.parametrize("command", ["tangle", "ckw-check", "sm-check"])
    def test_rescaled_state_file_is_noted(self, runner, tmp_path, command):
        amps = haar_random_state(3, 5).amplitudes
        for excess, noted in ((1e-9, True), (4e-13, False)):
            path = tmp_path / "state.json"
            path.write_text(json.dumps(scaled_state_record(amps, excess)))
            result = invoke(runner, [command, str(path)])
            assert result.exit_code == 0, result.stderr
            note = f"note: {path} was rescaled to unit norm\n"
            assert result.stderr.startswith(note) is noted, excess
            assert "note:" not in result.stdout
            json.loads(result.stdout)

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_state_file_exit_2(self, runner, tmp_path, token):
        # was "internal error: LinAlgError: SVD did not converge"
        amps = [[0.5, 0.0]] * 4 + [[0.0, 0.0]] * 4
        text = json.dumps({"num_qubits": 3, "amplitudes": amps})
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace("0.5", token, 1))
        result = invoke(runner, ["sm-check", str(bad)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "finite" in result.stderr

    def test_internal_failure_exit_2_labelled(self, runner, tmp_path,
                                              monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "sm_residual", broken)
        result = invoke(runner, ["sm-check", "--wclass", "--n", "3", "--w",
                                 "--out", str(tmp_path / "sm.json")])
        assert result.exit_code == 2
        lines = result.stderr.splitlines()
        assert lines[0] == "internal error: RuntimeError: boom"
        assert lines[1] == "Traceback (most recent call last):"
        assert lines[-1] == "RuntimeError: boom"
        assert any("in broken" in line for line in lines)


class TestBatch:
    def test_wclass_rows_and_determinism(self, runner, tmp_path):
        args = ["batch", "--family", "wclass", "--n", "3..4", "--samples", "3",
                "--seed", "1", "--restarts", "4"]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            result = invoke(runner, args + ["--out", str(path)])
            assert result.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        lines = paths[0].read_text().splitlines()
        assert lines[0] == ("n,sample,seed,ckw_residual,sm_residual,"
                            "max_m3plus_term,runtime_ms")
        assert len(lines) == 1 + 6
        for line in lines[1:]:
            fields = line.split(",")
            assert abs(float(fields[4])) <= 1e-6
            assert fields[6] == "0"

    def test_timing_fills_only_runtime(self, runner):
        base = ["batch", "--family", "haar", "--n", "3", "--samples", "4"]
        timed = invoke(runner, base + ["--timing"])
        plain = invoke(runner, base + ["--no-timing"])
        assert timed.exit_code == plain.exit_code == 0
        timed_rows = [line.split(",") for line in timed.stdout.splitlines()]
        plain_rows = [line.split(",") for line in plain.stdout.splitlines()]
        assert timed_rows[0] == plain_rows[0]
        assert len(timed_rows) == len(plain_rows) == 1 + 4
        for got, want in zip(timed_rows[1:], plain_rows[1:]):
            assert got[6].isdigit()
            assert want[6] == "0"
            assert got[:6] == want[:6]

    def test_haar_family_ckw_nonnegative(self, runner, tmp_path):
        out = tmp_path / "haar.csv"
        result = invoke(runner, ["batch", "--family", "haar", "--n", "3",
                                 "--samples", "5", "--seed", "2",
                                 "--out", str(out)])
        assert result.exit_code == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[3]) >= -1e-9

    @pytest.mark.parametrize("rows, jobs", [
        pytest.param(["--n", "3", "--samples", "4", "--seed", "9"], "2",
                     id="4rows-jobs2"),
        pytest.param(["--n", "3..5", "--samples", "5", "--seed", "2"], "2",
                     id="15rows-jobs2"),
        pytest.param(["--n", "3..5", "--samples", "5", "--seed", "2"], "3",
                     id="15rows-jobs3"),
        pytest.param(["--n", "3", "--samples", "1", "--seed", "2"], "2",
                     id="1row-jobs2"),
    ])
    def test_jobs_parallel_matches_serial(self, runner, tmp_path, rows, jobs):
        # 15 rows split evenly into neither 8 nor 12 blocks; 1 row is 1 block
        base = ["batch", "--family", "wclass", "--restarts", "4"] + rows
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert invoke(runner, base + ["--out", str(serial)]).exit_code == 0
        assert invoke(runner, base + ["--jobs", jobs,
                                      "--out", str(parallel)]).exit_code == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_module_entry_pool_matches_serial(self, runner, tmp_path):
        # the benchmark's command: __main__ entry, a fresh interpreter's pool
        args = ["batch", "--family", "haar", "--n", "3", "--samples", "2000",
                "--seed", "13"]
        # the child imports the package this test imported, installed or not
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "monotangle.cli", *args, "--jobs", "2"],
            capture_output=True, timeout=120, check=True, env=env)
        serial = tmp_path / "serial.csv"
        assert invoke(runner, args + ["--out", str(serial)]).exit_code == 0
        assert done.stdout == serial.read_bytes()
        assert done.stdout.count(b"\n") == 2001

    def test_pool_only_for_blocks(self, runner, monkeypatch, pool_sizes):
        # pin the CPU count so that jobs and blocks bound the pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        base = ["batch", "--family", "haar", "--n", "3", "--seed", "4"]
        result = invoke(runner, base + ["--samples", "1", "--jobs", "2"])
        assert result.exit_code == 0
        assert pool_sizes == []
        result = invoke(runner, base + ["--samples", "3", "--jobs", "8"])
        assert result.exit_code == 0
        assert pool_sizes == [3]
        assert len(result.stdout.splitlines()) == 1 + 3

    def test_pool_bounded_by_available_cpus(self, runner, pool_sizes):
        base = ["batch", "--family", "haar", "--n", "3", "--samples", "64",
                "--seed", "5"]
        parallel = invoke(runner, base + ["--jobs", "64"])
        serial = invoke(runner, base + ["--jobs", "1"])
        assert parallel.exit_code == serial.exit_code == 0
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        assert len(pool_sizes) == 1 and pool_sizes[0] <= cpus
        assert parallel.stdout == serial.stdout

    @pytest.mark.parametrize("flag, tol", [("--tol-roof", "-1"),
                                           ("--tol-closed", "nan")])
    def test_bad_tolerance_exit_2(self, runner, monkeypatch, flag, tol):
        # rejected before any block is built or sent to a pool
        def no_pool(*args, **kwargs):
            raise AssertionError("pool started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(cli, "_batch_block", no_pool)
        result = invoke(runner, ["batch", "--family", "haar", "--n", "3",
                                 "--samples", "3", "--jobs", "2", flag, tol])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: tol_")

    def test_worker_input_error_keeps_its_label(self, runner, monkeypatch):
        # the InputError raised in a pool worker is re-raised as one
        monkeypatch.setenv("MONOTANGLE_MAX_QUBITS", "20")
        result = invoke(runner, ["batch", "--family", "wclass", "--n", "13",
                                 "--samples", "2", "--jobs", "2"])
        assert result.exit_code == 2
        assert result.stderr == ("error: num_qubits must be in [1, 12], "
                                 "got 13\n")

    def test_unwritable_path_exit_2(self, runner):
        result = invoke(runner, ["batch", "--family", "wclass", "--n", "3",
                                 "--samples", "1", "--seed", "1",
                                 "--out", "/nonexistent-dir/x.csv"])
        assert result.exit_code == 2

    def test_bad_samples_exit_2(self, runner):
        result = invoke(runner, ["batch", "--family", "wclass", "--n", "3",
                                 "--samples", "0", "--seed", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_exit_2(self, runner, jobs):
        result = invoke(runner, ["batch", "--family", "wclass", "--n", "3",
                                 "--samples", "1", "--jobs", jobs])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")

    def test_bad_range_exit_2(self, runner):
        result = invoke(runner, ["batch", "--family", "wclass", "--n", "x..y",
                                 "--samples", "1"])
        assert result.exit_code == 2

    def test_capped_range_is_rejected_before_allocation(self, runner):
        def rejected():
            result = invoke(runner, ["batch", "--family", "haar", "--n",
                                     "3..1000000", "--samples", "1"])
            assert result.exit_code == 2
            assert result.stderr.startswith("error: 1000000 qubits exceeds")

        assert traced_peak_mb(rejected) < 1.0


@pytest.mark.parametrize("args, message", [
    pytest.param(["wclass-gen", "--n", "3", "--seed", "-1"],
                 "seed must be nonnegative", id="wclass-gen-negative-seed"),
    pytest.param(["sm-check", "--wclass", "--n", "3", "--seed", "-1"],
                 "seed must be nonnegative", id="sm-check-negative-seed"),
    pytest.param(["wclass-gen", "--coeffs", "{tmp}/missing.json"],
                 "cannot read coefficient file", id="unreadable-coeffs"),
    pytest.param(["wclass-gen", "--n", "3"],
                 "need one of --w, --seed, or --coeffs", id="n-alone"),
    pytest.param(["sm-check", "{tmp}/w3.json", "--wclass", "--n", "4",
                  "--w"], "a STATE_FILE and --wclass exclude each other",
                 id="sm-check-file-and-wclass"),
    pytest.param(["sm-check", "{tmp}/w3.json", "--n", "5", "--coeffs",
                  "{tmp}/missing.json"], "--n, --coeffs given without --wclass",
                 id="sm-check-wclass-options-without-wclass"),
    pytest.param(["sm-check", "{tmp}/w3.json", "--w"],
                 "--w given without --wclass",
                 id="sm-check-w-without-wclass"),
    pytest.param(["sm-check", "--wclass", "--w", "--coeffs", "{tmp}/c3.json"],
                 "--w and --coeffs exclude each other",
                 id="sm-check-w-and-coeffs"),
    pytest.param(["wclass-gen", "--n", "5", "--coeffs", "{tmp}/c3.json"],
                 "--n 5 differs from the 3 qubits", id="n-differs-from-coeffs"),
    pytest.param(["wclass-gen", "--n", "3", "--w", "--coeffs",
                  "{tmp}/c3.json"], "--w and --coeffs exclude each other",
                 id="wclass-gen-w-and-coeffs"),
    pytest.param(["wclass-gen", "--n", "3", "--w", "--seed", "1"],
                 "--seed draws coefficients", id="wclass-gen-seed-and-w"),
    pytest.param(["wclass-gen", "--coeffs", "{tmp}/c3.json", "--seed", "1"],
                 "--seed draws coefficients", id="wclass-gen-seed-and-coeffs"),
    pytest.param(["tangle", "{tmp}/w3.json", "--partners", "2,x"],
                 "bad partner list", id="non-integer-partner"),
    pytest.param(["tangle", "{tmp}/w3.json", "--partners", "5"],
                 "labels (5,) exceed the state's 3 qubits",
                 id="partner-beyond-state"),
    pytest.param(["batch", "--family", "haar", "--n", "5..3",
                  "--samples", "1"], "empty qubit range", id="empty-range"),
    pytest.param(["batch", "--family", "haar", "--n", "2", "--samples", "1"],
                 "batch families need n >= 3", id="batch-two-qubits"),
])
def test_input_errors_exit_2(runner, tmp_path, w3, args, message):
    save_state(w3, tmp_path / "w3.json")
    (tmp_path / "c3.json").write_text(json.dumps(
        {"a": [0.0, 0.0], "b": [[0.6, 0.0], [0.48, 0.0], [0.64, 0.0]]}))
    args = [arg.format(tmp=tmp_path) for arg in args]
    result = invoke(runner, args + ["--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {message}")


@pytest.mark.parametrize("digits", [400, 5000])
@pytest.mark.parametrize("command, record", [
    pytest.param("ckw-check",
                 '{"num_qubits": 1, "amplitudes": [[%s, 0], [0, 0]]}',
                 id="ckw-check"),
    pytest.param("wclass-gen --coeffs",
                 '{"a": [%s, 0], "b": [[0.6, 0], [0.8, 0]]}',
                 id="wclass-gen"),
])
def test_oversized_number_is_input_error(runner, tmp_path, command, record,
                                        digits):
    # schema-valid JSON numbers: 400 digits was "internal error:
    # OverflowError" (no float holds it), 5000 "internal error: ValueError"
    # (past the interpreter's int conversion limit, so json cannot read it)
    path = tmp_path / "huge.json"
    path.write_text(record % ("1" + "0" * (digits - 1)))
    result = invoke(runner, command.split()
                    + [str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")


def test_cli_import_leaves_scipy_out():
    # importing scipy.optimize costs more than the whole CLI start-up, so
    # no import on the CLI's path may pull scipy in
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, monotangle.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True, env=env)
    assert done.stdout.strip() == "False"
