import dataclasses
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from patrolplan import cli
from patrolplan.cli import _config_from_args, build_parser, main
from patrolplan.config import PlannerConfig
from patrolplan.model import MAX_RANDOM_TARGETS, generate_random_instance, instance_to_document

REPO = Path(__file__).resolve().parents[1]
INSTANCES = REPO / "instances"


def run_cli(*argv) -> int:
    return main(list(argv))


class TestGen:
    def test_writes_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        code = run_cli("gen", "--targets", "6", "--agents", "2", "--seed", "9",
                       "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["targets"]) == 6
        assert doc["agents"]["count"] == 2

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("gen", "--targets", "5", "--seed", "4", "--out", str(a))
        run_cli("gen", "--targets", "5", "--seed", "4", "--out", str(b))
        assert a.read_text() == b.read_text()


class TestPlanSingle:
    def test_table1_artifacts(self, tmp_path):
        code = run_cli("plan-single", "--instance", str(INSTANCES / "table1.json"),
                       "--out", str(tmp_path))
        assert code == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["format"] == "plan"
        assert len(plan["active"]) == 5
        assert plan["excluded"] == {}
        cycle = json.loads((tmp_path / "cycle.json").read_text())
        assert cycle["metric"] <= plan["predicted_cost"] + 1e-9
        conv = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert conv[0] == "iteration,max_peak_cost"
        values = [float(r.split(",")[1]) for r in conv[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(values[:-1], values[1:]))

    def test_missing_instance_is_usage_error(self, tmp_path):
        code = run_cli("plan-single", "--instance", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path))
        assert code == 2

    def test_nonpositive_tolerance_is_usage_error(self, tmp_path):
        code = run_cli("plan-single", "--instance", str(INSTANCES / "line3.json"),
                       "--tol", "-0.5", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("plan-single", "--tol", "inf"),
        ("plan-single", "--tol", "nan"),
        ("plan-fleet", "--sigma", "nan"),
        ("plan-fleet", "--sigma", "inf"),
    ])
    def test_nonfinite_flag_is_input_error_naming_it(self, tmp_path, capsys, command, flag, value):
        code = run_cli(command, "--instance", str(INSTANCES / "table1.json"), flag, value,
                       "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["type"] == "InstanceError"
        assert flag in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["plan-single", "plan-fleet"])
    def test_directory_instance_is_input_error_naming_it(self, tmp_path, capsys, command):
        code = run_cli(command, "--instance", str(tmp_path), "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "input"
        assert str(tmp_path) in error["message"]

    def test_single_target_instance(self, tmp_path):
        inst = tmp_path / "one.json"
        run_cli("gen", "--targets", "1", "--seed", "3", "--out", str(inst))
        code = run_cli("plan-single", "--instance", str(inst), "--out", str(tmp_path))
        assert code == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert len(plan["instances"]) == 1


    @pytest.mark.parametrize("a, code", [(1e150, 1), (-1e200, 0)])
    def test_drift_near_the_double_range(self, tmp_path, capsys, a, code):
        # scipy's steady-state solve failed on both: a bare LinAlgError,
        # reported as bad input (exit 2), and a residual above tolerance
        doc = json.loads((INSTANCES / "line3.json").read_text())
        doc["targets"][0]["A"] = a
        instance = tmp_path / "line3.json"
        instance.write_text(json.dumps(doc))
        assert run_cli("plan-single", "--instance", str(instance), "--out", str(tmp_path)) == code
        if code:
            # every positive gap's growth overflows: the error says so, with no NaN
            error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert error["error"] == "numeric"
            assert error["type"] == "ConvergenceError"
            assert "overflows the double range" in error["message"]
            assert "nan" not in error["message"].lower()
        else:
            plan = json.loads((tmp_path / "plan.json").read_text())
            assert plan["predicted_cost"] == pytest.approx(8.6611797654185, rel=1e-12)
            assert plan["metric_floor"] <= plan["predicted_cost"]

    @pytest.mark.parametrize("argv", [("plan-single",), ("plan-fleet", "--agents", "2")],
                             ids=["single", "fleet"])
    def test_failed_steady_state_solve_is_numeric_error(self, tmp_path, capsys, argv):
        # scipy's Riccati solver finds no finite solution for this weakly
        # sensed matrix target: its LinAlgError, a ValueError, was reported
        # as bad input (exit 2)
        doc = {
            "targets": [{"id": 1, "A": [[0.1, 1.0], [0.0, 0.1]], "Q": [[1.0, 0.0], [0.0, 1.0]],
                         "H": [[1.0, 0.0]], "R": [[1e16]]},
                        {"id": 2, "A": -0.2, "Q": 1.0, "H": 1.0, "R": 1.0}],
            "edges": [{"i": 1, "j": 2, "d": 1.0}],
        }
        instance = tmp_path / "weak.json"
        instance.write_text(json.dumps(doc))
        assert run_cli(*argv, "--instance", str(instance), "--out", str(tmp_path / "out")) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "numeric"
        assert error["type"] == "EngineError"
        assert "solve_continuous_are" in error["message"]


class TestPlanFleet:
    def test_fleet_artifacts(self, tmp_path):
        code = run_cli("plan-fleet", "--instance", str(INSTANCES / "fleet15.json"),
                       "--out", str(tmp_path))
        assert code == 0
        fleet = json.loads((tmp_path / "fleet.json").read_text())
        assert fleet["num_agents"] == 3
        assert len(fleet["clusters"]) == 3
        assert len(fleet["plans"]) == 3
        for k in range(3):
            assert (tmp_path / f"plan_agent{k + 1}.json").exists()

    def test_agents_exceeding_targets(self, tmp_path):
        code = run_cli("plan-fleet", "--instance", str(INSTANCES / "line3.json"),
                       "--agents", "7", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("plan-fleet", "--instance", str(INSTANCES / "line3.json"), "--agents", "-1"),
        ("plan-fleet", "--instance", str(INSTANCES / "line3.json"), "--agents", "0"),
        ("gen", "--targets", "4", "--agents", "0"),
    ], ids=["fleet-negative", "fleet-zero", "gen-zero"])
    def test_agents_below_one_is_input_error(self, tmp_path, capsys, argv):
        code = run_cli(*argv, "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["type"] == "InstanceError"
        assert "--agents" in error["message"]
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("argv, flag", [
        (("gen", "--targets", "3", "--seed", "-1"), "--seed"),
        (("gen", "--targets", "0"), "--targets"),
        (("gen", "--targets", "-2", "--seed", "1"), "--targets"),
        (("gen", "--targets", str(MAX_RANDOM_TARGETS + 1)), "--targets"),
        (("plan-fleet", "--instance", str(INSTANCES / "fleet15.json"), "--seed", "-1"), "--seed"),
    ], ids=["gen-seed", "gen-zero-targets", "gen-negative-targets", "gen-too-many-targets",
            "fleet-seed"])
    def test_negative_seed_or_no_targets_is_input_error_naming_it(self, tmp_path, capsys,
                                                                   monkeypatch, argv, flag):
        # rejected before any work: no instance is generated, no fleet planned
        monkeypatch.setattr(cli, "generate_random_instance", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(cli, "plan_fleet", mock.Mock(side_effect=AssertionError))
        code = run_cli(*argv, "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["type"] == "InstanceError"
        assert flag in error["message"]
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("d", [150.0, 300.0])
    def test_far_apart_unstable_targets_end_in_a_record(self, tmp_path, capsys, d):
        # five unstable targets (A = 0.5) far apart: the clustering kernel
        # overflowed (d = 150, a bare traceback) or took infinite disparities
        # (d = 300, reported as bad input); the dwell stage still fails on
        # peak costs near 1e222, with the engine's own error
        doc = {
            "targets": [{"id": k, "A": 0.5, "Q": 1.0, "H": 1.0, "R": 1.0} for k in range(1, 6)],
            "edges": [{"i": i, "j": j, "d": d * (1 + 0.1 * (j - i))}
                      for i in range(1, 6) for j in range(i + 1, 6)],
            "agents": {"count": 2},
        }
        instance = tmp_path / "far.json"
        instance.write_text(json.dumps(doc))
        code = run_cli("plan-fleet", "--instance", str(instance), "--out", str(tmp_path / "out"))
        assert code == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "numeric"

    def test_one_agent_delegates_to_single(self, tmp_path):
        code = run_cli("plan-fleet", "--instance", str(INSTANCES / "line3.json"),
                       "--agents", "1", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "plan.json").exists()
        assert not (tmp_path / "fleet.json").exists()


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    out = tmp_path_factory.mktemp("plan")
    assert run_cli("plan-single", "--instance", str(INSTANCES / "line3.json"),
                   "--out", str(out)) == 0
    return out


class TestSimulateAndValidate:
    def test_simulate_writes_trace_and_report(self, planned, tmp_path):
        code = run_cli("simulate", "--instance", str(INSTANCES / "line3.json"),
                       "--plan", str(planned / "plan.json"),
                       "--periods", "6", "--out", str(tmp_path))
        assert code == 0
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("t,")
        report = json.loads((tmp_path / "validation.json").read_text())
        assert report["prediction_consistent"]
        assert report["relative_error"] <= 1e-4

    def test_simulate_holds_one_block_of_trace_text(self, planned, tmp_path, monkeypatch):
        # at the default period count line3's trace.csv is about 105 MB and
        # its columns about 46 MB: holding the whole text would exceed the bound
        simulate, traces = cli.simulate, []

        def simulate_kept(*args, **kwargs):
            traces.append(simulate(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cli, "simulate", simulate_kept)
        tracemalloc.start()
        try:
            code = run_cli("simulate", "--instance", str(INSTANCES / "line3.json"),
                           "--plan", str(planned / "plan.json"), "--out", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        (trace,) = traces
        held = trace.times.nbytes + trace.observed.nbytes + sum(
            col.nbytes for col in trace.norms.values())
        assert peak < held + (tmp_path / "trace.csv").stat().st_size / 4

    def test_validate_reports(self, planned, tmp_path):
        code = run_cli("validate", "--instance", str(INSTANCES / "line3.json"),
                       "--plan", str(planned / "plan.json"),
                       "--periods", "6", "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "validation.json").read_text())
        assert report["metric_floor_holds"]

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_absurd_period_count_is_input_error_naming_it(self, planned, tmp_path, capsys,
                                                          command):
        code = run_cli(command, "--instance", str(INSTANCES / "line3.json"),
                       "--plan", str(planned / "plan.json"),
                       "--periods", "10000000000000", "--out", str(tmp_path))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "input"
        assert "10000000000000 periods" in error["message"]
        assert not (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "validation.json").exists()

    def test_fleet_agent_plan_simulates(self, tmp_path):
        out = tmp_path / "fleet"
        assert run_cli("plan-fleet", "--instance", str(INSTANCES / "fleet15.json"),
                       "--out", str(out)) == 0
        code = run_cli("simulate", "--instance", str(INSTANCES / "fleet15.json"),
                       "--plan", str(out / "plan_agent1.json"),
                       "--periods", "4", "--out", str(tmp_path / "sim"))
        assert code == 0
        report = json.loads((tmp_path / "sim" / "validation.json").read_text())
        assert report["prediction_consistent"]


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before --out was checked")


@pytest.mark.parametrize("command, taken", [
    ("plan-single", "file"),
    ("simulate", "file"),
    ("gen", "directory"),
    # an output file name inside a usable --out taken by a directory
    ("plan-single", "plan.json"),
    ("plan-single", "convergence.csv"),
    ("plan-fleet", "fleet.json"),
    ("plan-fleet", "plan_agent3.json"),
    ("simulate", "trace.csv"),
    ("simulate", "validation.json"),
    ("validate", "validation.json"),
])
def test_unusable_out_is_input_error_naming_it(planned, tmp_path, capsys, monkeypatch,
                                               command, taken):
    out = tmp_path / "taken"
    if taken == "file":
        out.write_text("keep\n")
    elif taken == "directory":
        out.mkdir()
    else:
        (out / taken).mkdir(parents=True)
    for name in ("plan_single_agent", "plan_fleet", "simulate", "generate_random_instance"):
        monkeypatch.setattr(cli, name, _must_not_run)
    checking = ("--instance", str(INSTANCES / "line3.json"), "--plan", str(planned / "plan.json"))
    argv = {
        "plan-single": ("--instance", str(INSTANCES / "line3.json")),
        "plan-fleet": ("--instance", str(INSTANCES / "fleet15.json")),
        "simulate": checking,
        "validate": checking,
        "gen": ("--targets", "3"),
    }[command]
    assert run_cli(command, *argv, "--out", str(out)) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "input"
    assert "--out" in error["message"] and str(out) in error["message"]
    if taken == "file":
        assert out.read_text() == "keep\n"
    elif taken == "directory":
        assert not any(out.iterdir())
    else:
        assert str(out / taken) in error["message"]
        assert [p.name for p in out.iterdir()] == [taken] and not any((out / taken).iterdir())


def _drop_period(doc):
    del doc["period"]


def _visit_unknown_target(doc):
    doc["instances"][1]["target"] = 99


def _cover_unknown_target(doc):
    doc["covers"] = doc["covers"] + [99]


def _drop_leg(doc):
    doc["leg_times"].pop()


def _move_leg(doc):
    doc["leg_times"][0] *= 1.0 + 1e-15


def _null_covers(doc):
    doc["covers"] = None


def _scale_period(factor):
    def corrupt(doc):
        doc["period"] *= factor
    return corrupt


def _set_period(value):
    def corrupt(doc):
        doc["period"] = value
    return corrupt


def _set_first_dwell(value):
    def corrupt(doc):
        next(e for e in doc["instances"] if e["dwell_eligible"])["dwell"] = value
    return corrupt


def _string_eligibility(doc):
    doc["instances"][0]["dwell_eligible"] = str(doc["instances"][0]["dwell_eligible"]).lower()


def _fractional_target(doc):
    doc["instances"][0]["target"] += 0.7   # not an integer, though int() truncates it back


def _string_dwell(doc):
    entry = next(e for e in doc["instances"] if e["dwell_eligible"])
    entry["dwell"] = repr(entry["dwell"])


def _string_period(doc):
    doc["period"] = repr(doc["period"])


def _string_active(doc):
    doc["active"] = [str(tid) for tid in doc["active"]]


def _dwell_without_slot(doc):
    # the dwell stays, so the period still adds up, and its target stays active
    next(e for e in doc["instances"] if e["dwell"] > 0.0)["dwell_eligible"] = False


def _foreign_active(doc):
    doc["active"] = [99]


def _number_covers(doc):
    doc["covers"] = 3


def _set_first_cover(value):
    # True == 1 and hash(True) == hash(1): a set of the entries would take it
    def corrupt(doc):
        doc["covers"][0] = value
    return corrupt


def _set_report(key, value):
    def corrupt(doc):
        doc[key] = value
    return corrupt


def _scale_predicted_cost(doc):
    doc["predicted_cost"] *= 1.0 + 1e-9


def _empty_report(key):
    def corrupt(doc):
        doc[key] = {}
    return corrupt


def _set_active_costs(key, value):
    def corrupt(doc):
        doc[key][str(doc["active"][0])] = value
    return corrupt


def _set_target_costs(key, tid, value):
    def corrupt(doc):
        doc[key][str(tid)] = value
    return corrupt


class TestPlanDocumentChecks:
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("corrupt, field", [
        (_drop_period, "'period'"),
        (_visit_unknown_target, "'instances'"),
        (_cover_unknown_target, "'covers'"),
        (_drop_leg, "'leg_times'"),
        (_move_leg, "'leg_times'"),
        (_null_covers, "'covers'"),
        (_number_covers, "'covers'"),
        (_set_first_cover(True), "'covers'"),
        (_set_first_cover("1"), "'covers'"),
        (_set_first_cover(1.5), "'covers'"),
        (_scale_period(1.5), "'period'"),
        (_set_period(-1.0), "'period'"),
        (_set_period(float("inf")), "'period'"),
        (_set_first_dwell(-0.05), "'instances'"),
        (_set_first_dwell(float("nan")), "'instances'"),
        (_foreign_active, "'active'"),
        (_set_report("predicted_cost", float("nan")), "'predicted_cost'"),
        (_set_report("predicted_cost", -1.0), "'predicted_cost'"),
        (_scale_predicted_cost, "'predicted_cost'"),
        (_set_report("consensus_cost", float("inf")), "'consensus_cost'"),
        (_set_report("consensus_cost", 0), "'consensus_cost'"),
        (_set_report("metric_floor", -1e300), "'metric_floor'"),
        (_empty_report("per_target_cost"), "'per_target_cost'"),
        (_set_active_costs("per_target_cost", float("nan")), "'per_target_cost'"),
        (_empty_report("per_visit_cost"), "'per_visit_cost'"),
        (_set_active_costs("per_visit_cost", []), "'per_visit_cost'"),
        (_set_active_costs("per_visit_cost", [float("inf")]), "'per_visit_cost'"),
        (_string_eligibility, "'instances'"),
        (_fractional_target, "'instances'"),
        (_string_dwell, "'instances'"),
        (_string_period, "'period'"),
        (_string_active, "'active'"),
        (_dwell_without_slot, "'instances'"),
        (_set_target_costs("excluded", 99, 0.5), "'excluded'"),
        (_set_active_costs("excluded", 0.5), "'excluded'"),
        (_set_target_costs("per_target_cost", 77, 0.5), "'per_target_cost'"),
        (_set_target_costs("per_visit_cost", 77, [0.5]), "'per_visit_cost'"),
    ], ids=["missing-key", "unknown-instance-target", "unknown-covers-target", "leg-count",
            "leg-time", "null-covers", "number-covers", "boolean-cover", "string-cover",
            "fractional-cover", "stretched-period", "negative-period",
            "infinite-period", "negative-dwell", "nan-dwell", "foreign-active",
            "nan-predicted-cost", "negative-predicted-cost", "predicted-cost-not-worst",
            "infinite-consensus-cost", "zero-consensus-cost", "negative-metric-floor",
            "empty-per-target-cost", "nan-active-cost", "empty-per-visit-cost",
            "no-active-visit-costs", "infinite-visit-cost", "string-dwell-eligible",
            "fractional-target", "string-dwell", "string-period", "string-active",
            "dwell-without-slot", "foreign-excluded", "active-excluded", "foreign-target-cost",
            "foreign-visit-cost"])
    def test_malformed_plan_is_input_error_naming_field(self, planned, tmp_path, capsys,
                                                        command, corrupt, field):
        doc = json.loads((planned / "plan.json").read_text())
        corrupt(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli(command, "--instance", str(INSTANCES / "line3.json"), "--plan", str(bad),
                       "--periods", "2", "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "input"
        assert field in error["message"]
        assert not (tmp_path / "out" / "validation.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_directory_plan_is_input_error_naming_it(self, tmp_path, capsys, command):
        code = run_cli(command, "--instance", str(INSTANCES / "line3.json"),
                       "--plan", str(tmp_path), "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "input"
        assert str(tmp_path) in error["message"]


@pytest.fixture(scope="module")
def star_fleet(tmp_path_factory):
    """Two agents on the star 2-{1, 3, 4}: the cluster {1, 4} reaches itself
    only through target 2, which another agent covers.  Returns the instance
    path and the plan document whose cycle passes through a foreign target."""
    out = tmp_path_factory.mktemp("star")
    network, fleet = generate_random_instance(4, seed=0, num_agents=2)
    doc = instance_to_document(network, fleet)
    doc["edges"] = [e for e in doc["edges"] if 2 in (e["i"], e["j"])]
    instance = out / "star.json"
    instance.write_text(json.dumps(doc))
    assert run_cli("plan-fleet", "--instance", str(instance), "--out", str(out)) == 0
    for k in (1, 2):
        plan = json.loads((out / f"plan_agent{k}.json").read_text())
        if {i["target"] for i in plan["instances"]} - set(plan["covers"]):
            return instance, plan
    pytest.fail("no agent's cycle passes through a foreign target")


def _dwell_slot_at_foreign_target(doc):
    next(i for i in doc["instances"] if i["target"] not in doc["covers"])["dwell_eligible"] = True


def _dwell_at_foreign_target(doc):
    next(i for i in doc["instances"] if i["target"] not in doc["covers"])["dwell"] = 0.1


class TestSparseFleet:
    def test_plan_passing_through_foreign_target_validates(self, star_fleet, tmp_path):
        instance, plan = star_fleet
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        code = run_cli("validate", "--instance", str(instance), "--plan", str(path),
                       "--periods", "4", "--out", str(tmp_path / "out"))
        assert code == 0
        report = json.loads((tmp_path / "out" / "validation.json").read_text())
        assert report["prediction_consistent"]

    @pytest.mark.parametrize("corrupt", [_dwell_slot_at_foreign_target, _dwell_at_foreign_target],
                             ids=["dwell-slot", "dwell"])
    def test_dwell_outside_covers_is_input_error(self, star_fleet, tmp_path, capsys, corrupt):
        instance, plan = star_fleet
        doc = json.loads(json.dumps(plan))
        corrupt(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = run_cli("validate", "--instance", str(instance), "--plan", str(path),
                       "--periods", "2", "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "input"
        assert "'instances'" in error["message"]


class TestConfigFlags:
    def test_every_config_field_is_set_by_its_flag(self):
        # a PlannerConfig field that no flag sets is a knob without a caller;
        # each flag goes to a subcommand that reads it
        fields = dataclasses.fields(PlannerConfig)
        chosen = {}
        for argv in (
            ["plan-fleet", "--instance", "x.json", "--tol", "1e-5", "--sigma", "0.7",
             "--seed", "5"],
            ["simulate", "--instance", "x.json", "--plan", "p.json", "--periods", "7"],
        ):
            cfg = _config_from_args(build_parser().parse_args(argv))
            chosen.update({f.name: getattr(cfg, f.name) for f in fields
                           if getattr(cfg, f.name) != f.default})
        cfg = PlannerConfig(**chosen)
        assert dataclasses.asdict(cfg) == {
            "balance_tol": 1e-5, "sigma": 0.7, "seed": 5, "num_periods": 7,
        }
        assert all(getattr(cfg, f.name) != f.default for f in dataclasses.fields(PlannerConfig))


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "patrolplan.cli", "gen", "--targets", "3",
             "--seed", "1", "--out", str(tmp_path / "x.json")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0

    @pytest.mark.parametrize("argv", [
        ("gen", "--targets", "3", "--kp", "0.5"),
        ("plan-single", "--instance", str(INSTANCES / "table1.json"), "--sigma", "9"),
        ("simulate", "--instance", str(INSTANCES / "table1.json"), "--plan", "plan.json",
         "--kp", "0.5"),
        # the consensus gain is a constant: no subcommand takes --kp
        ("plan-single", "--instance", str(INSTANCES / "table1.json"), "--kp", "0.5"),
        ("plan-fleet", "--instance", str(INSTANCES / "fleet15.json"), "--kp", "0.5"),
    ], ids=["gen-kp", "plan-single-sigma", "simulate-kp", "plan-single-kp", "plan-fleet-kp"])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exit_:
            run_cli(*argv, "--out", str(tmp_path / "out"))
        assert exit_.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "patrolplan.cli", "plan-single"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2

    def test_import_leaves_scipy_optimize_out(self):
        # importing scipy takes longer than planning table1: only matrix
        # targets and fleet clustering import it, inside the functions that
        # call it, so no module-level import may load any part of it
        result = subprocess.run(
            [sys.executable, "-c",
             "import patrolplan.cli, patrolplan.fleet; import sys; "
             "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
             "assert not loaded, loaded"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_scalar_commands_leave_scipy_out(self, tmp_path):
        table1 = str(INSTANCES / "table1.json")
        script = (
            "import sys\n"
            "from patrolplan.cli import main\n"
            "out = sys.argv[1]\n"
            "assert main(['gen', '--targets', '6', '--seed', '3', '--out', out + '/gen.json']) == 0\n"
            "assert main(['plan-single', '--instance', sys.argv[2], '--out', out + '/plan']) == 0\n"
            "assert main(['simulate', '--instance', sys.argv[2], '--plan', out + '/plan/plan.json',"
            " '--out', out + '/sim']) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        result = subprocess.run([sys.executable, "-c", script, str(tmp_path), table1],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "sim" / "trace.csv").stat().st_size > 0

    def test_matrix_targets_plan_in_a_fresh_process(self, tmp_path):
        # duo2x2's 2x2 targets take scipy's matrix solvers, imported on first use
        result = subprocess.run(
            [sys.executable, "-m", "patrolplan.cli", "plan-single",
             "--instance", str(INSTANCES / "duo2x2.json"), "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads((tmp_path / "plan.json").read_text())["predicted_cost"] > 0
