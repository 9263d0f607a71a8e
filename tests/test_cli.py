"""Command-line interface: exit codes, output documents, overrides,
and byte-level determinism of every artifact."""

import json
import math
import time
import warnings

import numpy as np
import pytest

from pairband import __version__, bandwidth
from pairband.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVALID_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    METRIC_COLUMNS,
    main,
)
from pairband.distortion import SimilarityModel, synthesize_distortions
from pairband.scenario import ScenarioTemplate, load_scenario
from pairband.solver import STRATEGIES


def run(*argv):
    return main(list(argv))


@pytest.fixture
def small_scenario(tmp_path):
    """A 6-user scenario file with relaxed budgets (fast to solve)."""
    path = tmp_path / "scn.json"
    code = run(
        "gen-scenario",
        "--n", "6",
        "--seed", "3",
        "--output", str(path),
        "--bmax", "12e6",
        "--tmax", "4.0",
        "--emax", "1e4",
    )
    assert code == EXIT_OK
    return path


class TestGenScenario:
    def test_writes_a_loadable_file(self, tmp_path):
        out = tmp_path / "s.json"
        assert run("gen-scenario", "--n", "4", "--output", str(out)) == EXIT_OK
        scn = load_scenario(out)
        assert scn.cfg.n_users == 4
        assert scn.seed == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen-scenario", "--n", "6", "--seed", "9", "--output", str(a))
        run("gen-scenario", "--n", "6", "--seed", "9", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_the_instance(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen-scenario", "--n", "6", "--seed", "1", "--output", str(a))
        run("gen-scenario", "--n", "6", "--seed", "2", "--output", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_budget_overrides_reach_the_config(self, tmp_path):
        out = tmp_path / "s.json"
        run(
            "gen-scenario", "--n", "4", "--output", str(out),
            "--bmax", "7e6", "--tmax", "1.5", "--emax", "90", "--dmax", "0.9",
        )
        scn = load_scenario(out)
        assert scn.cfg.b_max == 7e6
        assert scn.cfg.t_max == 1.5
        assert scn.cfg.e_max == 90.0
        assert scn.cfg.d_max == 0.9
        # The template carries them too so sweeps regenerate correctly.
        assert scn.template.b_max == 7e6

    def test_odd_population_rejected(self, tmp_path):
        code = run("gen-scenario", "--n", "5", "--output", str(tmp_path / "x.json"))
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("n", ["5", "0", "-2"])
    def test_population_is_checked_by_the_template(self, tmp_path, capsys, n):
        out = tmp_path / "x.json"
        assert run("gen-scenario", "--n", n, "--output", str(out)) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == "error: invalid input: n_users must be even and >= 2\n"
        assert not out.exists()

    def test_nonpositive_override_rejected(self, tmp_path):
        code = run(
            "gen-scenario", "--n", "4", "--output", str(tmp_path / "x.json"),
            "--tmax", "-1",
        )
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_area_is_invalid_input(self, tmp_path, capsys, value):
        # A NaN area passed the sign check and died in the position draw
        # with an OverflowError traceback.
        code = run("gen-scenario", "--area-m", value, "--output", str(tmp_path / "x.json"))
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err == "error: invalid input: area_m must be a finite number\n"
        assert not (tmp_path / "x.json").exists()

    def test_external_distortion_table(self, tmp_path):
        # A scenario's own distortion block, saved alone, rebuilds the
        # scenario byte for byte.
        scn, again, tpath = tmp_path / "s.json", tmp_path / "again.json", tmp_path / "t.json"
        assert run("gen-scenario", "--n", "6", "--seed", "5", "--output", str(scn)) == EXIT_OK
        tpath.write_text(json.dumps(json.loads(scn.read_text())["distortion"]))
        code = run(
            "gen-scenario", "--n", "6", "--seed", "5", "--output", str(again),
            "--distortion-file", str(tpath),
        )
        assert code == EXIT_OK
        assert again.read_bytes() == scn.read_bytes()

    def test_asymmetric_table_with_excluded_pairs_roundtrips(self, tmp_path):
        table = synthesize_distortions(np.random.default_rng(0), SimilarityModel(), 4).per_user
        table[0, 1], table[1, 0], table[2, 3] = math.inf, 1 / 3, math.inf
        tpath, out = tmp_path / "t.json", tmp_path / "s.json"
        tpath.write_text(json.dumps({"per_user": table.tolist()}))
        assert "Infinity" in tpath.read_text()
        code = run("gen-scenario", "--n", "4", "--output", str(out), "--distortion-file", str(tpath))
        assert code == EXIT_OK
        assert load_scenario(out).distortions.per_user.tobytes() == table.tobytes()

    def test_external_table_size_mismatch(self, tmp_path, capsys):
        table = synthesize_distortions(
            np.random.default_rng(0), SimilarityModel(), 6
        )
        tpath = tmp_path / "table.json"
        tpath.write_text(json.dumps({"per_user": table.per_user.tolist()}))
        code = run(
            "gen-scenario", "--n", "4", "--output", str(tmp_path / "s.json"),
            "--distortion-file", str(tpath),
        )
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err == "error: invalid input: distortion table size must match cfg.n_users\n"

    def test_malformed_table_rejected(self, tmp_path, capsys):
        tpath = tmp_path / "table.json"
        tpath.write_text('{"per_user": [[0, -3], [0.2, 0]]}')
        code = run(
            "gen-scenario", "--n", "2", "--output", str(tmp_path / "s.json"),
            "--distortion-file", str(tpath),
        )
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == "error: invalid input: negative distortion for pairs: [(0, 1)]\n"
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"perUser": [[0, 1], [1, 0]]}', "invalid distortion file {path}: 'per_user'"),
            ("[[0, 1], [1, 0]]", "a scenario or distortion document must be a JSON object"),
            ('{"per_user": [[0, "high"], [1, 0]]}', "per_user entries must be numbers or null"),
            ('{"per_user": [[0, true], [1, 0]]}', "no field takes a boolean, got true"),
            ('{"per_user": [[0, 1], [1, 0]', "invalid distortion file {path}: Expecting"),
        ],
        ids=["header", "list", "entry", "boolean", "json"],
    )
    def test_unparsable_table_line_is_named(self, tmp_path, capsys, text, message):
        tpath, out = tmp_path / "table.json", tmp_path / "s.json"
        tpath.write_text(text)
        code = run("gen-scenario", "--n", "2", "--output", str(out), "--distortion-file", str(tpath))
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: invalid input: " + message.format(path=tpath))
        assert err.count("\n") == 1
        assert not out.exists()


class TestSolve:
    def test_proposed_run_and_document(self, small_scenario, tmp_path):
        out = tmp_path / "res.json"
        code = run("solve", str(small_scenario), "--output", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["tool_version"] == __version__
        assert doc["command"] == "solve"
        assert doc["strategy"] == "proposed"
        assert doc["feasible"] is True
        assert doc["candidates_tried"] == 1
        assert doc["seed"] == 3
        assert len(doc["matching"]["pairs"]) == 3
        groups = doc["allocation"]["groups"]
        assert len(groups) == 3
        for g in groups:
            assert g["bandwidth_hz"] >= g["lower_bound_hz"] * (1 - 1e-12)
            assert g["group_time_s"] <= 4.0 * (1 + 1e-9)
        used = sum(g["bandwidth_hz"] for g in groups)
        assert used == pytest.approx(doc["allocation"]["bandwidth_used_hz"])
        assert doc["config"]["b_max"] == 12e6

    def test_output_is_byte_identical_across_runs(self, small_scenario, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("solve", str(small_scenario), "--output", str(a))
        run("solve", str(small_scenario), "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("strategy", ["random_equal", "random_kkt"])
    def test_random_strategies_reproducible_via_seed(
        self, small_scenario, tmp_path, strategy
    ):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("solve", str(small_scenario), "--strategy", strategy,
            "--seed", "5", "--output", str(a))
        run("solve", str(small_scenario), "--strategy", strategy,
            "--seed", "5", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_equal_and_kkt_share_the_pairing(self, small_scenario, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("solve", str(small_scenario), "--strategy", "random_equal",
            "--seed", "5", "--output", str(a))
        run("solve", str(small_scenario), "--strategy", "random_kkt",
            "--seed", "5", "--output", str(b))
        pa = json.loads(a.read_text())["matching"]["pairs"]
        pb = json.loads(b.read_text())["matching"]["pairs"]
        assert pa == pb

    def test_budget_override_changes_the_solve(self, small_scenario, tmp_path):
        out = tmp_path / "res.json"
        code = run("solve", str(small_scenario), "--bmax", "8e6",
                   "--output", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["b_max"] == 8e6
        assert doc["overrides"] == {"b_max": 8e6}
        used = doc["allocation"]["bandwidth_used_hz"]
        assert used <= 8e6 * (1 + 1e-9)

    def test_globally_infeasible_exits_4(self, small_scenario, tmp_path):
        code = run("solve", str(small_scenario), "--tmax", "0.05")
        assert code == EXIT_INFEASIBLE

    def test_infeasible_baseline_still_reports(self, small_scenario, tmp_path):
        # Baselines report infeasibility in the document, not the exit
        # code (they always produce a pairing to score).
        out = tmp_path / "res.json"
        code = run("solve", str(small_scenario), "--strategy", "random_equal",
                   "--tmax", "0.05", "--output", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["feasible"] is False
        assert doc["allocation"]["infeasibility_reason"] == "latency"

    def test_unequal_group_powers_are_invalid_input(self, tmp_path, capsys):
        # The instance is globally infeasible: a solve that got past the
        # load would have to enumerate matchings without a certificate.
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--n", "16", "--seed", "0", "--bmax", "2e6",
                   "--output", str(path)) == EXIT_OK
        doc = json.loads(path.read_text())
        doc["config"]["group_powers"][0] = 1.0000001
        path.write_text(json.dumps(doc))
        assert run("solve", str(path)) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: invalid input: group_powers must be equal")

    @pytest.mark.parametrize("renumber", ["shifted", "reversed"])
    def test_misnumbered_users_are_invalid_input(self, tmp_path, capsys, renumber):
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--n", "8", "--seed", "3", "--output", str(path)) == EXIT_OK
        doc = json.loads(path.read_text())
        n = len(doc["users"])
        for k, user in enumerate(doc["users"]):
            user["id"] = k + 10 if renumber == "shifted" else n - 1 - k
        path.write_text(json.dumps(doc))
        for strategy in ("proposed", "random_equal"):
            assert run("solve", str(path), "--strategy", strategy) == EXIT_INVALID_INPUT
            err = capsys.readouterr().err
            assert err.startswith("error: invalid input: user ids must be 0..N-1")
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "part, message",
        [("users", "user count must match"), ("distortion", "distortion table size must match")],
    )
    def test_scenario_parts_of_the_wrong_size_are_invalid_input(
        self, tmp_path, capsys, part, message
    ):
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--n", "8", "--seed", "3", "--output", str(path)) == EXIT_OK
        doc = json.loads(path.read_text())
        if part == "users":
            doc["users"] = doc["users"][:6]
        else:
            doc["distortion"]["per_user"] = [row[:6] for row in doc["distortion"]["per_user"][:6]]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("solve", str(path)) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: invalid input: {message} cfg.n_users\n"

    @pytest.mark.parametrize(
        "value, message",
        [
            (float("nan"), "missing distortion entries for pairs: [(1, 2)]"),
            (-0.5, "negative distortion for pairs: [(1, 2)]"),
        ],
    )
    def test_a_bad_distortion_entry_is_named_by_its_pair(self, tmp_path, capsys, value, message):
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--n", "8", "--seed", "3", "--output", str(path)) == EXIT_OK
        doc = json.loads(path.read_text())
        doc["distortion"]["per_user"][1][2] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("solve", str(path)) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: invalid input: {message}\n"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_psd", 0.0),  # died with ZeroDivisionError
            ("noise_psd", float("nan")),  # exit 1, and a baseline reported a pairing
            ("noise_psd", float("inf")),  # a false infeasibility proof (exit 4)
            ("noise_psd", -1e-20),
            ("energy_coeff", float("nan")),  # feasible with a NaN energy total
            ("dec_params", -1.0),  # feasible with a negative decode delay
            ("enc_params", float("inf")),  # a false infeasibility proof (exit 4)
            ("gain_linear", float("inf")),
        ],
    )
    def test_malformed_user_field_is_invalid_input(self, tmp_path, capsys, field, value):
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--n", "8", "--seed", "3", "--output", str(path)) == EXIT_OK
        doc = json.loads(path.read_text())
        doc["users"][2][field] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        for strategy in ("proposed", "random_equal"):
            assert run("solve", str(path), "--strategy", strategy) == EXIT_INVALID_INPUT
            err = capsys.readouterr().err
            assert err.startswith(f"error: invalid input: {field} must be")
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, field, value",
        [("users", "gain_linear", 1e308), ("users", "noise_psd", 5e-324), ("config", "noise_psd", 5e-324)],
    )
    def test_an_infinite_link_is_invalid_input(self, tmp_path, capsys, section, field, value):
        # g*p/N0 = +inf: random_kkt died with a ZeroDivisionError and the
        # other strategies emitted RuntimeWarnings from a nan rate.
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--n", "4", "--output", str(path)) == EXIT_OK
        doc = json.loads(path.read_text())
        part = doc[section]
        (part[0] if isinstance(part, list) else part)[field] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        for strategy in ("proposed", "random_kkt"):
            assert run("solve", str(path), "--strategy", strategy) == EXIT_INVALID_INPUT
            err = capsys.readouterr().err
            assert err == "error: invalid input: user 0's link g*p/N0 must be positive and finite\n"

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("template", "n_users", 4.0),  # sweep died in numpy with a TypeError
            ("template", "feature_dim", 16.5),
            ("config", "n_users", 4.0),
            (None, "seed", 1.5),  # random_equal died in numpy with a TypeError
            ("users", "id", 0.0),  # passed the renumbering check, 0.0 == 0
        ],
    )
    def test_a_fractional_integer_field_is_invalid_input(
        self, tmp_path, capsys, section, field, value
    ):
        path, out = tmp_path / "scn.json", tmp_path / "m.csv"
        assert run("gen-scenario", "--n", "4", "--output", str(path)) == EXIT_OK
        doc = json.loads(path.read_text())
        part = doc if section is None else doc[section]
        (part[0] if isinstance(part, list) else part)[field] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (
            ("sweep", str(path), "--bmax", "5e6", "--seeds", "2", "--output", str(out)),
            ("solve", str(path), "--strategy", "random_equal"),
        ):
            assert run(*argv) == EXIT_INVALID_INPUT
            assert capsys.readouterr().err == f"error: invalid input: {field} must be an integer\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, value",
        [
            (("template", "feature_dim"), True),  # sweep died with a TypeError
            (("seed",), True),  # the rest were read as 1, with no error
            (("users", 1, "id"), True),
            (("config", "b_max"), True),
            (("users", 0, "q_bits"), True),
            (("distortion", "per_user", 0, 1), False),
        ],
        ids=["feature_dim", "seed", "id", "b_max", "q_bits", "per_user"],
    )
    def test_a_boolean_is_invalid_input(self, tmp_path, capsys, where, value):
        path, out = tmp_path / "scn.json", tmp_path / "m.csv"
        assert run("gen-scenario", "--n", "4", "--output", str(path)) == EXIT_OK
        doc = json.loads(path.read_text())
        part = doc
        for key in where[:-1]:
            part = part[key]
        part[where[-1]] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (
            ("sweep", str(path), "--bmax", "5e6", "--seeds", "2", "--output", str(out)),
            ("solve", str(path), "--strategy", "random_equal"),
        ):
            assert run(*argv) == EXIT_INVALID_INPUT
            message = f"no field takes a boolean, got {json.dumps(value)}"
            assert capsys.readouterr().err == f"error: invalid input: {message}\n"
        assert not out.exists()

    def test_huge_deadline_keeps_baselines_feasible(self, tmp_path, capsys):
        # At T_max = 1e24 s the pair roots lie far below 1 Hz.
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--output", str(path)) == EXIT_OK
        for strategy in ("random_equal", "greedy_equal"):
            assert run("solve", str(path), "--strategy", strategy, "--tmax", "1e24") == EXIT_OK
            assert f"strategy={strategy} [feasible]" in capsys.readouterr().out

    def test_greedy_dead_end_is_not_an_infeasibility_proof(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--n", "8", "--seed", "1", "--dmax", "0.9", "--tmax", "10",
                   "--emax", "1e4", "--bmax", "40e6", "--output", str(path)) == EXIT_OK
        capsys.readouterr()
        assert run("solve", str(path), "--strategy", "greedy_equal") == EXIT_OK
        out = capsys.readouterr().out
        assert "no feasible pairing exists" not in out
        assert "the pairing rule found no pairing within the quality cap" in out
        assert run("solve", str(path)) == EXIT_OK
        assert "strategy=proposed [feasible]" in capsys.readouterr().out

    def test_very_wide_band_is_split(self, tmp_path, capsys):
        # At B_max = 1e20 Hz every group sits deep in its wide band, where
        # the two terms of F' nearly cancel; the allocator must still
        # converge rather than exit 1.
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--n", "8", "--seed", "3", "--output", str(path)) == EXIT_OK
        capsys.readouterr()
        assert run("solve", str(path), "--bmax", "1e20") == EXIT_OK
        assert "strategy=proposed [feasible]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "n, b_max, extra",
        [
            ("8", "1e100", ()),
            ("8", "1e308", ()),
            ("8", "1e8", ("--tmax", "1e300")),
            ("2", "5e-159", ("--tmax", "1e165", "--emax", "1e300")),
        ],
        ids=["bmax-1e100", "bmax-1e308", "tmax-1e300", "n2-tmax-1e165"],
    )
    def test_any_finite_band_is_split(self, tmp_path, capsys, n, b_max, extra):
        # The first three once exited 1: the multiplier search ran out of
        # steps, and at T_max = 1e300 theta_max was infinite.  Then two
        # were split short of the band, because their multiplier left
        # the float range: at 1e308 psi^-1 was nan below it, and at
        # n2-tmax-1e165 the group was held at its bound above it.  The
        # level sqrt(pq/theta) that fills a band is finite with the band.
        path, doc = tmp_path / "scn.json", tmp_path / "out.json"
        seed = "1" if n == "8" else "0"
        assert run("gen-scenario", "--n", n, "--seed", seed, "--output", str(path)) == EXIT_OK
        capsys.readouterr()
        assert run("solve", str(path), "--bmax", b_max, *extra, "--output", str(doc)) == EXIT_OK
        assert "strategy=proposed [feasible]" in capsys.readouterr().out
        used = math.fsum(g["bandwidth_hz"] for g in json.loads(doc.read_text())["allocation"]["groups"])
        assert math.isfinite(used)
        assert float(b_max) * (1.0 - 1e-9) <= used <= float(b_max) * (1.0 + 1e-9)

    def test_band_whose_multiplier_is_subnormal_is_split(self, tmp_path, capsys):
        # theta* lies among the subnormals, where many log theta round to
        # one float: the search's ends met on adjacent floats, neither
        # within 1e-9 of B_max, and it ran into its step cap (exit 1).
        path, doc = tmp_path / "scn.json", tmp_path / "d.json"
        assert run("gen-scenario", "--n", "16", "--seed", "0", "--output", str(path)) == EXIT_OK
        capsys.readouterr()
        assert run("solve", str(path), "--bmax", "1e163", "--output", str(doc)) == EXIT_OK
        assert "strategy=proposed [feasible]" in capsys.readouterr().out
        used = math.fsum(g["bandwidth_hz"] for g in json.loads(doc.read_text())["allocation"]["groups"])
        assert used <= 1e163 * (1.0 + 1e-9)

    @pytest.mark.parametrize(
        "n, seed, strategy, budgets",
        [
            # Subnormal bands: the objective's finite terms sum past the
            # float range (OverflowError in fsum).
            ("4", "19", "random_kkt", ("--bmax", "5e-324", "--tmax", "1e308")),
            # No float theta fills a 1e-300 Hz band: theta*x^2/(p*Q)
            # overflows above the split's jump, and the regula falsi ran
            # into its step cap (exit 1).
            ("2", "18", "proposed", ("--bmax", "1e-300", "--tmax", "1e308", "--emax", "2.5")),
            ("6", "13", "proposed", ("--bmax", "1e-300", "--tmax", "1e308")),
            # An infinite theta_max: psi divided by zero on stderr.
            ("8", "1", "proposed", ("--bmax", "1e3", "--tmax", "1e300")),
            # Each pair's transmit energy is near the largest float, so the
            # energy bound's MWPM summed prices past it (OverflowError).
            ("4", "0", "proposed", ("--bmax", "5e-302", "--tmax", "1e308")),
        ],
        ids=["objective-overflow", "stall-n2", "stall-n6", "theta-max-overflow", "price-overflow"],
    )
    def test_float_range_budgets_get_an_answer(
        self, tmp_path, capsys, n, seed, strategy, budgets
    ):
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--n", n, "--seed", seed, "--output", str(path)) == EXIT_OK
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("solve", str(path), "--strategy", strategy, *budgets)
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "strategy, exit_code, verdict",
        [
            ("proposed", EXIT_INFEASIBLE, "no feasible pairing exists (candidates tried: 1)"),
            ("random_kkt", EXIT_OK, "strategy=random_kkt [infeasible (energy)]"),
            ("random_equal", EXIT_OK, "strategy=random_equal [infeasible (energy)]"),
        ],
        ids=["proposed", "random_kkt", "random_equal"],
    )
    def test_an_infinite_transmit_energy_fails_the_budget(
        self, tmp_path, capsys, strategy, exit_code, verdict
    ):
        # A band 1e-10 above the bounds' sum: each group's transmit energy
        # is finite but near the largest float, and their sum overflows to
        # +inf, which once passed the 200 J budget as [feasible].
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--n", "4", "--seed", "0", "--output", str(path)) == EXIT_OK
        capsys.readouterr()
        budgets = ("--tmax", "1e308", "--bmax", "2.600000000261591e-302")
        assert run("solve", str(path), "--strategy", strategy, *budgets) == exit_code
        out = capsys.readouterr().out
        assert verdict in out
        assert "[feasible]" not in out

    @pytest.mark.parametrize("n", ["4", "16"])
    @pytest.mark.parametrize(
        "section, field, value",
        [("config", "bs_energy_coeff", 1e308), ("config", "bs_cpu_hz", 1e200), ("users", "cpu_hz", 1e200)],
        ids=["bs_energy_coeff", "bs_cpu_hz", "cpu_hz"],
    )
    def test_an_overflowing_compute_energy_fails_the_budget(
        self, tmp_path, capsys, section, field, value, n
    ):
        # A compute energy past the largest float: +inf passed the 200 J
        # budget as [feasible] (the energy bound was silent too, so a
        # proposed solve would have walked every matching), and a CPU
        # rate whose square overflows died with an OverflowError.
        path, out = tmp_path / "scn.json", tmp_path / "res.json"
        assert run("gen-scenario", "--n", n, "--seed", "0", "--output", str(path)) == EXIT_OK
        doc = json.loads(path.read_text())
        part = doc[section]
        (part[0] if isinstance(part, list) else part)[field] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("solve", str(path)) == EXIT_INFEASIBLE
        assert "no feasible pairing exists (candidates tried: 1)" in capsys.readouterr().out
        for strategy in STRATEGIES[1:]:
            assert run("solve", str(path), "--strategy", strategy, "--output", str(out)) == EXIT_OK
            printed = capsys.readouterr()
            # At N = 16 the 5 MHz equal split already misses the deadline.
            assert "[infeasible (energy)]" in printed.out or n == "16" and "[infeasible (" in printed.out
            assert printed.err == ""
            assert json.loads(out.read_text())["allocation"]["energy_total_j"] == math.inf

    @pytest.mark.parametrize(
        "n, seed, budget",
        [("32", "0", ("--bmax", "20e6")), ("16", "1", ("--emax", "95"))],
        ids=["hang-A", "hang-B"],
    )
    def test_energy_bound_decides_former_hangs(
        self, tmp_path, capsys, monkeypatch, n, seed, budget
    ):
        # Energy binds on every matching, which the b_min certificate
        # cannot see: the walk used to run through all (N-1)!! of them.
        # q at candidate 1's own multiplier proves it from the half-edge
        # bound alone, with no MWPM.
        path = tmp_path / "scn.json"
        assert run("gen-scenario", "--n", n, "--seed", seed, "--output", str(path)) == EXIT_OK
        capsys.readouterr()
        bound_mwpms = []
        original = bandwidth.mwpm

        def spy(costs):
            bound_mwpms.append(1)
            return original(costs)

        monkeypatch.setattr(bandwidth, "mwpm", spy)
        start = time.perf_counter()
        assert run("solve", str(path), *budget) == EXIT_INFEASIBLE
        assert time.perf_counter() - start < 2.0
        out = capsys.readouterr().out
        assert "no feasible pairing exists (candidates tried: 1)" in out
        assert len(bound_mwpms) == 0

    def test_missing_scenario_file(self, tmp_path):
        assert run("solve", str(tmp_path / "nope.json")) == EXIT_INVALID_INPUT

    def test_corrupt_scenario_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert run("solve", str(path)) == EXIT_INVALID_INPUT

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-scenario", "--distortion-file", "{missing}", "--output", "{tmp}/x.json"),
            ("gen-scenario", "--output", "{missing}/x.json"),
            ("solve", "{scenario}", "--output", "{missing}/r.json"),
            ("sweep", "{scenario}", "--bmax", "5e6", "--seeds", "2", "--output", "{missing}/r.csv"),
            ("solve", "{tmp}"),
            ("solve", "{tmp}/list.json"),
        ],
        ids=["distortion-file", "gen-output", "solve-output", "sweep-output", "directory", "list"],
    )
    def test_unusable_files_are_invalid_input(self, small_scenario, tmp_path, capsys, argv):
        # Each of these died with a traceback (exit 1).
        (tmp_path / "list.json").write_text("[1, 2]")
        fields = {"missing": tmp_path / "nope", "tmp": tmp_path, "scenario": small_scenario}
        capsys.readouterr()
        assert run(*(arg.format(**fields) for arg in argv)) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_strategy_is_a_usage_error(self, small_scenario):
        with pytest.raises(SystemExit) as exc:
            run("solve", str(small_scenario), "--strategy", "annealing")
        assert exc.value.code == EXIT_USAGE

    def test_zero_payload_is_invalid_input(self, small_scenario, tmp_path, capsys):
        doc = json.loads(small_scenario.read_text())
        doc["config"]["payload_bits"] = 0
        path = tmp_path / "zero_payload.json"
        path.write_text(json.dumps(doc))
        assert run("solve", str(path)) == EXIT_INVALID_INPUT
        assert "payload_bits must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--bmax", "--tmax", "--emax", "--dmax"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_budget_is_invalid_input(self, small_scenario, capsys, flag, value):
        # A NaN budget passes every "<= 0" check, and an infinite B_max
        # makes every pair root infinite, which reads as a proof (exit 4).
        assert run("solve", str(small_scenario), flag, value) == EXIT_INVALID_INPUT
        assert "must be positive and finite" in capsys.readouterr().err

    def test_window_flag_is_gone(self, small_scenario):
        with pytest.raises(SystemExit) as exc:
            run("solve", str(small_scenario), "--w-count", "4")
        assert exc.value.code == EXIT_USAGE

    def test_numerical_failure_exits_1(self, small_scenario, monkeypatch, capsys):
        def failing_solve(*args, **kwargs):
            raise RuntimeError("bracket expansion failed for b_min")

        monkeypatch.setattr("pairband.cli.solve", failing_solve)
        assert run("solve", str(small_scenario)) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "error: numerical failure: bracket expansion failed for b_min\n"


class TestSweep:
    def test_rows_and_preamble(self, small_scenario, tmp_path):
        out = tmp_path / "metrics.csv"
        code = run(
            "sweep", str(small_scenario),
            "--bmax", "6e6,9e6",
            "--strategy", "proposed", "--strategy", "greedy_equal",
            "--seeds", "2",
            "--output", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        preamble = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert any(l.startswith(f"# tool_version={__version__}") for l in preamble)
        assert any("seeds=0,1" in l for l in preamble)
        assert not any("jobs" in l for l in preamble)
        assert not any("w_count" in l for l in preamble)
        assert body[0] == ",".join(METRIC_COLUMNS)
        assert len(body) == 1 + 2 * 2  # header + bmax grid x strategies
        first = body[1].split(",")
        assert first[0] == "6000000.0"
        assert first[1] == "proposed"

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--tmax", "0.5", "t_max"), ("--emax", "1.0", "e_max"), ("--dmax", "0.01", "d_max")],
    )
    def test_budget_overrides_reach_every_draw(self, small_scenario, tmp_path, flag, value, key):
        out = tmp_path / "m.csv"
        code = run(
            "sweep", str(small_scenario), "--bmax", "9e6", "--strategy", "proposed",
            "--seeds", "2", flag, value, "--output", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert f'# overrides={{"{key}": {value}}}' in lines
        row = dict(zip(METRIC_COLUMNS, lines[-1].split(",")))
        assert row["n_feasible"] == "0"
        assert row["mean_bandwidth_used"] == "nan"

    def test_rerun_is_byte_identical(self, small_scenario, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(
                "sweep", str(small_scenario),
                "--bmax", "6e6,9e6", "--strategy", "proposed",
                "--seeds", "3", "--output", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_output_matches_serial(self, small_scenario, tmp_path):
        a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        common = [
            "sweep", str(small_scenario),
            "--bmax", "6e6,9e6",
            "--strategy", "proposed", "--strategy", "random_kkt",
            "--seeds", "4",
        ]
        run(*common, "--jobs", "1", "--output", str(a))
        run(*common, "--jobs", "3", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_seed_list(self, small_scenario, tmp_path):
        out = tmp_path / "m.csv"
        code = run(
            "sweep", str(small_scenario), "--bmax", "9e6",
            "--strategy", "greedy_equal", "--seeds", "7,11",
            "--output", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert any("seeds=7,11" in l for l in lines)
        row = lines[-1].split(",")
        assert row[METRIC_COLUMNS.index("n_seeds")] == "2"

    def test_single_cell_agrees_with_solve(self, tmp_path):
        # A sweep cell regenerates the scenario from the embedded
        # template, so a fresh gen-scenario at the same (seed, B_max)
        # must yield the same distortion through the solve command.
        scn_path = tmp_path / "s.json"
        run("gen-scenario", "--n", "6", "--seed", "0", "--output", str(scn_path),
            "--bmax", "9e6", "--tmax", "4.0", "--emax", "1e4")
        out_csv = tmp_path / "m.csv"
        run("sweep", str(scn_path), "--bmax", "9e6", "--strategy", "proposed",
            "--seeds", "1", "--output", str(out_csv))
        res_json = tmp_path / "r.json"
        run("solve", str(scn_path), "--output", str(res_json))
        doc = json.loads(res_json.read_text())
        row = out_csv.read_text().splitlines()[-1].split(",")
        mean_distortion = float(row[METRIC_COLUMNS.index("mean_total_distortion")])
        assert mean_distortion == pytest.approx(doc["total_distortion"], rel=1e-12)

    def test_unsorted_bmax_rejected(self, small_scenario, tmp_path):
        code = run(
            "sweep", str(small_scenario), "--bmax", "9e6,6e6",
            "--seeds", "1", "--output", str(tmp_path / "m.csv"),
        )
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--bmax", "6e6,6e6"], "strictly ascending"),
            (["--bmax", "9e6", "--strategy", "proposed", "--strategy", "proposed"],
             "strategies must be distinct"),
            (["--bmax", "9e6", "--seeds", "1,1"], "seeds must be distinct"),
        ],
        ids=["bmax", "strategy", "seeds"],
    )
    def test_duplicates_rejected(self, small_scenario, tmp_path, capsys, args, message):
        out = tmp_path / "m.csv"
        code = run("sweep", str(small_scenario), *args, "--output", str(out))
        assert code == EXIT_INVALID_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_seed_list_rejected(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = run("sweep", str(small_scenario), "--bmax", "9e6", "--seeds", ",", "--output", str(out))
        assert code == EXIT_INVALID_INPUT
        assert "seeds must be non-empty" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_seed_spec_rejected(self, small_scenario, tmp_path):
        code = run(
            "sweep", str(small_scenario), "--bmax", "9e6",
            "--seeds", "zero", "--output", str(tmp_path / "m.csv"),
        )
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, small_scenario, tmp_path, capsys, jobs):
        code = run(
            "sweep", str(small_scenario), "--bmax", "9e6", "--seeds", "1",
            "--jobs", jobs, "--output", str(tmp_path / "m.csv"),
        )
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: invalid input: jobs must be >= 1, got {jobs}\n"
        assert not (tmp_path / "m.csv").exists()

    def test_template_range_of_three_is_invalid_input(self, small_scenario, tmp_path, capsys):
        # The draw passed all three to numpy's uniform: a TypeError traceback.
        doc = json.loads(small_scenario.read_text())
        doc["template"]["cpu_hz_range"] = [5e8, 1e9, 1.6e9]
        path, out = tmp_path / "range.json", tmp_path / "m.csv"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("sweep", str(path), "--bmax", "9e6", "--seeds", "1", "--output", str(out))
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err == "error: invalid input: cpu_hz_range must be a (low, high) pair\n"
        assert not out.exists()

    def test_bad_bmax_literal_is_a_usage_error(self, small_scenario, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                "sweep", str(small_scenario), "--bmax", "wide",
                "--output", str(tmp_path / "m.csv"),
            )
        assert exc.value.code == EXIT_USAGE


BUDGET_FLAGS = {"b_max": ("--bmax", "7e6"), "t_max": ("--tmax", "3.5"),
                "e_max": ("--emax", "150"), "d_max": ("--dmax", "0.95")}


def _budget_run(command, scenario, out, flag, value):
    """``pairband <command>`` with one budget flag, writing to ``out``."""
    if command == "gen-scenario":
        return run(command, "--n", "4", "--output", str(out), f"{flag}={value}")
    extra = ("--bmax", "9e6", "--seeds", "1", "--strategy", "greedy_equal") if command == "sweep" else ()
    return run(command, str(scenario), *extra, "--output", str(out), f"{flag}={value}")


COMMAND_FIELDS = [
    (command, field)
    for command in ("gen-scenario", "solve", "sweep")
    for field in BUDGET_FLAGS
    if (command, field) != ("sweep", "b_max")  # there --bmax is the list of budgets
]


class TestBudgetFlags:
    """Each budget flag fills the config field of its name, and the
    config and the template check its value."""

    @pytest.mark.parametrize("command, field", COMMAND_FIELDS)
    def test_flag_lands_in_its_field(self, small_scenario, tmp_path, command, field):
        flag, value = BUDGET_FLAGS[field]
        out = tmp_path / "out"
        assert _budget_run(command, small_scenario, out, flag, value) == EXIT_OK
        if command == "gen-scenario":
            doc = json.loads(out.read_text())
            assert doc["config"][field] == doc["template"][field] == float(value)
            for other in set(BUDGET_FLAGS) - {field}:
                assert doc["config"][other] == getattr(ScenarioTemplate(), other)
        elif command == "solve":
            doc = json.loads(out.read_text())
            assert doc["config"][field] == float(value)
            assert doc["overrides"] == {field: float(value)}
        else:
            assert f'# overrides={{"{field}": {float(value)!r}}}' in out.read_text().splitlines()

    @pytest.mark.parametrize("command, field", COMMAND_FIELDS)
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_invalid_value_is_named_by_its_field(
        self, small_scenario, tmp_path, capsys, command, field, value
    ):
        out = tmp_path / "out"
        capsys.readouterr()
        code = _budget_run(command, small_scenario, out, BUDGET_FLAGS[field][0], value)
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid input: {field} must be ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()


class TestTopLevel:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("optimize-everything")
        assert exc.value.code == EXIT_USAGE

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_exit_codes_are_distinct(self):
        codes = {EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE, EXIT_INVALID_INPUT, EXIT_INFEASIBLE}
        assert len(codes) == 5
