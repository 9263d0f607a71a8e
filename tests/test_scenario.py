"""Scenario generation and its JSON persistence: fixed draw order,
seed determinism, and exact roundtrips."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from pairband import __version__
from pairband.channel import ChannelGain
from pairband.latency_energy import UserProfile
from pairband.scenario import (
    SCHEMA_VERSION,
    ScenarioTemplate,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)


class TestGeneration:
    def test_counts_and_geometry(self):
        template = ScenarioTemplate(n_users=8, area_m=400.0)
        scn = generate_scenario(template, seed=3)
        assert len(scn.users) == 8
        assert scn.distortions.n == 8
        for u in scn.users:
            x, y = u.position
            assert 0.0 <= x <= 400.0
            assert 0.0 <= y <= 400.0

    def test_channel_fields_are_consistent(self):
        scn = generate_scenario(ScenarioTemplate(), seed=11)
        for u in scn.users:
            ch = u.channel
            expect = 10.0 ** (-(ch.pathloss_db + ch.shadowing_db) / 10.0)
            assert ch.gain_linear == pytest.approx(expect, rel=1e-12)
            assert ch.gain_linear > 0

    def test_minimum_distance_caps_the_gain(self):
        # Even a user drawn onto the cell center is treated as at least
        # min_dist_m away, so the path loss never collapses.
        template = ScenarioTemplate(n_users=2, min_dist_m=10.0)
        floor_pl = 128.1 + 37.6 * math.log10(10.0 / 1000.0)
        for seed in range(30):
            scn = generate_scenario(template, seed)
            for u in scn.users:
                assert u.channel.pathloss_db >= floor_pl - 1e-9

    def test_same_seed_same_instance(self):
        template = ScenarioTemplate()
        a = generate_scenario(template, seed=7)
        b = generate_scenario(template, seed=7)
        assert scenario_to_json(a, "x") == scenario_to_json(b, "x")

    def test_different_seeds_differ(self):
        template = ScenarioTemplate()
        a = generate_scenario(template, seed=1)
        b = generate_scenario(template, seed=2)
        assert scenario_to_json(a, "x") != scenario_to_json(b, "x")

    def test_budget_fields_flow_into_config(self):
        template = ScenarioTemplate(b_max=7.5e6, t_max=1.9, e_max=123.0, d_max=0.9)
        scn = generate_scenario(template, 0)
        assert scn.cfg.b_max == 7.5e6
        assert scn.cfg.t_max == 1.9
        assert scn.cfg.e_max == 123.0
        assert scn.cfg.d_max == 0.9
        assert scn.cfg.group_powers == (1.0,) * 8

    def test_user_draws_respect_template_ranges(self):
        template = ScenarioTemplate()
        scn = generate_scenario(template, 5)
        for u in scn.users:
            assert template.cpu_hz_range[0] <= u.cpu_hz <= template.cpu_hz_range[1]
            assert template.enc_params_range[0] <= u.enc_params <= template.enc_params_range[1]
            assert template.dec_params_range[0] <= u.dec_params <= template.dec_params_range[1]
            assert u.q_bits == template.source_bits

    def test_rejects_odd_population(self):
        with pytest.raises(ValueError):
            ScenarioTemplate(n_users=5)


    @pytest.mark.parametrize(
        "field",
        [f.name for f in fields(ScenarioTemplate) if f.name not in ("n_users", "feature_dim")],
    )
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_nonfinite_fields(self, field, bad):
        value = getattr(ScenarioTemplate(), field)
        bad_value = (value[0], bad) if isinstance(value, tuple) else bad
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            ScenarioTemplate(**{field: bad_value})

    @pytest.mark.parametrize("bad", [5.0e8, (5.0e8, 1.0e9, 1.6e9)], ids=["number", "triple"])
    def test_rejects_a_range_that_is_not_a_pair(self, bad):
        with pytest.raises(ValueError, match=r"cpu_hz_range must be a \(low, high\) pair"):
            ScenarioTemplate(cpu_hz_range=bad)

    def test_rejects_a_tuple_for_a_number(self):
        with pytest.raises(ValueError, match="kappa must be a finite number"):
            ScenarioTemplate(kappa=(5.0,))


class TestJsonRoundtrip:
    def test_full_value_roundtrip(self):
        scn = generate_scenario(ScenarioTemplate(n_users=6), seed=9)
        text = scenario_to_json(scn, __version__)
        back = scenario_from_json(text)
        assert back.cfg == scn.cfg
        assert back.users == scn.users
        assert back.seed == scn.seed
        assert back.template == scn.template
        assert np.array_equal(back.distortions.per_user, scn.distortions.per_user)

    def test_serialization_is_stable(self):
        scn = generate_scenario(ScenarioTemplate(n_users=4), seed=2)
        text = scenario_to_json(scn, __version__)
        again = scenario_to_json(scenario_from_json(text), __version__)
        assert text == again

    def test_document_shape(self):
        scn = generate_scenario(ScenarioTemplate(n_users=4), seed=2)
        doc = json.loads(scenario_to_json(scn, __version__))
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["tool_version"] == __version__
        assert doc["seed"] == 2
        assert len(doc["users"]) == 4
        assert len(doc["distortion"]["per_user"]) == 4

    def test_user_keys_are_the_profile_and_channel_fields(self):
        scn = generate_scenario(ScenarioTemplate(n_users=4), seed=2)
        doc = json.loads(scenario_to_json(scn, __version__))
        profile = {f.name for f in fields(UserProfile)} - {"channel"}
        expected = profile | {f.name for f in fields(ChannelGain)}
        assert [set(u) for u in doc["users"]] == [expected] * 4

    def test_user_noise_psd_roundtrips(self):
        scn = generate_scenario(ScenarioTemplate(n_users=4), seed=2)
        scn = replace(scn, users=(replace(scn.users[0], noise_psd=3.5e-21), *scn.users[1:]))
        text = scenario_to_json(scn, __version__)
        back = scenario_from_json(text)
        assert back.users == scn.users
        assert back.users[0].noise_psd == 3.5e-21
        assert scenario_to_json(back, __version__) == text

    def test_user_without_noise_psd_uses_the_global_psd(self):
        scn = generate_scenario(ScenarioTemplate(n_users=4), seed=2)
        doc = json.loads(scenario_to_json(scn, __version__))
        del doc["users"][1]["noise_psd"]
        assert scenario_from_json(json.dumps(doc)).users == scn.users

    @pytest.mark.parametrize("part", ["template", "config", "user"])
    def test_unknown_key_is_rejected(self, tmp_path, part):
        scn = generate_scenario(ScenarioTemplate(n_users=4), seed=2)
        doc = json.loads(scenario_to_json(scn, __version__))
        (doc["users"][0] if part == "user" else doc[part])["b_maks"] = 5e6
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unexpected keyword argument 'b_maks'"):
            load_scenario(path)

    def test_save_load_files(self, tmp_path):
        scn = generate_scenario(ScenarioTemplate(n_users=4), seed=8)
        path = tmp_path / "scn.json"
        save_scenario(scn, path, __version__)
        loaded = load_scenario(path)
        assert loaded.users == scn.users
        # Re-saving the loaded scenario reproduces the file byte for byte.
        path2 = tmp_path / "scn2.json"
        save_scenario(loaded, path2, __version__)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_wrong_schema_version(self):
        scn = generate_scenario(ScenarioTemplate(n_users=4), seed=1)
        doc = json.loads(scenario_to_json(scn, __version__))
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema"):
            scenario_from_json(json.dumps(doc))

    def test_load_wraps_parse_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid scenario"):
            load_scenario(path)

    def test_load_wraps_missing_fields(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ValueError, match="invalid scenario"):
            load_scenario(path)


class TestUserNumbering:
    @pytest.mark.parametrize(
        "renumber", [lambda k, n: k + 10, lambda k, n: n - 1 - k], ids=["shifted", "reversed"]
    )
    def test_ids_must_equal_positions(self, renumber):
        scn = generate_scenario(ScenarioTemplate(n_users=8), seed=3)
        users = tuple(
            replace(u, id=renumber(k, len(scn.users))) for k, u in enumerate(scn.users)
        )
        with pytest.raises(ValueError, match="user ids must be 0..N-1 in order"):
            replace(scn, users=users)
