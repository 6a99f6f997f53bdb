"""Experiment harness and CLI: seeding, configs, payloads, subprocess runs."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from vrecover.config import load_tolerances
from vrecover.errors import InvalidInputError
from vrecover.harness import (
    CSV_HEADER,
    ExperimentConfig,
    TrialRecord,
    _phase_aligned_errs,
    _redraw_extra_row,
    check_payload_consistency,
    derive_seed,
    generate_trial,
    instance_from_payload,
    pairs,
    parse_rule,
    run_campaign,
    run_trial,
    unpairs,
    write_csv,
)
from vrecover.recover_phase import PhaseInstance
from vrecover.recover_phaseless import PhaselessInstance
from vrecover.structmat import vandermonde


def cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("VRECOVER_TOL_OVERRIDES", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "vrecover.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def config_dict(**kw):
    base = {
        "mode": "r1",
        "s_list": [1],
        "n_rule": "2s",
        "m_rule": "2s",
        "trials": 2,
        "master_seed": 7,
    }
    base.update(kw)
    return base


def worked_r1_payload():
    return {
        "mode": "r1",
        "n": 2,
        "s": 1,
        "m": 2,
        "seed": 1,
        "sample_mode": "harmonic",
        "gamma": 0.0,
        "grid": None,
        "x": None,
        "extra_row": None,
        "z": [[1.0, 0.0], [-1.0, 0.0]],
        "theta": [[2.0, 0.0]],
        "g": [[3.0, 0.0]],
        "y": [[9.0, 0.0], [-3.0, 0.0]],
    }


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seen = {derive_seed(42, i) for i in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= v < 2**64 for v in seen)
    assert derive_seed(42, 0) != derive_seed(43, 0)


def test_complex_json_round_trip():
    rng = np.random.default_rng(3)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    back = unpairs(pairs(v))
    assert np.array_equal(back, v)
    encoded = pairs(v)
    assert all(isinstance(p, list) and len(p) == 2 for p in encoded)


def test_parse_rule_forms():
    assert parse_rule("2s", 3) == 6
    assert parse_rule("4s-1", 2) == 7
    assert parse_rule("8s-3", 3) == 21
    assert parse_rule("s+2", 5) == 7
    assert parse_rule("s", 4) == 4
    assert parse_rule("12", 9) == 12
    assert parse_rule(" 3 s ", 2) == 6


def test_parse_rule_rejects_garbage():
    for rule in ("", "2x", "s*2", "4s-", "ss"):
        with pytest.raises(InvalidInputError):
            parse_rule(rule, 2)


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(InvalidInputError):
        ExperimentConfig.from_dict(config_dict(extra_knob=1))
    partial = config_dict()
    del partial["n_rule"]
    with pytest.raises(InvalidInputError):
        ExperimentConfig.from_dict(partial)
    with pytest.raises(InvalidInputError):
        ExperimentConfig.from_dict(config_dict(mode="r9"))


def test_config_floor_checks():
    # phase mode below the sample floor
    with pytest.raises(InvalidInputError):
        ExperimentConfig.from_dict(config_dict(m_rule="s"))
    # harmonic draws are the n-th roots rotated, so m cannot exceed n
    with pytest.raises(InvalidInputError):
        ExperimentConfig.from_dict(config_dict(m_rule="3s"))
    # phaseless harmonic at gamma 0 would put every grid support on the
    # rotation and zero out the data
    with pytest.raises(InvalidInputError):
        ExperimentConfig.from_dict(
            config_dict(mode="r4", n_rule="4s-1", m_rule="4s-1", gamma=0.0)
        )
    cfg = ExperimentConfig.from_dict(
        config_dict(mode="r4", s_list=[2], n_rule="4s-1", m_rule="4s-1", gamma=1.0)
    )
    assert cfg.trials == 2 and cfg.s_list == (2,)


def test_generate_trial_consistent_every_mode():
    setups = [
        config_dict(mode="r1", s_list=[2]),
        config_dict(mode="r1", s_list=[2], sample_mode="arbitrary", m_rule="3s"),
        config_dict(mode="r2", s_list=[2], n_rule="2s+1", m_rule="2s"),
        config_dict(mode="r4", s_list=[2], n_rule="4s-1", m_rule="4s-1", gamma=1.0),
        config_dict(
            mode="r5", s_list=[2], n_rule="4s-1", m_rule="8s-3",
            sample_mode="arbitrary",
        ),
        config_dict(mode="r3", s_list=[1], n_rule="4s+3", m_rule="4s-1", gamma=1.0),
    ]
    for raw in setups:
        config = ExperimentConfig.from_dict(raw)
        for index in range(2):
            payload = generate_trial(config, config.s_list[0], index)
            check_payload_consistency(payload)
            again = generate_trial(config, config.s_list[0], index)
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                again, sort_keys=True
            )


def test_generated_y_is_the_matrix_route_bit_for_bit():
    """The oracle's second routes only certify; the stored y is V(z)^T V(theta) g."""
    setups = [
        config_dict(mode="r1", s_list=[3], sample_mode="arbitrary", m_rule="3s"),
        config_dict(mode="r2", s_list=[2], n_rule="2s+1", m_rule="2s"),
        config_dict(mode="r4", s_list=[3], n_rule="4s-1", m_rule="4s-1", gamma=1.0),
        config_dict(
            mode="r5", s_list=[3], n_rule="4s-1", m_rule="8s-3",
            sample_mode="arbitrary",
        ),
        config_dict(mode="r3", s_list=[2], n_rule="4s+3", m_rule="4s-1", gamma=1.0),
    ]
    for raw in setups:
        config = ExperimentConfig.from_dict(raw)
        for index in range(3):
            payload = generate_trial(config, config.s_list[0], index)
            n = payload["n"]
            z = unpairs(payload["z"])
            rows = vandermonde(z, n).T @ vandermonde(unpairs(payload["theta"]), n)
            via_matrix = rows @ unpairs(payload["g"])
            if config.mode in ("r1", "r2"):
                assert np.array_equal(unpairs(payload["y"]), via_matrix)
            else:
                assert payload["y"] == [float(v) for v in np.abs(via_matrix) ** 2]


def test_generated_seeds_differ_per_trial():
    config = ExperimentConfig.from_dict(config_dict())
    p0 = generate_trial(config, 1, 0)
    p1 = generate_trial(config, 1, 1)
    assert p0["seed"] != p1["seed"]
    assert p0["y"] != p1["y"]


def test_instance_round_trip():
    config = ExperimentConfig.from_dict(config_dict(s_list=[2]))
    inst = instance_from_payload(generate_trial(config, 2, 0))
    assert isinstance(inst, PhaseInstance)
    assert inst.m == 4
    config = ExperimentConfig.from_dict(
        config_dict(mode="r5", s_list=[2], n_rule="4s-1", m_rule="8s-3",
                    sample_mode="arbitrary")
    )
    inst = instance_from_payload(generate_trial(config, 2, 0))
    assert isinstance(inst, PhaselessInstance)
    assert inst.m == 13 and inst.extra_row is not None


def test_run_trial_success_and_csv_shape():
    config = ExperimentConfig.from_dict(config_dict(s_list=[2]))
    payload = generate_trial(config, 2, 0)
    payload["trial"] = 0
    record = run_trial(payload)
    assert record.success is True
    assert record.S == 2
    assert record.theta_err <= 1e-6 and record.g_err <= 1e-6
    row = record.csv_row()
    assert len(row.split(",")) == len(CSV_HEADER.split(",")) == 13
    assert record.runtime_ms >= 0.0


def test_run_trial_dual_branch_counts():
    config = ExperimentConfig.from_dict(
        config_dict(mode="r5", s_list=[2], n_rule="4s-1", m_rule="8s-3",
                    sample_mode="arbitrary", master_seed=11)
    )
    payload = generate_trial(config, 2, 0)
    payload["trial"] = 0
    record = run_trial(payload)
    assert record.success is True
    assert record.branch == "DualPair"
    assert record.candidate_count == 2


def test_run_campaign_and_write_csv(tmp_path):
    config = ExperimentConfig.from_dict(config_dict(s_list=[1, 2], trials=3))
    records, summaries = run_campaign(config)
    assert len(records) == 6 and len(summaries) == 2
    assert all(r.success for r in records)
    assert all(s.trial == "summary" and s.success == 1.0 for s in summaries)
    out = tmp_path / "table.csv"
    write_csv(str(out), records, summaries)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 6 + 2
    assert lines[-1].startswith("summary,")
    assert all("," not in r.warnings for r in records)


def _outcome(record: TrialRecord) -> tuple:
    return (record.trial, record.success, record.S, record.branch,
            record.candidate_count, record.warnings)


# (campaign, tolerance overrides): each override changes some outcomes
CAMPAIGN_OVERRIDES = [
    # the gap warning of the rank decision
    (config_dict(s_list=[4], m_rule="4s", trials=5, master_seed=1,
                 sample_mode="arbitrary"),
     {"gap_ratio": 1e30}),
    # the root bound inside laurent_sqrt; trials 6, 10 and 11 used to follow
    # the environment instead
    (config_dict(mode="r5", s_list=[4], n_rule="4s-1", m_rule="8s-3", trials=12,
                 master_seed=1, sample_mode="arbitrary"),
     {"tol_root": 1e-15}),
]


def test_campaign_tolerances_reach_the_rank_decision(monkeypatch):
    # tolerances set in the campaign config must act like the same values
    # set through the environment, trial for trial
    for base, overrides in CAMPAIGN_OVERRIDES:
        monkeypatch.delenv("VRECOVER_TOL_OVERRIDES", raising=False)
        plain, _ = run_campaign(ExperimentConfig.from_dict(base))
        config = ExperimentConfig.from_dict(dict(base, tolerances=overrides))
        records, _ = run_campaign(config)
        assert [_outcome(r) for r in records] != [_outcome(r) for r in plain]
        if "gap_ratio" in overrides:
            assert not any("singular value gap" in r.warnings for r in plain)
            assert all("singular value gap" in r.warnings for r in records)
        monkeypatch.setenv("VRECOVER_TOL_OVERRIDES", json.dumps(overrides))
        from_env, _ = run_campaign(ExperimentConfig.from_dict(base))
        assert [_outcome(r) for r in from_env] == [_outcome(r) for r in records]


def test_run_trial_with_tolerances_never_reads_the_environment(monkeypatch):
    # given its tolerances, no stage below run_trial may parse the
    # environment, so an unparsable value there must not matter
    setups = [
        config_dict(mode="r1", s_list=[2], sample_mode="arbitrary", m_rule="3s"),
        config_dict(mode="r2", s_list=[2], n_rule="2s+1", m_rule="2s"),
        config_dict(mode="r4", s_list=[2], n_rule="4s-1", m_rule="4s-1", gamma=1.0),
        config_dict(mode="r5", s_list=[2], n_rule="4s-1", m_rule="8s-3",
                    sample_mode="arbitrary"),
        config_dict(mode="r3", s_list=[1], n_rule="4s+3", m_rule="4s-1", gamma=1.0),
    ]
    monkeypatch.delenv("VRECOVER_TOL_OVERRIDES", raising=False)
    tol = load_tolerances()
    payloads = []
    for raw in setups:
        config = ExperimentConfig.from_dict(dict(raw, trials=3))
        for index in range(3):
            payloads.append(generate_trial(config, config.s_list[0], index))
    monkeypatch.setenv("VRECOVER_TOL_OVERRIDES", "not json")
    records = [run_trial(payload, tol) for payload in payloads]
    assert not any("InvalidInputError" in r.warnings for r in records)
    assert all(r.success for r in records)


def test_redraw_extra_row_keeps_truth():
    config = ExperimentConfig.from_dict(
        config_dict(mode="r5", s_list=[2], n_rule="4s-1", m_rule="8s-3",
                    sample_mode="arbitrary")
    )
    payload = generate_trial(config, 2, 0)
    fresh = _redraw_extra_row(payload, 0)
    assert fresh["extra_row"]["a"] != payload["extra_row"]["a"]
    a = unpairs(fresh["extra_row"]["a"])
    theta = unpairs(payload["theta"])
    g = unpairs(payload["g"])
    want = float(abs((vandermonde(theta, payload["n"]).T @ a) @ g) ** 2)
    assert abs(fresh["extra_row"]["y_m"] - want) <= 1e-12 * max(want, 1.0)
    assert _redraw_extra_row(payload, 0) == fresh
    assert _redraw_extra_row(payload, 1) != fresh


def test_cli_gen_is_deterministic(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(
        config_dict(mode="r4", s_list=[2], n_rule="4s-1", m_rule="4s-1",
                    gamma=1.0, trials=3)
    ))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    res = cli("gen", "--config", str(cfg), "--out", str(out_a))
    assert res.returncode == 0, res.stderr
    assert "wrote 3 instance files" in res.stdout
    names = sorted(os.listdir(out_a))
    assert names == ["r4_s2_0000.json", "r4_s2_0001.json", "r4_s2_0002.json"]
    seeds = {json.loads((out_a / name).read_text())["seed"] for name in names}
    assert len(seeds) == 3
    res = cli("gen", "--config", str(cfg), "--out", str(out_b))
    assert res.returncode == 0
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    payload = json.loads((out_a / names[0]).read_text())
    assert payload["mode"] == "r4" and payload["extra_row"] is None


def test_cli_gen_then_recover_phaseless(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(
        config_dict(mode="r4", s_list=[2], n_rule="4s-1", m_rule="4s-1",
                    gamma=1.0, trials=1)
    ))
    out = tmp_path / "inst"
    assert cli("gen", "--config", str(cfg), "--out", str(out)).returncode == 0
    inst_file = out / "r4_s2_0000.json"
    res = cli("recover", "--mode", "r4", "--input", str(inst_file))
    assert res.returncode == 0, res.stderr
    parsed = json.loads(res.stdout)
    assert parsed["S"] == 2
    assert parsed["branch"] == "Harmonic2pow"
    assert len(parsed["candidates"]) == 2
    assert parsed["selected"] is None
    truth = unpairs(json.loads(inst_file.read_text())["g"])
    best = min(
        np.max(np.abs(np.abs(unpairs(c)) - np.sort(np.abs(truth))[
            np.argsort(np.argsort(np.abs(unpairs(c))))
        ]))
        for c in parsed["candidates"]
    )
    assert best <= 1e-6 * float(np.max(np.abs(truth)))


def test_cli_recover_dual_pair_instance(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(
        config_dict(mode="r4", s_list=[2], n_rule="4s-1", m_rule="8s-3",
                    sample_mode="arbitrary", trials=1, master_seed=23)
    ))
    out = tmp_path / "inst"
    assert cli("gen", "--config", str(cfg), "--out", str(out)).returncode == 0
    res = cli("recover", "--mode", "r4", "--input", str(out / "r4_s2_0000.json"))
    assert res.returncode == 0, res.stderr
    parsed = json.loads(res.stdout)
    assert parsed["branch"] == "DualPair"
    assert len(parsed["candidates"]) == 2


def test_cli_recover_worked_instance(tmp_path):
    inst = tmp_path / "worked.json"
    inst.write_text(json.dumps(worked_r1_payload()))
    out = tmp_path / "result.json"
    res = cli("recover", "--mode", "r1", "--input", str(inst), "--output", str(out))
    assert res.returncode == 0, res.stderr
    parsed = json.loads(out.read_text())
    assert parsed["mode"] == "r1" and parsed["S"] == 1
    assert abs(complex(*parsed["theta"][0]) - 2.0) <= 1e-8
    assert abs(complex(*parsed["g"][0]) - 3.0) <= 1e-8
    assert parsed["selected"] == 0


def test_cli_recover_zero_signal(tmp_path):
    payload = worked_r1_payload()
    for key in ("theta", "g"):
        del payload[key]
    payload["y"] = [[0.0, 0.0], [0.0, 0.0]]
    inst = tmp_path / "zero.json"
    inst.write_text(json.dumps(payload))
    res = cli("recover", "--mode", "r1", "--input", str(inst))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["S"] == 0


def test_cli_recover_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    res = cli("recover", "--mode", "r1", "--input", str(bad))
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_cli_recover_mode_mismatch(tmp_path):
    inst = tmp_path / "worked.json"
    inst.write_text(json.dumps(worked_r1_payload()))
    res = cli("recover", "--mode", "r5", "--input", str(inst))
    assert res.returncode == 2
    assert "generated for mode" in res.stderr


def test_cli_recover_inconsistent_truth(tmp_path):
    payload = worked_r1_payload()
    payload["y"] = [[9.0, 0.0], [3.0, 0.0]]  # sign flipped against the truth
    inst = tmp_path / "tampered.json"
    inst.write_text(json.dumps(payload))
    res = cli("recover", "--mode", "r1", "--input", str(inst))
    assert res.returncode == 2
    assert "consistency" in res.stderr


def test_cli_selftest_passes():
    t0 = time.perf_counter()
    res = cli("selftest")
    elapsed = time.perf_counter() - t0
    assert res.returncode == 0, res.stdout + res.stderr
    assert "selftest passed" in res.stdout
    assert res.stdout.count("ok ") == 10
    assert elapsed < 60.0


def test_cli_selftest_catches_broken_tolerances():
    res = cli("selftest", env_extra={"VRECOVER_TOL_OVERRIDES": '{"rank_rel_tol": 1.0}'})
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def test_cli_tolerance_env_must_be_json(tmp_path):
    inst = tmp_path / "worked.json"
    inst.write_text(json.dumps(worked_r1_payload()))
    res = cli(
        "recover", "--mode", "r1", "--input", str(inst),
        env_extra={"VRECOVER_TOL_OVERRIDES": "not json"},
    )
    assert res.returncode == 2
    res = cli(
        "recover", "--mode", "r1", "--input", str(inst),
        env_extra={"VRECOVER_TOL_OVERRIDES": '{"no_such_knob": 0.5}'},
    )
    assert res.returncode == 2


def test_cli_montecarlo_table(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config_dict(s_list=[1], trials=2)))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    res = cli("montecarlo", "--config", str(cfg), "--out", str(out_a))
    assert res.returncode == 0, res.stderr
    assert "success_rate=1.000" in res.stdout
    lines = out_a.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 + 1
    res = cli("montecarlo", "--config", str(cfg), "--out", str(out_b))
    assert res.returncode == 0

    def strip_runtime(path):
        rows = [line.split(",") for line in path.read_text().strip().split("\n")]
        return [cells[:11] + cells[12:] for cells in rows]

    # wall-clock column aside, reruns reproduce the table exactly
    assert strip_runtime(out_a) == strip_runtime(out_b)


def test_phase_aligned_errs_match_one_at_a_time():
    def one(candidate, truth):
        ip = np.vdot(candidate, truth)
        if abs(ip) > 0:
            candidate = candidate * (ip / abs(ip))
        scale = max(float(np.max(np.abs(truth))), 1e-300)
        return float(np.max(np.abs(candidate - truth)) / scale)

    rng = np.random.default_rng(83)
    for S in range(1, 9):
        truth = rng.standard_normal(S) + 1j * rng.standard_normal(S)
        K = 2 ** (S - 1) + 1
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (K, 1)))
        stack = truth * phases + 1e-9 * (
            rng.standard_normal((K, S)) + 1j * rng.standard_normal((K, S))
        )
        stack[-1] = 0.0
        assert np.array_equal(_phase_aligned_errs(stack, truth), [one(c, truth) for c in stack])
