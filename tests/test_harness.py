"""Experiment harness and CLI: seeding, configs, payloads, subprocess runs."""

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from vrecover import harness, recover_phase
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
from vrecover.recover_phaseless import PhaselessInstance, recover_r3
from vrecover.structmat import vandermonde

from test_structmat import coincident_sample_cases


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("VRECOVER_TOL_OVERRIDES", None)
    # the subprocess imports vrecover from src/, whatever pytest's own path is
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
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
    # signed zeros in either part survive both ways
    signed = [[-0.0, 1.5], [2.0, -0.0], [-0.0, -0.0]]
    assert json.dumps(pairs(unpairs(signed))) == json.dumps(signed)
    assert unpairs([]).shape == (0,) and pairs([]) == []
    for bad in ([[1.0]], [[1.0, 2.0, 3.0]], [[1.0, 2.0], [3.0]], [1.0, 2.0], "1+2j"):
        with pytest.raises(InvalidInputError, match=r"\[re, im\] pairs"):
            unpairs(bad)


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


@pytest.mark.parametrize(
    "key, bad",
    [
        ("s_list", 6), ("s_list", "45"), ("s_list", [4.5]), ("s_list", [True]),
        ("trials", "two"), ("trials", 1.7), ("trials", True), ("master_seed", 7.0),
        ("gamma", "x"), ("gamma", False), ("tolerances", [1]),
    ],
    ids=lambda v: repr(v),
)
def test_config_rejects_malformed_fields(tmp_path, key, bad):
    """A config field of the wrong type stops the CLI with exit 2, not a traceback."""
    with pytest.raises(InvalidInputError, match=f"^{key} must be"):
        ExperimentConfig.from_dict(config_dict(**{key: bad}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_dict(**{key: bad})))
    res = cli("gen", "--config", str(path), "--out", str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert not (tmp_path / "out").exists()


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


def test_config_reads_the_instance_floors():
    """The validator rejects m one below the floor of the mode's instance class."""
    for mode, model in [("r1", PhaseInstance), ("r2", PhaseInstance), ("r4", PhaselessInstance),
                        ("r5", PhaselessInstance), ("r3", PhaselessInstance)]:
        for sample_mode in ("harmonic", "arbitrary"):
            n, m = model.floors(3, sample_mode == "harmonic")
            raw = config_dict(mode=mode, s_list=[3], n_rule=str(n), m_rule=str(m),
                              sample_mode=sample_mode, gamma=1.0)
            ExperimentConfig.from_dict(raw)
            for key, rule in (("n_rule", str(n - 1)), ("m_rule", str(m - 1))):
                with pytest.raises(InvalidInputError, match=f"below the {model.__name__} floor"):
                    ExperimentConfig.from_dict({**raw, key: rule})


# The first trial of each mode and sample layout at master_seed 20261018 and
# s=2, to 13 significant digits: theta, g, the first and last sample point,
# the grid support and the extra row's y_m. Generation draws from one RNG
# stream, so a draw that moves, or one added or dropped, changes them.
FIRST_TRIAL_CONFIGS = {
    "r1-harmonic": dict(mode="r1", n_rule="2s", m_rule="2s", gamma=1.0),
    "r1-arbitrary": dict(mode="r1", n_rule="2s", m_rule="3s", sample_mode="arbitrary"),
    "r2-harmonic": dict(mode="r2", n_rule="2s+1", m_rule="2s", gamma=1.0),
    "r2-arbitrary": dict(mode="r2", n_rule="2s+1", m_rule="3s", sample_mode="arbitrary"),
    "r4-harmonic": dict(mode="r4", n_rule="4s-1", m_rule="4s-1", gamma=1.0),
    "r5-harmonic": dict(mode="r5", n_rule="4s-1", m_rule="4s-1", gamma=1.0),
    "r5-arbitrary": dict(mode="r5", n_rule="4s-1", m_rule="8s-3", sample_mode="arbitrary"),
    "r3-harmonic": dict(mode="r3", n_rule="4s-1", m_rule="4s-1", gamma=1.0),
    "r3-arbitrary": dict(mode="r3", n_rule="4s-1", m_rule="8s-3", sample_mode="arbitrary"),
}
FIRST_TRIALS = {
    "r1-harmonic": (
        [complex(0.9341307581375, -0.3248364016691), complex(0.4547361645845, -0.3332802736012)],
        [complex(-0.1959601998402, 1.128998061732), complex(0.6819679840097, -0.319399484037)],
        [complex(0.9689124217106, 0.2474039592545), complex(0.2474039592545, -0.9689124217106)],
        None, None,
    ),
    "r1-arbitrary": (
        [complex(-0.2720834410961, -0.4566656152443), complex(0.03112865969953, -0.66334768806)],
        [complex(0.005160624786881, -0.4556103709357), complex(0.984014656199, 1.646607830657)],
        [complex(0.7046226780658, -0.2450268265801), complex(-0.8498146736557, 0.4836903442263)],
        None, None,
    ),
    "r2-harmonic": (
        [complex(-0.7375238201756, -0.2286165920544), complex(0.4197012903134, -0.4175714874228)],
        [complex(-0.4927704082278, 1.113766068293), complex(-0.2697970311557, 0.07682833797306)],
        [complex(0.9800665778412, 0.1986693307951), complex(-0.6761156143683, -0.7367955455941)],
        [3, 4], None,
    ),
    "r2-arbitrary": (
        [complex(-0.3042861825449, -1.766440662795), complex(0.5745821330079, -1.634885022004)],
        [complex(1.784695631225, -0.5402180429145), complex(-2.729801377948, 0.4835006507576)],
        [complex(0.7046226780658, -0.2450268265801), complex(-0.8498146736557, 0.4836903442263)],
        [3, 4], None,
    ),
    "r4-harmonic": (
        [complex(-0.9009688679024, 0.4338837391176), complex(-0.2225209339563, -0.9749279121818)],
        [complex(-1.06388999655, -0.1959601998402), complex(0.3737579411941, 0.6819679840097)],
        [complex(0.9898132604466, 0.1423717297923), complex(0.728449174198, -0.685099847183)],
        None, None,
    ),
    "r5-harmonic": (
        [complex(-0.9009688679024, 0.4338837391176), complex(-0.2225209339563, -0.9749279121818)],
        [complex(-1.06388999655, -0.1959601998402), complex(0.3737579411941, 0.6819679840097)],
        [complex(0.9898132604466, 0.1423717297923), complex(0.728449174198, -0.685099847183)],
        None, 0.8679541481054,
    ),
    "r5-arbitrary": (
        [complex(0.2807286925892, 0.9597871645095), complex(0.04687502865193, -0.998900761682)],
        [complex(0.005160624786881, -0.4556103709357), complex(0.984014656199, 1.646607830657)],
        [complex(-0.2946974832149, -0.9555905992562), complex(-0.828973388834, -0.5592880479727)],
        None, 7.574144899964,
    ),
    "r3-harmonic": (
        [complex(-0.9009688679024, 0.4338837391176), complex(-0.2225209339563, -0.9749279121818)],
        [complex(-1.06388999655, -0.1959601998402), complex(0.3737579411941, 0.6819679840097)],
        [complex(0.9898132604466, 0.1423717297923), complex(0.728449174198, -0.685099847183)],
        [3, 5], 0.02105008886067,
    ),
    "r3-arbitrary": (
        [complex(0.6234898018587, 0.781831482468), complex(-0.9009688679024, 0.4338837391176)],
        [complex(0.005160624786881, -0.4556103709357), complex(0.984014656199, 1.646607830657)],
        [complex(-0.2946974832149, -0.9555905992562), complex(-0.828973388834, -0.5592880479727)],
        [1, 3], 0.3320836314984,
    ),
}


@pytest.mark.parametrize("case", list(FIRST_TRIALS))
def test_first_trial_draws_are_frozen(case):
    raw = config_dict(s_list=[2], trials=1, master_seed=20261018, **FIRST_TRIAL_CONFIGS[case])
    payload = generate_trial(ExperimentConfig.from_dict(raw), 2, 0)
    theta, g, z_ends, support, y_m = FIRST_TRIALS[case]
    z = unpairs(payload["z"])

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)

    close(unpairs(payload["theta"]), theta)
    close(unpairs(payload["g"]), g)
    close(z[[0, -1]], z_ends)
    if support is None:
        assert payload["grid"] is None and payload["x"] is None
    else:
        x = unpairs(payload["x"])
        assert np.flatnonzero(np.abs(x) > 0).tolist() == support
        close(unpairs(payload["grid"])[support], theta)
    if y_m is None:
        assert payload["extra_row"] is None
    else:
        close(payload["extra_row"]["y_m"], y_m)


# The first 20 trials of one campaign per recovery route at master_seed
# 20261018, each as "success S candidate_count branch error-class": a
# refactor that flips an outcome fails here, not only in the benchmark digest.
# At n = m, "r1-harmonic" runs the paper's system alone (PAPER_CHAIN_CASES)
# and "r1-harmonic-latent" runs recover_r1 as it is, on the latent route.
# "r2-arbitrary" (m > n) takes the latent route too.
FROZEN_CAMPAIGNS = {
    "r1-harmonic": dict(mode="r1", s_list=[10], n_rule="2s", m_rule="2s", gamma=1.0),
    "r1-harmonic-latent": dict(mode="r1", s_list=[10], n_rule="2s", m_rule="2s", gamma=1.0),
    "r2-arbitrary": dict(mode="r2", s_list=[6], n_rule="2s", m_rule="3s",
                         sample_mode="arbitrary"),
    "r4-harmonic": dict(mode="r4", s_list=[8], n_rule="4s-1", m_rule="4s-1", gamma=1.0),
    "r5-arbitrary": dict(mode="r5", s_list=[6], n_rule="4s-1", m_rule="8s-3",
                         sample_mode="arbitrary"),
}
FROZEN_OUTCOMES = {
    "r1-harmonic": [
        "0 9 None ShiftedHarmonic None", "1 10 None ShiftedHarmonic None",
        "1 10 None ShiftedHarmonic None", "0 10 None ShiftedHarmonic None",
        "1 10 None ShiftedHarmonic None", "0 9 None ShiftedHarmonic None",
        "0 9 None ShiftedHarmonic None", "1 10 None ShiftedHarmonic None",
        "0 9 None ShiftedHarmonic None", "0 10 None ShiftedHarmonic None",
        "0 9 None ShiftedHarmonic None", "0 9 None ShiftedHarmonic None",
        "1 10 None ShiftedHarmonic None", "0 10 None ShiftedHarmonic None",
        "1 10 None ShiftedHarmonic None", "0 9 None ShiftedHarmonic None",
        "0 9 None ShiftedHarmonic None", "0 9 None ShiftedHarmonic None",
        "0 9 None ShiftedHarmonic None", "0 10 None ShiftedHarmonic None",
    ],
    "r1-harmonic-latent": [
        "0 None None ShiftedHarmonic RankDeficiencyError",
        "1 10 None ShiftedHarmonic None",
        "1 10 None ShiftedHarmonic None", "1 10 None ShiftedHarmonic None",
        "1 10 None ShiftedHarmonic None", "1 10 None ShiftedHarmonic None",
        "0 10 None ShiftedHarmonic None", "1 10 None ShiftedHarmonic None",
        "0 10 None ShiftedHarmonic None", "1 10 None ShiftedHarmonic None",
        "0 10 None ShiftedHarmonic None",
        "0 None None ShiftedHarmonic RankDeficiencyError",
        "1 10 None ShiftedHarmonic None", "1 10 None ShiftedHarmonic None",
        "1 10 None ShiftedHarmonic None", "0 10 None ShiftedHarmonic None",
        "0 10 None ShiftedHarmonic None", "0 10 None ShiftedHarmonic None",
        "0 None None ShiftedHarmonic RankDeficiencyError",
        "1 10 None ShiftedHarmonic None",
    ],
    "r2-arbitrary": ["1 6 None Arbitrary None"] * 20,
    "r4-harmonic": [
        "1 8 128 Harmonic2pow None", "0 None None ShiftedHarmonic NotASquareError",
        "0 None None ShiftedHarmonic InconsistentSolutionError", "1 8 128 Harmonic2pow None",
        "1 8 128 Harmonic2pow None", "0 None None ShiftedHarmonic InconsistentSolutionError",
        "1 8 128 Harmonic2pow None", "0 None None ShiftedHarmonic InconsistentSolutionError",
        "0 None None ShiftedHarmonic NotASquareError",
        "0 None None ShiftedHarmonic NotASquareError",
        "1 8 128 Harmonic2pow None", "0 None None ShiftedHarmonic NotASquareError",
        "1 8 128 Harmonic2pow None", "1 8 128 Harmonic2pow None",
        "1 8 128 Harmonic2pow None", "1 8 128 Harmonic2pow None",
        "0 None None ShiftedHarmonic PairingFailureError", "1 8 128 Harmonic2pow None",
        "1 8 128 Harmonic2pow None", "1 8 128 Harmonic2pow None",
    ],
    "r5-arbitrary": [
        "1 6 2 DualPair None", "1 6 2 DualPair None",
        "0 6 2 DualPair None",
        "0 None None Arbitrary DegenerateSupportError",
        "1 6 2 DualPair None", "1 6 2 DualPair None",
        "0 None None Arbitrary MatchingFailureError", "1 6 2 DualPair None",
        "1 6 2 DualPair None", "1 6 2 DualPair None",
        "1 6 2 DualPair None", "1 6 2 DualPair None",
        "1 6 2 DualPair None", "0 None None Arbitrary MatchingFailureError",
        "1 6 2 DualPair None", "1 6 2 DualPair None",
        "1 6 2 DualPair None", "1 6 2 DualPair None",
        "0 None None Arbitrary MatchingFailureError", "1 6 2 DualPair None",
    ],
}


PAPER_CHAIN_CASES = {"r1-harmonic"}


def _paper_chain_r1(inst, tol):
    return recover_phase._recover_via(inst, tol, support=recover_phase._paper_support)[0]


@pytest.mark.parametrize("case", list(FROZEN_CAMPAIGNS))
def test_first_campaign_outcomes_are_frozen(case, monkeypatch):
    monkeypatch.delenv("VRECOVER_TOL_OVERRIDES", raising=False)
    if case in PAPER_CHAIN_CASES:
        monkeypatch.setattr(harness, "recover_r1", _paper_chain_r1)
    raw = config_dict(trials=20, master_seed=20261018, **FROZEN_CAMPAIGNS[case])
    records, _ = run_campaign(ExperimentConfig.from_dict(raw))
    got = []
    for r in records:
        error = re.search(r"(\w+Error): ", r.warnings)
        got.append(f"{int(bool(r.success))} {r.S} {r.candidate_count} {r.branch} "
                   f"{error.group(1) if error else None}")
    assert got == FROZEN_OUTCOMES[case]


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
    def read_only_equal(arr, want):
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        assert np.array_equal(arr, want)

    config = ExperimentConfig.from_dict(config_dict(s_list=[2]))
    payload = generate_trial(config, 2, 0)
    inst = instance_from_payload(payload)
    assert isinstance(inst, PhaseInstance)
    assert inst.m == 4
    read_only_equal(inst.y, unpairs(payload["y"]))
    read_only_equal(inst.samples.z, unpairs(payload["z"]))
    config = ExperimentConfig.from_dict(
        config_dict(mode="r5", s_list=[2], n_rule="4s-1", m_rule="8s-3",
                    sample_mode="arbitrary")
    )
    payload = generate_trial(config, 2, 0)
    inst = instance_from_payload(payload)
    assert isinstance(inst, PhaselessInstance)
    assert inst.m == 13 and inst.extra_row is not None
    read_only_equal(inst.y, payload["y"])
    read_only_equal(inst.extra_row[0], unpairs(payload["extra_row"]["a"]))
    assert inst.extra_row[1] == payload["extra_row"]["y_m"]
    config = ExperimentConfig.from_dict(
        config_dict(mode="r3", s_list=[1], n_rule="4s+3", m_rule="4s-1", gamma=1.0)
    )
    payload = generate_trial(config, 1, 0)
    inst = instance_from_payload(payload)
    read_only_equal(inst.grid, unpairs(payload["grid"]))
    read_only_equal(inst.extra_row[0], unpairs(payload["extra_row"]["a"]))


def test_run_trial_success_and_csv_shape():
    config = ExperimentConfig.from_dict(config_dict(s_list=[2]))
    payload = generate_trial(config, 2, 0)
    payload["trial"] = 0
    record = run_trial(payload)
    assert record.success is True
    assert record.S == 2
    assert record.theta_err <= 1e-6 and record.g_err <= 1e-6
    row = record.csv_row()
    assert len(row.split(",")) == len(CSV_HEADER.split(",")) == 14
    assert record.runtime_ms >= 0.0


def test_run_trial_records_the_route(monkeypatch):
    """An r1 record names the one route recover_r1 ran; a Hankel matrix
    forced to noise fails the latent rank gate, and the trial fails with that
    error and no route. Other modes and summary rows leave it empty."""
    # the Hankel matrix at s_max = 2 is 6 x 3, so noise gives it full rank
    config = ExperimentConfig.from_dict(
        config_dict(s_list=[2], sample_mode="arbitrary", n_rule="8", m_rule="8", trials=1)
    )
    payload = generate_trial(config, 2, 0)
    record = run_trial(payload)
    assert record.success and record.route == "latent"
    cells = dict(zip(CSV_HEADER.split(","), record.csv_row().split(",")))
    assert cells["route"] == "latent" and CSV_HEADER.endswith(",route,warnings")
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    monkeypatch.setattr(recover_phase, "_hankel", lambda x, s: noise)
    record = run_trial(payload)
    assert record.success is False and record.route == ""
    assert record.warnings.startswith("RecoveryFailureError: null space dimension 0 at s=2")
    monkeypatch.undo()
    # an all-zero y returns S = 0 before any route runs
    zero = dict(payload, y=[[0.0, 0.0]] * len(payload["y"]))
    record = run_trial(zero)
    assert record.S == 0 and record.route == ""
    r4 = ExperimentConfig.from_dict(
        config_dict(mode="r4", s_list=[2], n_rule="4s-1", m_rule="4s-1", gamma=1.0, trials=1)
    )
    assert run_trial(generate_trial(r4, 2, 0)).route == ""
    _, summaries = run_campaign(config)
    assert [r.route for r in summaries] == [""]


def test_greedy_match_matches_the_numpy_loop():
    """The pure-Python match equals an argmin loop over a masked numpy table, ties too."""
    def numpy_loop(truth, found):
        diff = found[None, :] - truth[:, None]
        dist = np.hypot(diff.real, diff.imag)
        perm = np.zeros(len(truth), dtype=int)
        worst = 0.0
        for k in range(len(truth)):
            j = perm[k] = int(np.argmin(dist[k]))
            worst = max(worst, dist[k, j] / max(1.0, abs(truth[k])))
            dist[:, j] = np.inf
        return worst, perm

    rng = np.random.default_rng(89)
    for S in range(0, 9):
        truth = 2 * (rng.standard_normal(S) + 1j * rng.standard_normal(S))
        for found in (truth[rng.permutation(S)] + 1e-7 * rng.standard_normal(S),
                      rng.standard_normal(S) + 1j * rng.standard_normal(S),
                      np.full(S, 0.5 + 0.5j)):
            worst, perm = harness._greedy_match(truth, found)
            want_worst, want_perm = numpy_loop(truth, found)
            assert worst == want_worst and np.array_equal(perm, want_perm)
    assert harness._greedy_match(np.ones(2), np.ones(3)) == (np.inf, None)


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
    # the rank threshold: trial 3 then fails the full-rank test of its weight solve
    (config_dict(s_list=[4], m_rule="4s", trials=5, master_seed=1,
                 sample_mode="arbitrary"),
     {"rank_rel_tol": 1e-3}),
    # the root bound of the general pipeline's root finding; trials 6, 10 and
    # 11 once followed the environment instead
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
    a, y_m = _redraw_extra_row(payload, 0)
    assert pairs(a) != payload["extra_row"]["a"]
    theta = unpairs(payload["theta"])
    g = unpairs(payload["g"])
    want = float(abs((vandermonde(theta, payload["n"]).T @ a) @ g) ** 2)
    assert abs(y_m - want) <= 1e-12 * max(want, 1.0)
    a_again, y_m_again = _redraw_extra_row(payload, 0)
    assert np.array_equal(a_again, a) and y_m_again == y_m
    assert not np.array_equal(_redraw_extra_row(payload, 1)[0], a)
    inst = instance_from_payload(payload)
    fresh = replace(inst, extra_row=(a, y_m))
    assert np.array_equal(fresh.extra_row[0], a) and fresh.extra_row[1] == y_m
    assert fresh.n == inst.n and fresh.samples is inst.samples
    assert np.array_equal(fresh.y, inst.y)
    assert np.array_equal(inst.extra_row[0], unpairs(payload["extra_row"]["a"]))


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


@pytest.mark.parametrize("length", [6, 9], ids=["n-1", "n+2"])
def test_r3_grid_of_the_wrong_length_is_bad_input(tmp_path, length):
    """An r3 instance whose grid does not hold n points exits 2, through the library and the CLI."""
    config = ExperimentConfig.from_dict(
        config_dict(mode="r3", n_rule="7", m_rule="4s-1", gamma=1.0, trials=1)
    )
    payload = generate_trial(config, 1, 0)
    grid = np.r_[unpairs(payload["grid"]), np.exp([0.3j, 2.0j])]
    payload["grid"] = pairs(grid[:length])
    with pytest.raises(InvalidInputError, match=f"^grid has {length} points, not the model order n=7$"):
        recover_r3(instance_from_payload(payload))
    inst = tmp_path / "r3.json"
    inst.write_text(json.dumps(payload))
    res = cli("recover", "--mode", "r3", "--input", str(inst))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_cli_recover_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    res = cli("recover", "--mode", "r1", "--input", str(bad))
    assert res.returncode == 2
    assert "error:" in res.stderr


@pytest.mark.parametrize(
    "key, index, bad",
    [("y", 1, [9.0]), ("z", 0, [1.0, 0.0, 5.0])],
    ids=["short-pair", "long-pair"],
)
def test_cli_recover_malformed_pair(tmp_path, key, index, bad):
    """A complex value that is not an [re, im] pair stops the CLI with exit 2."""
    payload = worked_r1_payload()
    payload[key][index] = bad
    inst = tmp_path / "pair.json"
    inst.write_text(json.dumps(payload))
    res = cli("recover", "--mode", "r1", "--input", str(inst))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error:") and "[re, im] pairs" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


def _without(payload, key):
    del payload[key]
    return payload


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda p: _without(p, "n"), id="no-n"),
        pytest.param(lambda p: _without(p, "z"), id="no-z"),
        pytest.param(lambda p: {**p, "n": "abc"}, id="n-string"),
        pytest.param(lambda p: {**p, "s": 2.5}, id="s-float"),
        pytest.param(lambda p: [p], id="top-level-list"),
        pytest.param(lambda p: {**p, "gamma": "x"}, id="gamma-string"),
        pytest.param(lambda p: {**p, "extra_row": {"a": [[1.0, 0.0]]}}, id="extra-row-without-y_m"),
    ],
)
def test_cli_recover_malformed_instance(tmp_path, edit):
    """An instance file of the wrong shape stops the CLI with exit 2."""
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(edit(worked_r1_payload())))
    res = cli("recover", "--mode", "r1", "--input", str(inst))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_cli_recover_non_finite_measurement(tmp_path):
    payload = worked_r1_payload()
    payload["y"][1] = [float("nan"), 0.0]
    inst = tmp_path / "nan.json"
    inst.write_text(json.dumps(payload))
    res = cli("recover", "--mode", "r1", "--input", str(inst))
    assert res.returncode == 2
    assert "error:" in res.stderr and "finite" in res.stderr


def test_cli_recover_coincident_samples(tmp_path):
    """Coincident sample points exit 2 with an error line, not a LAPACK traceback
    (z = [0, 0, 0]) or an answer the data cannot determine (three distinct of six)."""
    for k, (n, s, z) in enumerate(coincident_sample_cases()):
        payload = {"mode": "r1", "n": n, "s": s, "sample_mode": "arbitrary",
                   "z": pairs(z), "y": pairs(np.ones(len(z)))}
        inst = tmp_path / f"coincident{k}.json"
        inst.write_text(json.dumps(payload))
        res = cli("recover", "--mode", "r1", "--input", str(inst))
        assert res.returncode == 2, (res.stdout, res.stderr)
        assert res.stderr == "error: sample points are not distinct\n"
        assert res.stdout == ""


@pytest.mark.parametrize(
    "y",
    [
        pytest.param(lambda y: [[v, 0.0] for v in y], id="pairs"),
        pytest.param(lambda y: [y[:3], y[3:6]], id="nested"),
        pytest.param(lambda y: y[0], id="scalar"),
    ],
)
def test_cli_recover_measurements_not_flat(tmp_path, y):
    """An r5 file without its truth whose y is not a flat list exits 2, not
    with a numpy broadcast or len() traceback."""
    config = ExperimentConfig.from_dict(config_dict(
        mode="r5", s_list=[2], n_rule="4s-1", m_rule="8s-3", sample_mode="arbitrary"))
    payload = generate_trial(config, 2, 0)
    del payload["theta"], payload["g"]
    payload["y"] = y(payload["y"])
    inst = tmp_path / "r5.json"
    inst.write_text(json.dumps(payload))
    res = cli("recover", "--mode", "r5", "--input", str(inst))
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert res.stderr == "error: measurements must be a flat list of numbers\n"
    assert res.stdout == ""


def nan_payloads():
    """An r1 and an r5 payload, each with one NaN put in y, theta or g."""
    configs = [
        config_dict(mode="r1", s_list=[2]),
        config_dict(
            mode="r5", s_list=[2], n_rule="4s-1", m_rule="8s-3",
            sample_mode="arbitrary",
        ),
    ]
    for raw in configs:
        config = ExperimentConfig.from_dict(raw)
        payload = generate_trial(config, 2, 0)
        for key in ("y", "theta", "g"):
            bad = json.loads(json.dumps(payload))
            if isinstance(bad[key][0], list):
                bad[key][0][0] = float("nan")
            else:
                bad[key][0] = float("nan")
            yield f"{config.mode}-{key}", bad


def test_payload_consistency_rejects_nan():
    for _, payload in nan_payloads():
        with pytest.raises(InvalidInputError, match="finite"):
            check_payload_consistency(payload)


def test_cli_recover_nan_truth_or_measurement(tmp_path):
    for label, payload in nan_payloads():
        inst = tmp_path / f"{label}.json"
        inst.write_text(json.dumps(payload))
        res = cli("recover", "--mode", payload["mode"], "--input", str(inst))
        assert res.returncode == 2, (label, res.stdout, res.stderr)
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
    assert res.stdout.count("ok ") == 11
    assert elapsed < 60.0


def test_solver_path_never_imports_scipy():
    """No recovery mode and no selftest check loads scipy, which the package
    does not depend on."""
    script = """
import sys
import vrecover
from vrecover.harness import ExperimentConfig, cmd_selftest, generate_trial, run_trial
configs = [
    dict(mode="r1", s_list=[2], n_rule="2s", m_rule="2s"),
    dict(mode="r2", s_list=[2], n_rule="2s+1", m_rule="2s"),
    dict(mode="r4", s_list=[2], n_rule="4s-1", m_rule="4s-1", gamma=1.0),
    dict(mode="r5", s_list=[2], n_rule="4s-1", m_rule="8s-3", sample_mode="arbitrary"),
    dict(mode="r3", s_list=[1], n_rule="4s+3", m_rule="4s-1", gamma=1.0),
]
for raw in configs:
    config = ExperimentConfig.from_dict(dict(raw, trials=1, master_seed=7))
    record = run_trial(generate_trial(config, config.s_list[0], 0))
    print(config.mode, record.success)
assert cmd_selftest() == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = dict(os.environ)
    env.pop("VRECOVER_TOL_OVERRIDES", None)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines()[-1] == "[]", res.stdout


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
    # a removed tolerance is as unknown as one that never existed
    for unknown in ('{"no_such_knob": 0.5}', '{"cluster_tol": 1e-3}'):
        res = cli(
            "recover", "--mode", "r1", "--input", str(inst),
            env_extra={"VRECOVER_TOL_OVERRIDES": unknown},
        )
        assert res.returncode == 2
        assert "unknown tolerance names" in res.stderr


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


def _cannot_write(res, path):
    """The CLI stopped with exit 2 and one error line naming `path`."""
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_cli_montecarlo_unwritable_out_exits_2(tmp_path):
    """The path is checked before the campaign runs, so nothing is printed."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config_dict(s_list=[1], trials=2)))
    out = tmp_path / "missing" / "t.csv"
    _cannot_write(cli("montecarlo", "--config", str(cfg), "--out", str(out)), out)


def test_cli_recover_unwritable_output_exits_2(tmp_path):
    inst = tmp_path / "worked.json"
    inst.write_text(json.dumps(worked_r1_payload()))
    out = tmp_path / "missing" / "x.json"
    res = cli("recover", "--mode", "r1", "--input", str(inst), "--output", str(out))
    _cannot_write(res, out)


def test_cli_gen_unwritable_out_exits_2(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config_dict(s_list=[1], trials=1)))
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub"
    _cannot_write(cli("gen", "--config", str(cfg), "--out", str(out)), out)


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
