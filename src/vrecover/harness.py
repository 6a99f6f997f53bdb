"""Experiment harness: generation, single-shot recovery, campaigns, self-test.

Everything here is deterministic given a config and a 64-bit master seed.
Per-trial seeds come from the splitmix64 finalizer documented in
:func:`derive_seed`, so campaigns can be reproduced or re-generated file by
file in any language without sharing a random-number library. Instances and
results travel as JSON with complex numbers encoded as [re, im] pairs;
campaign tables are CSV with a fixed header.
"""

import json
import numbers
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .config import Tolerances, load_tolerances
from .cpoly import _modulus
from .errors import AmbiguousDisambiguationError, InvalidInputError, VRecoverError
from .oracle import (
    draw_g,
    draw_theta_circle,
    draw_theta_dft,
    draw_theta_disk,
    draw_unit_vector,
    forward_phase,
    forward_phaseless,
)
from .recover_phase import PhaseInstance, _check_floors, recover_r1, recover_r2
from .recover_phaseless import (
    BRANCH_DUAL,
    BRANCH_HARMONIC,
    PhaselessInstance,
    recover_r3,
    recover_r5,
)
from .structmat import SampleSet, readonly_array, shifted_harmonics, vandermonde

MODES = ("r1", "r2", "r4", "r5", "r3")
PHASE_MODES = ("r1", "r2")
GRIDDED_MODES = ("r2", "r3")
CSV_HEADER = (
    "trial,s,S,n,m,mode,branch,success,theta_err,g_err,candidates,runtime_ms,route,warnings"
)
SUCCESS_TOL = 1e-6
# the CSV `branch` of a phase-aware trial names its sample layout
HARMONIC = "ShiftedHarmonic"
ARBITRARY = "Arbitrary"

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """splitmix64 finalizer on master_seed + (index+1) * golden-gamma.

    x = master + (i+1)*0x9E3779B97F4A7C15; x ^= x>>30; x *= 0xBF58476D1CE4E5B9;
    x ^= x>>27; x *= 0x94D049BB133111EB; x ^= x>>31. All mod 2^64.
    """
    x = (int(master_seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


# ----------------------------------------------------------------------------
# JSON encoding of complex data
# ----------------------------------------------------------------------------

def pairs(vec) -> list:
    """A complex vector as a list of [re, im] float pairs."""
    return np.ascontiguousarray(vec, dtype=complex).view(float).reshape(-1, 2).tolist()


def unpairs(lst) -> np.ndarray:
    """The complex vector of [re, im] pairs, both parts kept bit for bit (-0.0 too)."""
    try:
        table = np.array(lst, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError("complex values must be [re, im] pairs of numbers") from exc
    if table.shape[1:] != (2,) and table.shape != (0,):
        raise InvalidInputError(f"complex values must be [re, im] pairs, got shape {table.shape}")
    return table.reshape(-1, 2).view(complex).ravel()


def _is_integer(value) -> bool:
    """True for an int, numpy integers included, and never for a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for a finite int or float, numpy scalars included, and never for a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and np.isfinite(value)


# ----------------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    s_list: tuple[int, ...]
    n_rule: str
    m_rule: str
    trials: int
    master_seed: int
    tolerances: dict
    sample_mode: str
    gamma: float

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise InvalidInputError("config must be a JSON object")
        known = {
            "mode", "s_list", "n_rule", "m_rule", "trials", "master_seed",
            "tolerances", "sample_mode", "gamma",
        }
        unknown = set(raw) - known
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        for key in ("mode", "s_list", "n_rule", "m_rule", "trials", "master_seed"):
            if key not in raw:
                raise InvalidInputError(f"config is missing {key!r}")
        mode = raw["mode"]
        if mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
        s_list = raw["s_list"]
        if not isinstance(s_list, (list, tuple)) or not all(map(_is_integer, s_list)):
            raise InvalidInputError(f"s_list must be a list of integers, got {s_list!r}")
        s_list = tuple(int(s) for s in s_list)
        if not s_list or any(s < 1 for s in s_list):
            raise InvalidInputError("s_list must hold positive integers")
        for key in ("trials", "master_seed"):
            if not _is_integer(raw[key]):
                raise InvalidInputError(f"{key} must be an integer, got {raw[key]!r}")
        trials = int(raw["trials"])
        if trials < 1:
            raise InvalidInputError("trials must be positive")
        master_seed = int(raw["master_seed"])
        if not 0 <= master_seed <= _MASK64:
            raise InvalidInputError("master_seed must fit in 64 bits")
        sample_mode = raw.get("sample_mode", "harmonic")
        if sample_mode not in ("harmonic", "arbitrary"):
            raise InvalidInputError("sample_mode must be 'harmonic' or 'arbitrary'")
        gamma = raw.get("gamma", np.pi / 3)
        if not _is_real(gamma):
            raise InvalidInputError(f"gamma must be a finite real number, got {gamma!r}")
        tolerances = raw.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise InvalidInputError(f"tolerances must be an object, got {tolerances!r}")
        cfg = cls(
            mode=mode, s_list=s_list, n_rule=str(raw["n_rule"]),
            m_rule=str(raw["m_rule"]), trials=trials, master_seed=master_seed,
            tolerances=dict(tolerances), sample_mode=sample_mode, gamma=float(gamma),
        )
        cfg.validate()
        return cfg

    def validate(self):
        """Check the measurement rules against the floors of the mode's instance class."""
        harmonic = self.sample_mode == "harmonic"
        model = PhaseInstance if self.mode in PHASE_MODES else PhaselessInstance
        if model is PhaselessInstance and harmonic:
            if abs(np.exp(1j * self.gamma) - 1.0) < 1e-9:
                raise InvalidInputError(
                    "phaseless harmonic campaigns need gamma away from 0: "
                    "grid-power supports would collide with the rotation"
                )
        for s in self.s_list:
            n = parse_rule(self.n_rule, s)
            m = parse_rule(self.m_rule, s)
            _check_floors(model, n, m, s, harmonic)
            if harmonic and m > n:
                raise InvalidInputError(f"harmonic campaigns need m <= n, got {m} > {n}")


def parse_rule(rule: str, s: int) -> int:
    """Evaluate a count rule such as '2s', '3s', '4s-1', '8s-3', or '12'."""
    text = str(rule).replace(" ", "")
    if text.isdigit():
        return int(text)
    head, sep, tail = text.partition("s")
    if not sep or (tail and tail[0] not in "+-"):
        raise InvalidInputError(f"cannot parse rule {rule!r}")
    try:
        coeff = int(head) if head else 1
        offset = int(tail) if tail else 0
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse rule {rule!r}") from exc
    return coeff * s + offset


# ----------------------------------------------------------------------------
# instance generation
# ----------------------------------------------------------------------------

def _draw_disk_samples(rng: np.random.Generator, m: int) -> SampleSet:
    """Distinct points with moduli uniform on [0.5, 1], phases uniform."""

    def one():
        return rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))

    radius, phase = oracle._uniform_columns(rng, m, (0.5, 1.0), (0, 2 * np.pi)).T
    return SampleSet(oracle._redraw_duplicates(rng, one, radius * np.exp(1j * phase)))


def _draw_circle_samples(rng: np.random.Generator, m: int) -> SampleSet:
    """Stratified random points on the circle: one per arc, jittered.

    A fully uniform draw occasionally clusters samples, and the minimal
    phaseless systems are only marginally well-posed, so clustering shows
    up directly as recovery failures.  Stratification keeps the draw random
    (the jitter covers 90% of each cell and the whole frame is rotated
    uniformly) while bounding the damage; it never aliases because the
    points are never exactly equispaced.
    """
    base = 2 * np.pi * (np.arange(m) + 0.5 + rng.uniform(-0.45, 0.45, size=m)) / m
    return SampleSet(np.exp(1j * (base + rng.uniform(0, 2 * np.pi))))


def _draw_grid_disk(rng: np.random.Generator, n: int, power_avoid=None) -> np.ndarray:
    """Distinct dictionary points on the disk annulus, away from a forbidden power.

    Each point is tested on its own: the numpy-scalar power ``v**nth`` can
    round differently from the array power.
    """
    grid = draw_theta_disk(rng, n)
    if power_avoid is not None:
        nth, target = power_avoid
        for _ in range(100):
            bad = [k for k, v in enumerate(grid) if abs(v**nth - target) < 1e-6]
            if not bad:
                break
            for k in bad:
                grid[k] = draw_theta_disk(rng, 1)[0]
        else:
            raise InvalidInputError("could not draw a grid clear of the rotation power")
    return grid


def _draw_extra_row(rng: np.random.Generator, mode: str, n: int, theta, g, x):
    """A disambiguation row a and its measurement y_m of the true signal."""
    a = draw_unit_vector(rng, n)
    if mode == "r3":
        y_m = float(abs(np.dot(a, x)) ** 2)
    else:
        y_m = float(abs(np.dot(vandermonde(theta, n).T @ a, g)) ** 2)
    return a, y_m


def generate_trial(config: ExperimentConfig, s: int, index: int) -> dict:
    """One ground-truth instance as a JSON-ready dict; `index` is campaign-global.

    Every draw comes from one RNG stream, in this order: the samples, the
    grid and support or the poles, the weights, and last the extra row.
    """
    seed = derive_seed(config.master_seed, index)
    rng = np.random.default_rng(seed)
    n = parse_rule(config.n_rule, s)
    m = parse_rule(config.m_rule, s)
    mode = config.mode
    harmonic = config.sample_mode == "harmonic"
    phase = mode in PHASE_MODES
    if harmonic:
        samples = shifted_harmonics(n, m, config.gamma)
    else:
        samples = (_draw_disk_samples if phase else _draw_circle_samples)(rng, m)

    grid = x = None
    if mode == "r2":
        grid = _draw_grid_disk(rng, n, (n, np.exp(-1j * config.gamma)) if harmonic else None)
    elif mode == "r3":
        grid = np.exp(2j * np.pi * np.arange(n) / n)
    if grid is not None:
        support = np.sort(rng.choice(n, size=s, replace=False))
        theta = grid[support]
    elif mode == "r1":
        theta = draw_theta_disk(rng, s)
    elif harmonic:
        theta = draw_theta_dft(rng, n, s)
    else:
        theta = draw_theta_circle(rng, s)
        if s > 1:
            # the dual-pair branch needs support powers that do not all
            # coincide; redraws never trigger in practice
            for _ in range(100):
                powers = theta**n
                if np.abs(powers - powers[0]).max() > 1e-6:
                    break
                theta = draw_theta_circle(rng, s)
    g = draw_g(rng, s)
    if grid is not None:
        x = np.zeros(n, dtype=complex)
        x[support] = g

    extra_row = None
    if phase:
        y = pairs(forward_phase(theta, g, samples, n))
    else:
        y = [float(v) for v in forward_phaseless(theta, g, samples, n)]
        if mode in ("r5", "r3"):
            a, y_m = _draw_extra_row(rng, mode, n, theta, g, x)
            extra_row = {"a": pairs(a), "y_m": y_m}
    return {
        "mode": mode,
        "n": n,
        "s": s,
        "m": m,
        "seed": seed,
        "sample_mode": config.sample_mode,
        "gamma": config.gamma if harmonic else None,
        "grid": None if grid is None else pairs(grid),
        "x": None if x is None else pairs(x),
        "extra_row": extra_row,
        "y": y,
        "z": pairs(samples.z),
        "theta": pairs(theta),
        "g": pairs(g),
    }


def samples_from_payload(payload: dict) -> SampleSet:
    z = unpairs(payload["z"])
    if payload.get("sample_mode") == "harmonic":
        if payload.get("gamma") is None:
            raise InvalidInputError("shifted-harmonic samples need gamma and n")
        return SampleSet(z, gamma=payload["gamma"], n=payload["n"])
    return SampleSet(z)


def check_payload_consistency(payload: dict):
    """Re-run the forward model on the stored truth and compare to stored y."""
    theta = unpairs(payload["theta"])
    g = unpairs(payload["g"])
    samples = samples_from_payload(payload)
    n = payload["n"]
    if payload["mode"] in PHASE_MODES:
        expect = forward_phase(theta, g, samples, n)
        stored = readonly_array(unpairs(payload["y"]), complex, "measurements")
    else:
        expect = forward_phaseless(theta, g, samples, n)
        stored = readonly_array(payload["y"], float, "measurements")
    scale = max(1.0, float(np.abs(expect).max()))
    # written so that a NaN gap fails too
    if not np.abs(stored - expect).max() <= 1e-12 * scale:
        raise InvalidInputError("instance fails forward consistency")


def _check_instance_fields(payload):
    """Stop a malformed instance before any field is read.

    An instance is a JSON object holding at least n, s, y and z, with integer
    n and s. A gamma that is not null is a finite number, and so is the y_m
    of an extra_row that is not null, an object that also holds a.
    """
    if not isinstance(payload, dict):
        raise InvalidInputError("an instance must be a JSON object")
    missing = [key for key in ("n", "s", "y", "z") if key not in payload]
    if missing:
        raise InvalidInputError(f"instance is missing {missing}")
    for key in ("n", "s"):
        if not _is_integer(payload[key]):
            raise InvalidInputError(f"instance {key} must be an integer, got {payload[key]!r}")
    gamma = payload.get("gamma")
    if gamma is not None and not _is_real(gamma):
        raise InvalidInputError(f"instance gamma must be a finite number, got {gamma!r}")
    extra = payload.get("extra_row")
    if extra is not None and not (
        isinstance(extra, dict) and "a" in extra and _is_real(extra.get("y_m"))
    ):
        raise InvalidInputError("extra_row must be an object holding a and a finite number y_m")


def instance_from_payload(payload: dict):
    _check_instance_fields(payload)
    samples = samples_from_payload(payload)
    grid = None if payload.get("grid") is None else unpairs(payload["grid"])
    if payload["mode"] in PHASE_MODES:
        return PhaseInstance(
            payload["n"], payload["s"], unpairs(payload["y"]), samples, grid
        )
    extra = payload.get("extra_row")
    if extra is not None:
        extra = (unpairs(extra["a"]), float(extra["y_m"]))
    return PhaselessInstance(
        payload["n"], payload["s"], payload["y"], samples, extra, grid
    )


# ----------------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------------

def _greedy_match(truth: np.ndarray, found: np.ndarray):
    """Nearest matching of recovered values to the truth; (max rel err, perm).

    Each truth value in turn takes the nearest found value not yet taken,
    the first one on ties. The loop runs over Python floats, without a
    numpy call per row; ``abs`` of a Python complex rounds like `_modulus`.
    """
    if len(truth) != len(found):
        return np.inf, None
    free = list(range(len(found)))
    perm = []
    worst = 0.0
    for row, t in zip(_modulus(found[None, :] - truth[:, None]).tolist(), truth.tolist()):
        j = min(free, key=row.__getitem__)
        free.remove(j)
        perm.append(j)
        worst = max(worst, row[j] / max(1.0, abs(t)))
    return worst, np.array(perm, dtype=int)


def _phase_aligned_errs(candidates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Max relative gap of each row of a (K, S) stack to `truth`, after the
    global phase that best aligns the row with it.

    ``np.vecdot`` conjugates its first argument like ``np.vdot`` and
    ``np.hypot`` rounds like ``abs`` of a complex scalar, so each error equals
    the one-candidate-at-a-time computation bit for bit.
    """
    ip = np.vecdot(candidates, truth)
    mod = np.hypot(ip.real, ip.imag)
    rot = np.ones_like(ip)
    rot[mod > 0] = ip[mod > 0] / mod[mod > 0]
    scale = max(float(np.abs(truth).max()), 1e-300)
    return np.abs(candidates * rot[:, None] - truth).max(axis=1) / scale


@dataclass
class TrialRecord:
    trial: object
    s: int
    S: object
    n: int
    m: int
    mode: str
    branch: str
    success: object
    theta_err: float
    g_err: float
    candidate_count: object
    runtime_ms: float
    # "latent" or "paper" for r1, the route whose result recover_r1 returned;
    # empty for the other modes (recover_r2 returns a bare vector, without
    # diagnostics), for summary rows and when recovery raised
    route: str
    warnings: str

    def csv_row(self) -> str:
        def num(v):
            if v is None or (isinstance(v, float) and not np.isfinite(v)):
                return ""
            if isinstance(v, float):
                return f"{v:.6e}"
            return str(v)

        success = self.success
        if isinstance(success, bool):
            success = int(success)
        cells = [
            str(self.trial), str(self.s), num(self.S), str(self.n), str(self.m),
            self.mode, self.branch, num(success), num(self.theta_err),
            num(self.g_err), num(self.candidate_count), f"{self.runtime_ms:.3f}",
            self.route, self.warnings.replace(",", ";"),
        ]
        return ",".join(cells)


def _redraw_extra_row(payload: dict, attempt: int) -> tuple[np.ndarray, float]:
    """Fresh disambiguation row (a, y_m) for an unlucky draw, recomputed from truth."""
    rng = np.random.default_rng(derive_seed(payload["seed"], 777000 + attempt))
    mode = payload["mode"]
    x = unpairs(payload["x"]) if mode == "r3" else None
    return _draw_extra_row(
        rng, mode, payload["n"], unpairs(payload["theta"]), unpairs(payload["g"]), x
    )


def _recover_with_redraw(inst, payload: dict, recover, tol: Tolerances, notes: list):
    """Run a disambiguating recovery of `inst`, the instance of `payload`,
    redrawing the extra row up to three times when ambiguous."""
    for attempt in range(3):
        try:
            return recover(inst, tol)
        except AmbiguousDisambiguationError:
            notes.append("redrew-disambiguation-row")
            inst = replace(inst, extra_row=_redraw_extra_row(payload, attempt))
    return recover(inst, tol)


def run_trial(payload: dict, tol: Tolerances | None = None) -> TrialRecord:
    """Recover one generated instance and score it against the stored truth."""
    if tol is None:
        tol = load_tolerances()
    mode = payload["mode"]
    theta_true = unpairs(payload["theta"])
    g_true = unpairs(payload["g"])
    inst = instance_from_payload(payload)
    t0 = time.perf_counter()
    S = None
    branch = HARMONIC if payload.get("sample_mode") == "harmonic" else ARBITRARY
    theta_err = np.inf
    g_err = np.inf
    count = None
    success = False
    route = ""
    notes: list[str] = []
    try:
        if mode in GRIDDED_MODES:
            # r3 fixes the global phase: its first nonzero entry comes back real positive
            x_true = x_canon = unpairs(payload["x"])
            supp_true = np.flatnonzero(np.abs(x_true) > 0)
            if mode == "r2":
                x = recover_r2(inst, tol)
            else:
                x_canon = x_true * np.exp(-1j * np.angle(x_true[supp_true[0]]))
                x = _recover_with_redraw(inst, payload, recover_r3, tol, notes)
            supp = np.flatnonzero(np.abs(x) > 1e-12)
            S = len(supp)
            found = np.array_equal(supp, supp_true)
            theta_err = 0.0 if found else 1.0
            g_err = float(
                np.abs(x - x_canon).max() / max(float(np.abs(x_true).max()), 1e-300)
            )
            success = found and g_err <= SUCCESS_TOL
        elif mode == "r1":
            res = recover_r1(inst, tol)
            S = res.S
            # an all-zero y returns S = 0 without running a route
            if res.diagnostics:
                route = res.diagnostics[-1]["route"]
            theta_err, perm = _greedy_match(theta_true, res.theta)
            if perm is not None:
                g_err = float(
                    np.abs(res.g[perm] - g_true).max() / max(float(np.abs(g_true).max()), 1e-300)
                )
            notes.extend(res.warnings)
            success = theta_err <= SUCCESS_TOL and g_err <= SUCCESS_TOL
        else:
            res = _recover_with_redraw(inst, payload, recover_r5, tol, notes)
            S = res.S
            branch = res.branch
            count = len(res.candidates)
            notes.extend(res.warnings)
            theta_err, perm = _greedy_match(theta_true, res.theta)
            expected = 2 if res.branch == BRANCH_DUAL else 2 ** max(res.S - 1, 0)
            count_ok = count == expected
            if perm is not None:
                errs = _phase_aligned_errs(res.candidates[:, perm], g_true)
                g_err = float(errs.min()) if count else np.inf
                if mode == "r5":
                    g_err = float(errs[res.selected]) if res.selected is not None else g_err
                # r5 is scored on the candidate it selected, r4 on the closest one
                ok = g_err <= SUCCESS_TOL and (mode == "r4" or res.selected is not None)
                success = theta_err <= SUCCESS_TOL and count_ok and ok
    except VRecoverError as exc:
        notes.append(f"{type(exc).__name__}: {exc}")
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(
        trial=payload.get("trial", 0), s=payload["s"], S=S, n=payload["n"],
        m=payload["m"], mode=mode, branch=branch, success=success,
        theta_err=float(theta_err), g_err=float(g_err), candidate_count=count,
        runtime_ms=runtime_ms, route=route, warnings="; ".join(notes)[:200],
    )


def _campaign_trials(config: ExperimentConfig):
    """(per-s counter, payload) of every trial of a config, in campaign order."""
    slots = [(s, t) for s in config.s_list for t in range(config.trials)]
    for index, (s, t) in enumerate(slots):
        payload = generate_trial(config, s, index)
        payload["trial"] = index
        yield t, payload


def run_campaign(config: ExperimentConfig):
    """All trials of a config; returns (records, per-s summary records)."""
    tol = load_tolerances(config.tolerances)
    records = [run_trial(payload, tol) for _, payload in _campaign_trials(config)]
    summaries = []
    for s in config.s_list:
        group = [r for r in records if r.s == s]
        rate = float(np.mean([bool(r.success) for r in group]))
        finite_t = [r.theta_err for r in group if np.isfinite(r.theta_err)]
        finite_g = [r.g_err for r in group if np.isfinite(r.g_err)]
        failures = sum(1 for r in group if not r.success)
        summaries.append(
            TrialRecord(
                trial="summary", s=s, S=None, n=group[0].n, m=group[0].m,
                mode=config.mode, branch="", success=rate,
                theta_err=float(np.percentile(finite_t, 95)) if finite_t else np.inf,
                g_err=float(np.percentile(finite_g, 95)) if finite_g else np.inf,
                candidate_count=None,
                runtime_ms=float(sum(r.runtime_ms for r in group)),
                route="", warnings=f"failures={failures}",
            )
        )
    return records, summaries


def write_csv(path: str, records, summaries):
    lines = [CSV_HEADER]
    lines += [r.csv_row() for r in records]
    lines += [r.csv_row() for r in summaries]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------------
# CLI command bodies (argument parsing lives in cli.py)
# ----------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def cmd_gen(config_path: str, out_dir: str) -> int:
    config = ExperimentConfig.from_dict(_load_json(config_path))
    os.makedirs(out_dir, exist_ok=True)
    for t, payload in _campaign_trials(config):
        check_payload_consistency(payload)
        name = f"{config.mode}_s{payload['s']}_{t:04d}.json"
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(config.s_list) * config.trials} instance files to {out_dir}")
    return 0


def _outcome_dict(mode: str, payload: dict, tol: Tolerances) -> dict:
    inst = instance_from_payload(payload)
    out: dict = {"mode": mode}
    if mode == "r1":
        res = recover_r1(inst, tol)
        out.update(
            S=res.S, theta=pairs(res.theta), g=pairs(res.g),
            magnitude_profile=[float(abs(v) ** 2) for v in res.g],
            candidates=[pairs(res.g)], selected=0, warnings=list(res.warnings),
        )
    elif mode in ("r4", "r5"):
        res = recover_r5(inst, tol)
        out.update(
            S=res.S, theta=pairs(res.theta), branch=res.branch,
            magnitude_profile=res.magnitude_profile.tolist(),
            candidates=[pairs(c) for c in res.candidates],
            selected=res.selected, warnings=list(res.warnings),
        )
    else:
        x = (recover_r2 if mode == "r2" else recover_r3)(inst, tol)
        supp = np.flatnonzero(np.abs(x) > 1e-12)
        out.update(
            S=int(len(supp)), support=[int(k) for k in supp],
            theta=pairs(inst.grid[supp]), x=pairs(x),
            magnitude_profile=[float(abs(x[k]) ** 2) for k in supp],
            candidates=[pairs(x[supp])], selected=0, warnings=[],
        )
    return out


def cmd_recover(mode: str, input_path: str, output_path: str | None) -> int:
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
    payload = _load_json(input_path)
    _check_instance_fields(payload)
    stored_mode = payload.get("mode")
    if stored_mode is not None and stored_mode != mode:
        raise InvalidInputError(
            f"instance file was generated for mode {stored_mode!r}, not {mode!r}"
        )
    payload.setdefault("mode", mode)
    if "theta" in payload and "g" in payload:
        check_payload_consistency(payload)
    tol = load_tolerances()
    out = _outcome_dict(mode, payload, tol)
    text = json.dumps(out, indent=2, sort_keys=True)
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_montecarlo(config_path: str, out_path: str) -> int:
    config = ExperimentConfig.from_dict(_load_json(config_path))
    records, summaries = run_campaign(config)
    write_csv(out_path, records, summaries)
    for summ in summaries:
        print(
            f"mode={config.mode} s={summ.s} trials={config.trials} "
            f"success_rate={summ.success:.3f} theta_err_p95={summ.theta_err:.3e} "
            f"g_err_p95={summ.g_err:.3e}"
        )
    return 0


# ----------------------------------------------------------------------------
# self-test
# ----------------------------------------------------------------------------

def _selftest_checks(tol: Tolerances):
    from .cpoly import laurent_sqrt
    from .structmat import build_A, build_B, measurement_matrix, null_space

    def check_build_a():
        row = build_A([1.0], [9.0], 2, 1)
        assert np.allclose(row, [[9, 9, -1, -1]]), row

    def check_build_b():
        z = shifted_harmonics(2, 2, 0.0)
        mat = build_B(z, [9.0, -3.0], 1)
        assert np.allclose(mat, [[9, 9, -1], [3, -3, -1]]), mat

    def check_phase_worked_example():
        z = shifted_harmonics(2, 2, 0.0)
        inst = PhaseInstance(2, 1, [9.0, -3.0], z)
        res = recover_r1(inst, tol)
        assert np.allclose(res.theta, [2.0], atol=1e-9), res.theta
        assert np.allclose(res.g, [3.0], atol=1e-9), res.g

    def check_phase_routes_agree():
        # exact data at m > n (disk samples) and at m = n (shifted harmonics)
        from .recover_phase import _latent_support, _paper_support, _recover_via

        rng = np.random.default_rng(23)
        s, n = 3, 6
        theta, g = draw_theta_disk(rng, s), draw_g(rng, s)
        for z in (_draw_disk_samples(rng, 3 * s), shifted_harmonics(n, n, 0.9)):
            inst = PhaseInstance(n, s, forward_phase(theta, g, z, n), z)
            latent = _recover_via(inst, tol, routes=(_latent_support,))[0]
            paper = _recover_via(inst, tol, routes=(_paper_support,))[0]
            assert latent.S == paper.S == s, (latent.S, paper.S)
            gap = max(np.abs(latent.theta - paper.theta).max(),
                      np.abs(latent.g - paper.g).max())
            assert gap <= 1e-8, gap

    def check_null_space_dims():
        one = null_space(np.array([[1.0, 1.0]]), tol.rank_rel_tol, tol.gap_ratio)
        full = null_space(np.eye(2), tol.rank_rel_tol, tol.gap_ratio)
        assert one.dimension == 1, one.dimension
        assert full.dimension == 0, full.dimension
        assert np.allclose(np.abs(one.basis[:, 0]), np.sqrt(0.5))

    def check_laurent_sqrt():
        m = laurent_sqrt(np.array([9.0]), tol.tol_root, tol.tol_root)
        assert np.allclose(m, [3.0]), m

    def check_forward_routes():
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = int(rng.integers(1, 4))
            n = 4 * s - 1
            theta = draw_theta_circle(rng, s)
            g = draw_g(rng, s)
            z = _draw_circle_samples(rng, 8 * s - 3)
            forward_phaseless(theta, g, z, n)
            theta_d = draw_theta_disk(rng, s)
            z_d = _draw_disk_samples(rng, 3 * s)
            forward_phase(theta_d, g, z_d, 2 * s)

    def check_harmonic_candidates():
        rng = np.random.default_rng(11)
        n = 7
        gamma = float(np.pi / 3)
        theta = draw_theta_dft(rng, n, 2)
        g = draw_g(rng, 2)
        z = shifted_harmonics(n, n, gamma)
        y = forward_phaseless(theta, g, z, n)
        inst = PhaselessInstance(n, 2, y, z)
        res = recover_r5(inst, tol)
        assert res.branch == BRANCH_HARMONIC and len(res.candidates) == 2, res.branch
        errs = _phase_aligned_errs(res.candidates, g[np.argsort(np.angle(theta))])
        assert errs.min() <= 1e-6, errs

    def check_general_dual_pair():
        rng = np.random.default_rng(13)
        theta = draw_theta_circle(rng, 2)
        g = draw_g(rng, 2)
        n = 7
        z = _draw_circle_samples(rng, 13)
        y = forward_phaseless(theta, g, z, n)
        inst = PhaselessInstance(n, 2, y, z)
        res = recover_r5(inst, tol)
        assert res.branch == BRANCH_DUAL and len(res.candidates) == 2, res.branch
        from .recover_phaseless import dual_transform

        a, b = res.candidates
        dual = dual_transform(a, res.theta, n)
        assert _phase_aligned_errs(dual[None], b)[0] <= 1e-6

    def check_gridded_worked_example():
        n = 7
        grid = np.exp(2j * np.pi * np.arange(n) / n)
        gamma = float(np.pi / 3)
        x = np.zeros(n, dtype=complex)
        x[3] = 2.0
        z = shifted_harmonics(n, 3, gamma)
        y = forward_phaseless([grid[3]], [2.0], z, n)
        rng = np.random.default_rng(17)
        a = draw_unit_vector(rng, n)
        inst = PhaselessInstance(
            n, 1, y, z, extra_row=(a, float(abs(np.dot(a, x)) ** 2)), grid=grid
        )
        got = recover_r3(inst, tol)
        assert np.flatnonzero(np.abs(got) > 1e-9).tolist() == [3], got
        assert abs(abs(got[3]) - 2.0) <= 1e-8
        assert abs(got[3].imag) <= 1e-9 and got[3].real > 0

    def check_cs_oracle_match():
        rng = np.random.default_rng(19)
        n, s = 4, 1
        gamma = 0.0
        grid = _draw_grid_disk(rng, n, power_avoid=(n, np.exp(-1j * gamma)))
        support = [1]
        g = np.array([3.0 + 0j])
        z = shifted_harmonics(n, 3, gamma)
        y = forward_phase(grid[support], g, z, n)
        inst = PhaseInstance(n, s, y, z, grid)
        x = recover_r2(inst, tol)
        A = measurement_matrix(z, grid, n)
        x_oracle = oracle.brute_force_cs(y, A, s)
        assert np.allclose(x, x_oracle, atol=1e-8), (x, x_oracle)

    return [
        ("build_A_frozen_row", check_build_a),
        ("build_B_frozen_matrix", check_build_b),
        ("phase_worked_example", check_phase_worked_example),
        ("phase_routes_agree", check_phase_routes_agree),
        ("null_space_dimensions", check_null_space_dims),
        ("laurent_sqrt_constant", check_laurent_sqrt),
        ("forward_route_agreement", check_forward_routes),
        ("harmonic_candidate_pair", check_harmonic_candidates),
        ("general_dual_pair", check_general_dual_pair),
        ("gridded_worked_example", check_gridded_worked_example),
        ("cs_oracle_match", check_cs_oracle_match),
    ]


def cmd_selftest() -> int:
    failures = []
    for name, check in _selftest_checks(load_tolerances()):
        try:
            check()
        except Exception as exc:
            failures.append(name)
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok {name}")
    if failures:
        print(f"selftest failed: {', '.join(failures)}")
        return 1
    print("selftest passed")
    return 0
