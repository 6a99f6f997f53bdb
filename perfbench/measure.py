"""The benchmark's trial loop, its check of outputs against ground truth, and metrics.

Import this module only after ``run.py`` has pinned the BLAS thread count and
put the checkout's ``src`` first on ``sys.path``.
"""

import contextlib
import hashlib
import json
import re
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from vrecover import harness
from vrecover.config import load_tolerances
from vrecover.recover_phaseless import BRANCH_DUAL

import workloads

# accuracy a solved trial must reach; the harness scores against the same value
TOL = 1e-6
_ERROR_NOTE = re.compile(r"\b(\w+Error): ")
# outcome of a trial that ran to the end but missed the accuracy bound
NOT_WITHIN_TOL = "NotWithinTolerance"


@dataclass
class LoopResult:
    # (position in the run, solved, S, candidate count, error class)
    outcomes: list = field(default_factory=list)
    solve_ms: list = field(default_factory=list)
    wall_s: float = 0.0
    wrong: int = 0          # solved trials whose output failed the check
    unexpected: int = 0     # exceptions outside VRecoverError escaping run_trial
    failures: Counter = field(default_factory=Counter)  # "module.Class" -> trials

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def solved(self) -> int:
        return len(self.solve_ms)

    def digest(self) -> str:
        text = json.dumps(self.outcomes, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def configs(workload: str, seed: int, trials: int) -> list:
    return [
        harness.ExperimentConfig.from_dict(raw)
        for raw in workloads.campaign_dicts(workload, seed, trials)
    ]


class _Capture:
    """Keeps the return value of the last recovery call that run_trial makes."""

    def __init__(self):
        self.result = None

    def _wrap(self, fn):
        def call(*args, **kwargs):
            self.result = fn(*args, **kwargs)
            return self.result

        return call

    @contextlib.contextmanager
    def installed(self):
        saved = harness.recover_r1, harness.recover_r5
        harness.recover_r1, harness.recover_r5 = map(self._wrap, saved)
        try:
            yield self
        finally:
            harness.recover_r1, harness.recover_r5 = saved


def _forward(theta: np.ndarray, g: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """y_j = sum_k g_k sum_r (z_j theta_k)^r, written out independently of vrecover."""
    w = np.multiply.outer(z, theta)
    return (w[..., None] ** np.arange(n)).sum(axis=-1) @ g


def _aligned_err(candidate: np.ndarray, truth: np.ndarray) -> float:
    ip = np.vdot(candidate, truth)
    if abs(ip) > 0:
        candidate = candidate * (ip / abs(ip))
    return float(np.max(np.abs(candidate - truth)) / np.max(np.abs(truth)))


def verify(payload: dict, result) -> bool:
    """Check a solved trial's recovered output against the stored ground truth.

    theta must match the truth within TOL. Phase-aware: g matches too.
    Phaseless: the set has 2 members (dual branch) or 2^(S-1), every member
    reproduces the measurements, and the selected member (or, without an
    extra row, some member) equals g up to a global phase.
    """
    theta = harness.unpairs(payload["theta"])
    g = harness.unpairs(payload["g"])
    found = np.asarray(result.theta, dtype=complex)
    if len(found) != len(theta):
        return False
    dist = np.abs(theta[:, None] - found[None, :])
    perm = np.argmin(dist, axis=1)
    if len(set(perm.tolist())) != len(perm):
        return False
    if np.max(dist[np.arange(len(theta)), perm] / np.maximum(1.0, np.abs(theta))) > TOL:
        return False
    if payload["mode"] == "r1":
        g_found = np.asarray(result.g, dtype=complex)[perm]
        return float(np.max(np.abs(g_found - g))) <= TOL * float(np.max(np.abs(g)))
    cands = [np.asarray(c, dtype=complex) for c in result.candidates]
    expected = 2 if result.branch == BRANCH_DUAL else 2 ** (len(found) - 1)
    if len(cands) != expected:
        return False
    z = harness.unpairs(payload["z"])
    y = np.asarray(payload["y"], dtype=float)
    for c in cands:
        fit = np.abs(_forward(found, c, z, payload["n"])) ** 2
        if np.max(np.abs(fit - y)) > TOL * np.max(y):
            return False
    errs = [_aligned_err(c[perm], g) for c in cands]
    if payload.get("extra_row") is not None:
        return result.selected is not None and errs[result.selected] <= TOL
    return min(errs) <= TOL


def _error_class(record) -> str | None:
    if record.success:
        return None
    match = _ERROR_NOTE.search(record.warnings)
    return match.group(1) if match else NOT_WITHIN_TOL


def _trials(cfgs: list):
    """(config, tolerances, s, campaign index) in ``vrecover montecarlo`` order."""
    for config in cfgs:
        tol = load_tolerances(config.tolerances)
        index = 0
        for s in config.s_list:
            for _ in range(config.trials):
                yield config, tol, s, index
                index += 1


def run_loop(cfgs: list, tracer=None) -> LoopResult:
    """Generate, recover and score every trial, optionally traced.

    The wall clock covers generation and run_trial; the output check and
    the bookkeeping run with the clock paused.
    """
    out = LoopResult()
    perf = time.perf_counter
    traced = tracer.installed() if tracer is not None else contextlib.nullcontext()
    with traced, _Capture().installed() as capture:
        paused = 0.0
        start = perf()
        for position, (config, tol, s, index) in enumerate(_trials(cfgs)):
            if tracer is not None:
                tracer.begin_trial(position)
            payload = harness.generate_trial(config, s, index)
            payload["trial"] = index
            capture.result = None
            t0 = perf()
            try:
                record = harness.run_trial(payload, tol)
            except Exception as exc:  # a crash is a failed trial, not a failed run
                t1 = perf()
                out.unexpected += 1
                outcome = (position, False, None, None, type(exc).__name__)
            else:
                t1 = perf()
                outcome = (position, bool(record.success), record.S,
                           record.candidate_count, _error_class(record))
                if record.success:
                    out.solve_ms.append((t1 - t0) * 1000.0)
                    if capture.result is None or not verify(payload, capture.result):
                        out.wrong += 1
            out.outcomes.append(outcome)
            if tracer is not None and not outcome[1]:
                module = "harness"
                if tracer.last_error and tracer.last_error[1] == outcome[4]:
                    module = tracer.last_error[0]
                out.failures[f"{module}.{outcome[4]}"] += 1
            paused += perf() - t1
        out.wall_s = perf() - start - paused
    return out


def percentile(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(loop: LoopResult) -> dict:
    """name -> (value, unit, sample count)."""
    n = loop.solved
    return {
        "solved_per_s": (n / loop.wall_s, "1/s", n),
        "solve_ms_p50": (percentile(loop.solve_ms, 50), "ms", n),
        "solve_ms_p95": (percentile(loop.solve_ms, 95), "ms", n),
        "success_rate": (n / loop.attempted, "fraction", loop.attempted),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


# per-layer metric -> traced functions whose self times (or, in _CALLS,
# calls) are summed; every value is per attempted trial
_SELF_MS = {
    "harness.generate_ms": ["harness.generate_trial"],
    "harness.run_trial_self_ms": ["harness.run_trial"],
    "oracle.forward_phase_ms": ["oracle.forward_phase"],
    "oracle.forward_phaseless_ms": ["oracle.forward_phaseless"],
    "structmat.refine_ms": ["structmat.refine_null_vector"],
    "structmat.build_ms": [
        "structmat.build_A", "structmat.build_B", "structmat.build_G", "structmat.build_Gtilde",
    ],
    "structmat.null_space_ms": ["structmat.null_space"],
    "structmat.vandermonde_ms": ["structmat.vandermonde"],
    "cpoly.pairing_ms": ["cpoly.pair_conjugate_reciprocal"],
    "cpoly.poly_roots_ms": ["cpoly.poly_roots"],
    "cpoly.laurent_sqrt_ms": ["cpoly.laurent_sqrt"],
    "recover_phase.recover_g_ms": ["recover_phase.recover_g"],
    "recover_phase.self_ms": ["recover_phase.recover_r1"],
    "recover_phaseless.enumerate_ms": ["recover_phaseless.enumerate_candidates_harmonic"],
    "recover_phaseless.split_general_ms": ["recover_phaseless.split_and_enumerate_general"],
    "recover_phaseless.disambiguate_ms": ["recover_phaseless.disambiguate"],
    "recover_phaseless.magnitudes_ms": [
        "recover_phaseless.magnitudes_harmonic", "recover_phaseless.magnitudes_general",
    ],
    "recover_phaseless.self_ms": ["recover_phaseless.recover_r5"],
}
_CALLS = {
    "harness.recover_attempts": ["recover_phaseless.recover_r5"],
    "structmat.null_space_calls": ["structmat.null_space"],
    "structmat.vandermonde_calls": ["structmat.vandermonde"],
    "cpoly.poly_eval_calls": ["cpoly.poly_eval"],
    "cpoly.t_polynomial_calls": ["cpoly.t_polynomial"],
    "cpoly.poly_roots_calls": ["cpoly.poly_roots"],
    "config.load_tolerances_calls": ["config.load_tolerances"],
}
# failure tallies every run reports, zero when absent; any other
# module/class pair is counted in failed.other and listed in the report
FAILURE_KEYS = (
    "harness.NotWithinTolerance",
    "recover_phase.RecoveryFailureError",
    "recover_phase.InconsistentSolutionError",
    "recover_phase.DegenerateSupportError",
    "recover_phaseless.RecoveryFailureError",
    "recover_phaseless.ModelMismatchError",
    "recover_phaseless.InconsistentSolutionError",
    "recover_phaseless.MatchingFailureError",
    "recover_phaseless.PairingFailureError",
    "recover_phaseless.DegenerateInstanceError",
    "recover_phaseless.DegenerateSupportError",
    "recover_phaseless.AmbiguousDisambiguationError",
    "cpoly.NotASquareError",
    "cpoly.PairingFailureError",
)


def per_layer(tracer, loop: LoopResult) -> dict:
    """name -> (value, unit, sample count) from one traced loop."""
    n = loop.attempted
    out = {}
    for name, spans in _SELF_MS.items():
        out[name] = (sum(tracer.self_s[s] for s in spans) * 1000.0 / n, "ms", n)
    for name, counted in _CALLS.items():
        out[name] = (sum(tracer.calls[c] for c in counted) / n, "count", n)
    enum = "recover_phaseless.enumerate_candidates_harmonic"
    candidates = tracer.result_len[enum]
    out["recover_phaseless.candidates"] = (candidates / n, "count", n)
    out["recover_phaseless.enumerate_us_per_candidate"] = (
        tracer.self_s[enum] * 1e6 / candidates if candidates else 0.0, "us", candidates,
    )
    for key in FAILURE_KEYS:
        out[f"failed.{key}"] = (loop.failures.get(key, 0), "count", n)
    other = sum(v for k, v in loop.failures.items() if k not in FAILURE_KEYS)
    out["failed.other"] = (other, "count", n)
    return out


def calibrate(repeats: int) -> list:
    """Seconds per pass of a fixed SVD-plus-Python loop, one per repeat."""
    rng = np.random.default_rng(0)
    M = rng.standard_normal((30, 31)) + 1j * rng.standard_normal((30, 31))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(100):
            np.linalg.svd(M)
            [complex(v) * 2 for v in M[0]]
        times.append(time.perf_counter() - t0)
    return times


def spread(values: list) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
