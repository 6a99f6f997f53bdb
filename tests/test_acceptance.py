"""Acceptance gates: the ten headline behaviors, checked at desk scale.

Each test prints one `[criterion NN] name: PASS/FAIL (numbers)` line; the
campaign-style criteria share module-scoped trial sets so the suite runs the
expensive pipelines once.
"""

import time

import numpy as np
import pytest

from vrecover.cpoly import forward_polys, laurent_eval, laurent_from_products
from vrecover.errors import InvalidInputError, VRecoverError
from vrecover.harness import (
    ExperimentConfig,
    _draw_circle_samples,
    _draw_disk_samples,
    _greedy_match,
    _phase_aligned_errs,
    _recover_with_redraw,
    generate_trial,
    instance_from_payload,
    run_campaign,
    unpairs,
)
from vrecover.config import load_tolerances
from vrecover.oracle import (
    brute_force_cs,
    brute_force_phaseless_candidates,
    draw_g,
    draw_theta_circle,
    draw_theta_dft,
    draw_theta_disk,
    forward_phase,
    forward_phase_matrix,
    forward_phase_rational,
    forward_phaseless,
)
from vrecover.recover_phase import PhaseInstance, recover_r2
from vrecover.recover_phaseless import (
    BRANCH_DUAL,
    BRANCH_HARMONIC,
    PhaselessInstance,
    dual_transform,
    recover_r5,
)
from vrecover.structmat import shifted_harmonics, vandermonde

SUCCESS = 1e-6


def announce(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def phase_gap(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    k = int(np.argmax(np.abs(b)))
    rot = b[k] / a[k]
    rot = rot / abs(rot)
    return float(np.max(np.abs(a * rot - b)))


def phaseless_trials(mode, sample_mode, s, trials, master_seed):
    """Campaign records for the candidate-set pipelines, scored per trial."""
    config = ExperimentConfig.from_dict({
        "mode": mode,
        "s_list": [s],
        "n_rule": "4s-1",
        "m_rule": "4s-1" if sample_mode == "harmonic" else "8s-3",
        "trials": trials,
        "master_seed": master_seed,
        "sample_mode": sample_mode,
    })
    tol = load_tolerances()
    records = []
    for index in range(trials):
        payload = generate_trial(config, s, index)
        payload["trial"] = index
        theta_true = unpairs(payload["theta"])
        g_true = unpairs(payload["g"])
        rec = {
            "pipeline_ok": False,
            "selected_ok": None,
            "count": None,
            "branch": None,
            "consensus": np.inf,
            "dual_gap": np.inf,
            "profile_err": np.inf,
        }
        records.append(rec)
        notes: list = []
        try:
            if mode == "r5":
                res = _recover_with_redraw(
                    instance_from_payload(payload), payload, recover_r5, tol, notes
                )
            else:
                res = recover_r5(instance_from_payload(payload), tol)
        except VRecoverError as exc:
            rec["error"] = type(exc).__name__
            continue
        rec["branch"] = res.branch
        rec["count"] = len(res.candidates)
        theta_err, perm = _greedy_match(theta_true, np.array(res.theta))
        expected = 2 if res.branch == BRANCH_DUAL else 2 ** max(res.S - 1, 0)
        if perm is None or theta_err > SUCCESS or rec["count"] != expected:
            continue
        cands = res.candidates
        errs = _phase_aligned_errs(cands[:, perm], g_true)
        if min(errs) > SUCCESS:
            continue
        rec["pipeline_ok"] = True
        mags = np.array([np.abs(c) for c in cands])
        rec["consensus"] = float(np.max(np.abs(mags - mags[0])))
        if res.branch == BRANCH_DUAL and len(cands) == 2:
            rec["dual_gap"] = phase_gap(
                dual_transform(cands[0], np.array(res.theta), payload["n"]), cands[1]
            )
        aligned_gsq = np.empty(res.S)
        aligned_gsq[perm] = np.abs(g_true) ** 2
        prof = np.array(res.magnitude_profile, dtype=float)
        denom = float(aligned_gsq @ aligned_gsq)
        cfit = float(prof @ aligned_gsq) / denom if denom > 0 else 0.0
        if cfit > 0 and np.max(prof) > 0:
            rec["profile_err"] = float(
                np.max(np.abs(prof - cfit * aligned_gsq)) / np.max(prof)
            )
        if mode == "r5":
            rec["selected_ok"] = (
                res.selected is not None and errs[res.selected] <= SUCCESS
            )
    return records


@pytest.fixture(scope="module")
def harmonic_sets():
    return {s: phaseless_trials("r4", "harmonic", s, 100, 8105 + s) for s in (2, 3)}


@pytest.fixture(scope="module")
def dual_sets():
    return {s: phaseless_trials("r4", "arbitrary", s, 200, 8205 + s) for s in (2, 3)}


@pytest.fixture(scope="module")
def selection_sets():
    out = {}
    for s in (2, 3):
        out[("harmonic", s)] = phaseless_trials("r5", "harmonic", s, 200, 8305 + s)
        out[("arbitrary", s)] = phaseless_trials("r5", "arbitrary", s, 200, 8405 + s)
    return out


def test_criterion_01_phase_harmonic_minimal_samples():
    config = ExperimentConfig.from_dict({
        "mode": "r1", "s_list": [1, 2, 3, 4], "n_rule": "2s", "m_rule": "2s",
        "trials": 200, "master_seed": 8101,
    })
    t0 = time.perf_counter()
    records, summaries = run_campaign(config)
    elapsed = time.perf_counter() - t0
    rates = {summ.s: float(summ.success) for summ in summaries}
    ok = all(rate >= 0.98 for rate in rates.values()) and elapsed < 10.0
    announce(1, "phase-aware harmonic at n=m=2s", ok,
             f"rates={rates}, runtime={elapsed:.2f}s over {len(records)} trials")


def test_criterion_02_phase_arbitrary_samples():
    config = ExperimentConfig.from_dict({
        "mode": "r1", "s_list": [1, 2, 3, 4], "n_rule": "2s", "m_rule": "3s",
        "trials": 200, "master_seed": 8102, "sample_mode": "arbitrary",
    })
    t0 = time.perf_counter()
    _, summaries = run_campaign(config)
    elapsed = time.perf_counter() - t0
    rates = {summ.s: float(summ.success) for summ in summaries}
    ok = all(rate >= 0.98 for rate in rates.values())
    announce(2, "phase-aware arbitrary disk at m=3s", ok,
             f"rates={rates}, runtime={elapsed:.2f}s")


def test_criterion_03_gridded_cs_matches_oracle():
    rng = np.random.default_rng(8103)
    agree = 0
    worst = 0.0
    for t in range(200):
        s = 1 + t % 2
        n = int(rng.integers(2 * s, 11))
        harmonic = bool(rng.integers(0, 2))
        gamma = float(rng.uniform(0.3, 2 * np.pi - 0.3))
        if harmonic:
            z = shifted_harmonics(n, 2 * s, gamma)
        else:
            z = _draw_disk_samples(rng, 3 * s)
        grid = draw_theta_disk(rng, n)
        support = np.sort(rng.choice(n, size=s, replace=False))
        g = draw_g(rng, s)
        y = forward_phase(grid[support], g, z, n)
        x = recover_r2(PhaseInstance(n, s, y, z, grid=grid))
        A = vandermonde(z, n).T @ vandermonde(grid, n)
        x_oracle = brute_force_cs(y, A, s)
        same_support = (
            np.flatnonzero(np.abs(x) > 1e-9).tolist()
            == np.flatnonzero(np.abs(x_oracle) > 1e-9).tolist()
        )
        gap = float(np.max(np.abs(x - x_oracle)))
        worst = max(worst, gap)
        if same_support and gap <= 1e-8:
            agree += 1
    announce(3, "gridded recovery equals exhaustive search", agree == 200,
             f"agreement {agree}/200, worst value gap {worst:.2e}")


def test_criterion_04_lower_bound_rejection():
    rng = np.random.default_rng(8104)
    attempts = 0
    rejected = 0
    for s in range(1, 26):
        trials = [
            (2 * s - 1, _draw_disk_samples(rng, 3 * s)),
            (2 * s, _draw_disk_samples(rng, 2 * s - 1)),
            (2 * s, shifted_harmonics(2 * s, 2 * s - 1, 0.4)),
        ]
        for n, z in trials:
            attempts += 1
            try:
                PhaseInstance(n, s, np.zeros(len(z)), z)
            except InvalidInputError:
                rejected += 1
    announce(4, "sample/size bounds enforced before any computation",
             rejected == attempts, f"{rejected}/{attempts} rejected")


def test_criterion_05_harmonic_candidate_count(harmonic_sets):
    details = []
    ok = True
    for s, recs in harmonic_sets.items():
        rate = float(np.mean([r["pipeline_ok"] for r in recs]))
        good = [r for r in recs if r["pipeline_ok"]]
        counts_right = all(
            r["count"] == 2 ** (s - 1) and r["branch"] == BRANCH_HARMONIC
            for r in good
        )
        consensus = max((r["consensus"] for r in good), default=0.0)
        ok = ok and rate >= 0.95 and counts_right and consensus <= 1e-8
        details.append(
            f"s={s}: rate={rate:.3f}, counts 2^{s - 1} ok={counts_right}, "
            f"consensus={consensus:.2e}"
        )
    announce(5, "harmonic candidate family", ok, "; ".join(details))


def test_criterion_06_dual_pair_count(dual_sets):
    details = []
    ok = True
    for s, recs in dual_sets.items():
        rate = float(np.mean([r["pipeline_ok"] for r in recs]))
        good = [r for r in recs if r["pipeline_ok"]]
        counts_right = all(
            r["count"] == 2 and r["branch"] == BRANCH_DUAL for r in good
        )
        dual_gap = max((r["dual_gap"] for r in good), default=0.0)
        ok = ok and rate >= 0.95 and counts_right and dual_gap <= 1e-8
        details.append(
            f"s={s}: rate={rate:.3f}, pair ok={counts_right}, dual gap={dual_gap:.2e}"
        )
    announce(6, "general samples give exactly one dual pair", ok, "; ".join(details))


def test_criterion_07_extra_row_selects_truth(selection_sets):
    details = []
    ok = True
    for (sample_mode, s), recs in selection_sets.items():
        produced = [r for r in recs if r["pipeline_ok"]]
        if not produced:
            ok = False
            details.append(f"{sample_mode} s={s}: no candidate sets produced")
            continue
        picked = sum(1 for r in produced if r["selected_ok"])
        rate = picked / len(produced)
        ok = ok and rate >= 0.99
        details.append(
            f"{sample_mode} s={s}: {picked}/{len(produced)} selected correctly"
        )
    announce(7, "one extra row picks the planted signal", ok, "; ".join(details))


def test_criterion_08_magnitude_profile(harmonic_sets, dual_sets):
    errs = []
    for sets in (harmonic_sets, dual_sets):
        for recs in sets.values():
            errs += [r["profile_err"] for r in recs if r["pipeline_ok"]]
    share = float(np.mean([e <= 1e-6 for e in errs]))
    ok = len(errs) > 0 and share >= 0.98
    announce(8, "squared magnitudes up to one positive scalar", ok,
             f"{share:.3f} of {len(errs)} successful trials within 1e-6")


def test_criterion_09_oracle_certifies_candidate_sets():
    rng = np.random.default_rng(8109)
    n, s = 7, 2
    checked = 0
    matched = 0
    worst = 0.0
    for kind in ("harmonic", "dual"):
        for _ in range(50):
            if kind == "harmonic":
                gamma = float(rng.uniform(0.3, 2 * np.pi - 0.3))
                theta = draw_theta_dft(rng, n, s)
                z = shifted_harmonics(n, n, gamma)
            else:
                theta = draw_theta_circle(rng, s)
                z = _draw_circle_samples(rng, 13)
            g = draw_g(rng, s)
            y = forward_phaseless(theta, g, z, n)
            res = recover_r5(PhaselessInstance(n, s, y, z))
            sols = brute_force_phaseless_candidates(y, theta, z, n)
            checked += 1
            if len(res.candidates) != 2 or len(sols) != 2:
                continue
            _, perm = _greedy_match(theta, np.array(res.theta))
            if perm is None:
                continue
            hits = []
            gaps = []
            for sol in sols:
                v = np.empty(s, dtype=complex)
                v[perm] = np.asarray(sol, dtype=complex)
                per_cand = [phase_gap(v, np.asarray(c)) for c in res.candidates]
                hits.append(int(np.argmin(per_cand)))
                gaps.append(min(per_cand))
            worst = max(worst, max(gaps))
            if max(gaps) <= 1e-6 and len(set(hits)) == 2:
                matched += 1
    announce(9, "brute-force search certifies both candidate sets",
             matched == checked == 100,
             f"{matched}/{checked} matched, worst gap {worst:.2e}")


def test_criterion_10_forward_route_agreement():
    rng = np.random.default_rng(8110)
    worst_phase = 0.0
    for _ in range(1000):
        s = int(rng.integers(1, 5))
        n = int(rng.integers(2 * s, 2 * s + 7))
        theta = draw_theta_disk(rng, s)
        g = draw_g(rng, s)
        z = _draw_disk_samples(rng, int(rng.integers(2 * s, 3 * s + 4)))
        a = forward_phase_matrix(theta, g, z, n)
        b = forward_phase_rational(theta, g, z, n)
        scale = max(1.0, float(np.max(np.abs(a))))
        worst_phase = max(worst_phase, float(np.max(np.abs(a - b))) / scale)

    worst_ratio = 0.0
    evaluated = 0
    for _ in range(1000):
        s = int(rng.integers(1, 4))
        n = int(rng.integers(4 * s - 1, 4 * s + 4))
        theta = (
            draw_theta_dft(rng, n, s) if rng.integers(0, 2) else
            draw_theta_circle(rng, s)
        )
        g = draw_g(rng, s)
        zz = np.exp(1j * rng.uniform(0, 2 * np.pi, int(rng.integers(4 * s, 8 * s))))
        y = np.abs(forward_phase(theta, g, zz, n)) ** 2
        u_hat, u_tilde, v = forward_polys(theta, g, n)
        L, L_tilde, L_hat = laurent_from_products(u_hat, u_tilde, v)
        scale = max(1.0, float(np.max(y)))
        denom_vals = np.array([laurent_eval(L_hat, p) for p in zz])
        denom_scale = float(np.max(np.abs(denom_vals)))
        for j, point in enumerate(zz):
            amp = denom_scale / max(abs(denom_vals[j]), 1e-300)
            if amp > 1e2:
                continue
            cross = laurent_eval(L_tilde, point)
            ratio = (
                laurent_eval(L, point)
                + point**n * cross
                + point ** (-n) * np.conj(cross)
            ) / denom_vals[j]
            worst_ratio = max(worst_ratio, abs(ratio - y[j]) / scale)
            evaluated += 1
    ok = worst_phase <= 1e-10 and worst_ratio <= 1e-10 and evaluated > 0
    announce(10, "both forward formulas agree on random instances", ok,
             f"matrix-vs-rational {worst_phase:.2e}, ratio form {worst_ratio:.2e} "
             f"on {evaluated} circle points")
