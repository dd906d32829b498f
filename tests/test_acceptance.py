"""End-to-end acceptance suite: one test per release criterion, each
printing a single pass/fail line (run with ``pytest -s`` to see them all)."""

import dataclasses
import filecmp
import json
import math
import time

import numpy as np
import pytest

from pseirs import (StabilityClass, degree_histogram, generate_ba,
                    mean_degree, powerlaw_slope, r0_linearized, r0_nominal,
                    reconstruct_trajectory, simulate_pseirs, simulate_sir,
                    sir_peak_oracle, stability_probe, verify_integral_equivalence)
from pseirs.scenario import ScenarioConfig, run_scenario

from shipped import (CONFIG_DIR, baseline_history, baseline_pseirs, shipped,
                     sir_high_infectivity, sir_low_infectivity,
                     sir_twelve_node_init)


def _report(criterion, ok, detail):
    print(f"criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion:02d}: {detail}"


def test_criterion_01_low_infectivity_peak():
    start = time.perf_counter()
    traj = simulate_sir(sir_low_infectivity(), sir_twelve_node_init(),
                        200.0, 0.01)
    elapsed = time.perf_counter() - start
    max_i = float(traj.column("I").max())
    oracle = sir_peak_oracle(sir_low_infectivity(), sir_twelve_node_init())
    ok = (abs(max_i - 7.189) <= 0.005 * 7.189
          and abs(max_i - oracle) <= 0.005 * oracle
          and elapsed < 1.0)
    _report(1, ok, f"max I = {max_i:.4f} (reference 7.189, oracle "
                   f"{oracle:.4f}), {elapsed:.2f}s")


def test_criterion_02_high_infectivity_peak():
    start = time.perf_counter()
    traj = simulate_sir(sir_high_infectivity(), sir_twelve_node_init(),
                        200.0, 0.01)
    elapsed = time.perf_counter() - start
    max_i = float(traj.column("I").max())
    oracle = sir_peak_oracle(sir_high_infectivity(), sir_twelve_node_init())
    ok = (abs(max_i - 9.954) <= 0.005 * 9.954
          and abs(max_i - oracle) <= 0.005 * oracle
          and elapsed < 1.0)
    _report(2, ok, f"max I = {max_i:.4f} (reference 9.954, oracle "
                   f"{oracle:.4f}), {elapsed:.2f}s")


def test_criterion_03_threshold_formulas(tmp_path):
    params = baseline_pseirs()
    nominal = r0_nominal(params)
    linearized = r0_linearized(params)
    raw = shipped("seirs_baseline").raw
    raw["horizon"] = 40
    del raw["analyses"]["integral_equivalence"]
    summary = run_scenario(ScenarioConfig.from_dict(raw), tmp_path)
    note = summary["r0"]["note"]
    states_discrepancy = all(q in note for q in
                             ("7.77", "0.3703", "8.621329079589127e-01"))
    ok = (abs(nominal - 0.68169) <= 1e-4
          and abs(linearized - 2.90305) <= 1e-4
          and summary["r0"]["nominal"] == nominal
          and summary["r0"]["linearized"] == linearized
          and states_discrepancy)
    _report(3, ok, f"r0_nominal = {nominal:.5f}, r0_linearized = "
                   f"{linearized:.5f}, summary states the discrepancy: "
                   f"{states_discrepancy}")


def test_criterion_04_population_balance():
    start = time.perf_counter()
    worst = 0.0
    for p in (0.4, 1.0):
        params = baseline_pseirs(p=p)
        traj = simulate_pseirs(params, baseline_history(), 300.0)
        n = traj.totals()
        infected = traj.column("I")
        h = traj.step
        dn = (n[2:] - n[:-2]) / (2.0 * h)
        rhs = (params.beta - params.mu) * n[1:-1] \
            - (params.epsilon + (1.0 - p) * params.alpha) * infected[1:-1]
        rel = float(np.max(np.abs(dn - rhs)) / np.max(np.abs(dn)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 5.0
    _report(4, ok, f"max relative balance error = {worst:.2e} "
                   f"(p in {{0.4, 1}}), {elapsed:.2f}s")


def test_criterion_05_integral_equivalence():
    start = time.perf_counter()
    params = baseline_pseirs()
    traj = simulate_pseirs(params, baseline_history(), 300.0)
    report = verify_integral_equivalence(traj, params, 20)
    elapsed = time.perf_counter() - start
    ok = report.max_residual <= 1e-4 and elapsed < 5.0
    _report(5, ok, f"max residual = {report.max_residual:.2e} over 20 "
                   f"checkpoints, {elapsed:.2f}s")


@pytest.mark.parametrize("p", [0.05, 0.4])
def test_integral_equivalence_below_p_1(p):
    # criterion 05 at p < 1: the solver returns only the recovered share
    # p*alpha*I(t-tau) to S, as the integral form of R integrates it
    params = baseline_pseirs(p=p)
    traj = simulate_pseirs(params, baseline_history(), 300.0)
    report = verify_integral_equivalence(traj, params, 20)
    assert report.max_residual <= 1e-4, report.max_residual


def test_criterion_06_probe_formula_agreement():
    start = time.perf_counter()
    checked = 0
    agreed = 0
    for gamma in (0.02, 0.06, 0.09, 0.15, 0.308):
        for omega in (0.15, 2.0, 10.0, 30.0):
            params = baseline_pseirs(gamma=gamma, omega=omega)
            r0 = r0_linearized(params)
            if abs(r0 - 1.0) <= 0.05:
                continue
            checked += 1
            want = (StabilityClass.GROWING if r0 > 1.0
                    else StabilityClass.DECAYING)
            if stability_probe(params) is want:
                agreed += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 20 and agreed == checked and elapsed < 30.0
    _report(6, ok, f"{agreed}/{checked} grid points agree, {elapsed:.2f}s")


def test_criterion_07_recovery_monotone_in_p():
    start = time.perf_counter()
    hist = baseline_history()
    low = simulate_pseirs(baseline_pseirs(p=0.4), hist, 300.0)
    high = simulate_pseirs(baseline_pseirs(p=1.0), hist, 300.0)
    elapsed = time.perf_counter() - start
    mask = low.times > 30.0
    ok = bool(np.all(low.column("R")[mask] <= high.column("R")[mask])) \
        and elapsed < 5.0
    gap = float(np.max(high.column("R")[mask] - low.column("R")[mask]))
    _report(7, ok, f"R(p=0.4) <= R(p=1) at every sample after kappa "
                   f"(max gap {gap:.3g}), {elapsed:.2f}s")


def test_criterion_08_classical_reduction_bitwise():
    # the recovery rows reconstruction computes, as every run stores them:
    # omega = 2 and tau = 4 are 16 and 32 steps of 0.125, so from row 32 on
    # each lookup returns a stored row exactly
    params = dataclasses.replace(baseline_pseirs(p=1.0), omega=2.0, tau=4.0)
    rng = np.random.default_rng(20240813)
    states = rng.uniform(0.01, 1000.0, size=(100_032, 4))
    traj = reconstruct_trajectory(params, baseline_history(),
                                  np.arange(len(states)) * 0.125, states)
    i, r = states[:, 2], states[:, 3]
    decay_t = math.exp(-params.mu * params.tau)
    classical = params.alpha * i[32:] - params.alpha * i[:-32] * decay_t \
        - params.mu * r[32:]
    got = traj.derivs[32:, 3]
    exact = int(np.sum(got.view(np.int64) == classical.view(np.int64)))
    ok = exact == len(classical)
    _report(8, ok, f"{exact}/{len(classical)} reconstructed rows bit-identical "
                   f"to the classical recovery row at p=1")


def test_criterion_09_network_generation():
    start = time.perf_counter()
    graph = generate_ba(5000, 3, 2, 7)
    edges_ok = len(graph.edges) == 9997
    degree_ok = abs(mean_degree(graph) - 3.9988) <= 1e-12
    exponents = [powerlaw_slope(degree_histogram(generate_ba(5000, 3, 2, s)), 2)
                 for s in (1, 2, 3, 4, 5)]
    elapsed = time.perf_counter() - start
    range_ok = all(2.0 <= x <= 4.0 for x in exponents)
    ok = edges_ok and degree_ok and range_ok and elapsed < 5.0
    _report(9, ok, f"9997 edges: {edges_ok}, mean degree 3.9988: {degree_ok}, "
                   f"exponents {[round(x, 2) for x in exponents]}, {elapsed:.2f}s")


def test_criterion_10_convergence_and_positivity():
    params = baseline_pseirs()
    hist = baseline_history()
    coarse = simulate_pseirs(params, hist, 300.0)
    fine = simulate_pseirs(params, hist, 300.0, step=coarse.step / 2.0)
    changes = []
    for k in range(4):
        a = float(np.abs(coarse.states[:, k]).max())
        b = float(np.abs(fine.states[:, k]).max())
        changes.append(abs(a - b) / b)
    floor = -1e-9 * coarse.totals()[0]
    positive = (float(coarse.states.min()) >= floor
                and float(fine.states.min()) >= floor)
    ok = max(changes) < 1e-5 and positive
    _report(10, ok, f"max-norm change per compartment = "
                    f"{max(changes):.2e}, positivity: {positive}")


def test_criterion_11_shipped_configs_deterministic(tmp_path):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs, "no shipped configs found"
    identical = True
    for path in configs:
        cfg_a = ScenarioConfig.from_dict(json.loads(path.read_text()))
        cfg_b = ScenarioConfig.from_dict(json.loads(path.read_text()))
        out_a = tmp_path / path.stem / "a"
        out_b = tmp_path / path.stem / "b"
        run_scenario(cfg_a, out_a)
        run_scenario(cfg_b, out_b)
        names = sorted(p.name for p in out_a.iterdir())
        if names != sorted(p.name for p in out_b.iterdir()):
            identical = False
            break
        match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names,
                                                   shallow=False)
        if mismatch or errors:
            identical = False
            break
    _report(11, identical,
            f"{len(configs)} configs re-run byte-identically: {identical}")
