"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.
"""

import numpy as np
import pytest

from teleportsim import (
    AliceMeasurement,
    BobCorrections,
    Protocol,
    SchmidtDecomposition,
    check_optimality,
    estimation_fidelity_bound,
    estimation_fidelity_exact,
    fidelity_bound,
    m_kl_exact,
    m_kl_monte_carlo,
    make_rng,
    max_singlet_fraction,
    mean_fidelity_exact,
    mean_fidelity_mkl_form,
    mean_fidelity_monte_carlo,
    optimal_estimates,
    optimal_fidelity_given_measurement,
    random_povm,
    standard_measurement,
    standard_protocol,
    validate_completeness,
)
from helpers import random_kraus_set, random_lambdas, report_violations


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_bound_saturation():
    # standard protocol attains the fidelity bound, 100 random spectra per d
    worst = 0.0
    rng = make_rng(1001)
    for d in (2, 3, 4, 5):
        for _ in range(100):
            lam = random_lambdas(d, rng)
            gap = abs(mean_fidelity_exact(standard_protocol(lam)) - fidelity_bound(lam))
            worst = max(worst, gap)
    report("criterion-1 bound saturation", worst <= 1e-10, f"max |exact - bound| = {worst:.3e}")


def test_criterion_2_perfect_teleportation_endpoint():
    worst = 0.0
    for d in range(2, 7):
        f = mean_fidelity_exact(standard_protocol(np.full(d, 1 / np.sqrt(d))))
        worst = max(worst, abs(f - 1.0))
    report("criterion-2 perfect endpoint", worst <= 1e-12, f"max |exact - 1| = {worst:.3e}")


def test_criterion_3_zero_entanglement_endpoint():
    worst = 0.0
    for d in range(2, 7):
        lam = np.zeros(d)
        lam[0] = 1.0
        target = 2 / (d + 1)
        worst = max(worst, abs(mean_fidelity_exact(standard_protocol(lam)) - target))
        worst = max(worst, abs(estimation_fidelity_bound(lam) - target))
    report(
        "criterion-3 zero-entanglement endpoint",
        worst <= 1e-12,
        f"max deviation from 2/(d+1) = {worst:.3e}",
    )


def test_criterion_4_mc_exact_consistency():
    rng = make_rng(1004)
    outliers = 0
    worst_z = 0.0
    for case in range(20):
        d = 2 + case % 2
        lam = random_lambdas(d, rng)
        proto = standard_protocol(lam)
        est = mean_fidelity_monte_carlo(proto, 100_000, make_rng(1004, stream=case + 1))
        z = abs(est.value - mean_fidelity_exact(proto)) / est.std_error
        worst_z = max(worst_z, z)
        if z > 4.0:
            outliers += 1
    report(
        "criterion-4 MC/exact consistency",
        outliers <= 1,
        f"max |z| = {worst_z:.2f}, outliers beyond 4 sigma = {outliers}/20",
    )


def test_criterion_5_moment_operator_verification():
    worst_z = 0.0
    stream = 0
    for d in (2, 3):
        for k in range(d):
            for l in range(d):
                stream += 1
                est = m_kl_monte_carlo(d, k, l, 100_000, make_rng(1005, stream=stream))
                dev = np.abs(np.asarray(est.value) - m_kl_exact(d, k, l).matrix)
                worst_z = max(worst_z, float(np.max(dev / np.asarray(est.std_error))))
    report(
        "criterion-5 moment-operator verification",
        worst_z <= 4.0,
        f"max entrywise |z| over d=2,3 and all (k,l) = {worst_z:.2f}",
    )


def test_criterion_6_estimation_bound_attained():
    rng = make_rng(1006)
    worst = 0.0
    for d in (2, 3, 4, 5):
        meas = standard_measurement(d)
        strategy = optimal_estimates(meas)
        for _ in range(100):
            lam = random_lambdas(d, rng)
            dev = abs(
                estimation_fidelity_exact(meas, lam, strategy)
                - (1 + lam[0] ** 2) / (d + 1)
            )
            worst = max(worst, dev)
    maxent_worst = 0.0
    for d in (2, 3, 4, 5):
        meas = standard_measurement(d)
        value = estimation_fidelity_exact(
            meas, np.full(d, 1 / np.sqrt(d)), optimal_estimates(meas)
        )
        maxent_worst = max(maxent_worst, abs(value - 1 / d))
    report(
        "criterion-6 estimation bound attained",
        worst <= 1e-10 and maxent_worst <= 1e-13,
        f"max |exact - bound| = {worst:.3e}, max-entangled deviation from 1/d = {maxent_worst:.3e}",
    )


def test_criterion_7_bound_validity_oracle():
    rng = make_rng(1007)
    total = 0
    worst_excess = -np.inf
    # R = d outcomes cannot give a complete rank-one POVM (the joint identity
    # has rank d^2), so the mix covers the minimal and an overcomplete size.
    for d in (2, 3):
        for n_outcomes in (d * d, 2 * d * d):
            for _ in range(2500):
                lam = random_lambdas(d, rng)
                meas = random_povm(d, n_outcomes, rng)
                excess = optimal_fidelity_given_measurement(meas, lam) - fidelity_bound(lam)
                worst_excess = max(worst_excess, excess)
                total += 1
    report(
        "criterion-7 bound validity oracle",
        total >= 10_000 and worst_excess <= 1e-9,
        f"{total} random POVMs, max (fidelity - bound) = {worst_excess:.3e}",
    )


def test_criterion_8_optimality_condition_detector():
    rng = make_rng(1008)
    ok = True
    details = []
    for d in range(2, 7):
        schmidt = SchmidtDecomposition(random_lambdas(d, rng))
        rep = check_optimality(standard_measurement(d), schmidt, tol=1e-10)
        if not rep.passed:
            ok = False
            details.append(f"standard d={d} flagged")
    schmidt = SchmidtDecomposition([0.8, 0.6])
    # unequal norms within an outcome
    phi = np.array(standard_measurement(2).phi)
    phi[1, 1] *= 1.3
    rep = check_optimality(AliceMeasurement(phi), schmidt, tol=1e-10)
    if rep.passed or {kind for *_, kind in report_violations(rep)} != {"unequal_norm"}:
        ok = False
        details.append("unequal-norm violation not classified")
    # non-orthogonal pair within an outcome
    phi = np.array(standard_measurement(2).phi)
    phi[0, 1] = phi[0, 0]
    rep = check_optimality(AliceMeasurement(phi), schmidt, tol=1e-10)
    if rep.passed or {kind for *_, kind in report_violations(rep)} != {"non_orthogonal"}:
        ok = False
        details.append("non-orthogonal violation not classified")
    # broken completeness
    phi = np.array(standard_measurement(2).phi)
    phi[0, 0] *= 1.01
    comp = validate_completeness(AliceMeasurement(phi), tol=1e-10)
    if comp.passed or comp.worst_pair != (0, 0):
        ok = False
        details.append("completeness violation not flagged at the touched block")
    report(
        "criterion-8 optimality-condition detector",
        ok,
        "; ".join(details) if details else "standard passes d=2..6, all three violations classified",
    )


def test_criterion_9_singlet_fraction_link():
    rng = make_rng(1009)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for _ in range(100):
            lam = random_lambdas(d, rng)
            f = max_singlet_fraction(lam)
            worst = max(worst, abs(fidelity_bound(lam) - (f * d + 1) / (d + 1)))
    report(
        "criterion-9 singlet-fraction link",
        worst <= 1e-12,
        f"max |bound - (f d + 1)/(d + 1)| = {worst:.3e}",
    )


def test_criterion_10_fidelity_formulation_equivalence():
    rng = make_rng(1010)
    worst = 0.0
    for i in range(10):
        lam = random_lambdas(2, rng)
        meas = random_povm(2, 4 if i % 2 else 8, rng)
        if i % 2:
            blocks = tuple(random_kraus_set(2, 2, rng) for _ in range(meas.n_outcomes))
            corr = BobCorrections(blocks)
        else:
            corr = BobCorrections([random_kraus_set(2, 1, rng)[0] for _ in range(meas.n_outcomes)])
        proto = Protocol(SchmidtDecomposition(lam), meas, corr)
        worst = max(worst, abs(mean_fidelity_exact(proto) - mean_fidelity_mkl_form(proto)))
    report(
        "criterion-10 formulation equivalence",
        worst <= 1e-12,
        f"max |reduced - moment-operator form| = {worst:.3e}",
    )
