"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Two criteria check what the methods promise rather than a number the
methods cannot give (README, "Acceptance criteria 04 and 11"):

* criterion 04: every entangled pure two-qubit state violates CHSH under
  optimal settings, so the two-site family has no interior threshold;
  ``chsh_max`` is checked against a concurrence oracle on the grid and
  the threshold search must stop at its lower edge.
* criterion 11: the noiseless inversion round trip is held to 1e-6
  wherever float64 resolves epsilon that finely, and to the float64
  resolution of epsilon elsewhere (only epsilon = 0.9, n >= 17).
"""

import json
import math
import time

import numpy as np

from puritynet.bs_network import (
    purities_from_probabilities,
    sign_probabilities_from_purities,
)
from puritynet.cli import main as cli_main
from puritynet.lattice import (
    FockState,
    LatticeParams,
    build_hamiltonians,
    embed_two_copies,
    interaction_phase_check,
    occupancy_probabilities,
    propagator,
    standard_test_states,
    hopping_bs_check,
)
from puritynet.qstate import DensityOperator, PureState
from puritynet.separability import (
    VIOLATION_THRESHOLD,
    all_subset_purities,
    chain_links,
    chsh_max,
    chsh_threshold_phi,
    fig2a_violations,
    maximal_chains,
)
from puritynet.states import (
    cat_purity_closed_form,
    cluster_family_state,
    collision_phase_amplitudes,
    estimate_epsilon,
    ghz,
)

from conftest import (
    cat_reduced_purity_brute_force,
    projector_expectation_oracle,
    ref_chsh_max_pure,
    ref_epsilon_resolution,
    ref_purity,
    ref_random_state,
    ref_subset_purity,
    sign_probability,
    sign_vectors,
    tensor,
)


def report(num, title, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d}: {title}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line, flush=True)
    return ok


def test_criterion_01_round_trip_inversion():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 5):
        for seed in range(100):
            rank = 1 if seed % 2 == 0 else 2 + seed % (2**n - 1) if 2**n > 1 else 1
            rho = ref_random_state(n, rank, seed)
            direct = all_subset_purities(rho)
            recovered = purities_from_probabilities(sign_probabilities_from_purities(all_subset_purities(rho)))
            for subset in direct.subsets():
                worst = max(worst, abs(recovered.purity(subset) - direct.purity(subset)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30
    assert report(
        1,
        "probability-to-purity round trip, 100 states each at N=1..4",
        ok,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_projector_oracle_equivalence():
    worst = 0.0
    for n in (2, 3):
        for seed in range(25):
            rho = ref_random_state(n, 1 + seed % 2**n, 1000 + seed)
            table = sign_probabilities_from_purities(all_subset_purities(rho))
            for signs in sign_vectors(n):
                worst = max(
                    worst, abs(sign_probability(table, signs) - projector_expectation_oracle(rho, signs))
                )
    ok = worst <= 1e-10
    assert report(2, "explicit two-copy projector oracle vs fast path", ok, f"worst {worst:.2e}")


def test_criterion_03_fig2a_regression():
    start = time.perf_counter()
    grid = np.linspace(0.0, 2 * math.pi, 101)
    v1, v2, v3 = fig2a_violations(grid)
    v1_0, v1_2pi = v1[0], v1[-1]
    v1_pi = fig2a_violations(np.array([math.pi]))[0][0]
    max_v2 = max(v2)
    max_v3 = max(v3)
    elapsed = time.perf_counter() - start
    checks = [
        abs(v1_0) <= 1e-12,
        abs(v1_2pi) <= 1e-12,
        abs(v1_pi - 0.5) <= 1e-9,
        max_v2 <= 1e-12,
        max_v3 > 0,
        elapsed < 10,
    ]
    assert report(
        3,
        "three-site violation curves on the 101-point grid",
        all(checks),
        f"V1(pi)={v1_pi:.6f}, max V2={max_v2:.1e}, max V3={max_v3:.4f}, {elapsed:.1f}s",
    )


def test_criterion_04_chsh_threshold():
    grid = np.linspace(0.0, 2 * math.pi, 101)
    # clause 2: purity detection covers every grid point where an
    # independent purity oracle sees a violation while CHSH is also checked
    purity_covers = True
    links = chain_links([[(1, 2), (1,)]], 2)
    for phi in grid:
        rho = cluster_family_state(2, float(phi)).to_density()
        oracle_v = ref_subset_purity(rho.matrix, 2, [1, 2]) - ref_subset_purity(rho.matrix, 2, [1])
        if oracle_v > 1e-9:
            detected = (links.violations(all_subset_purities(rho)) > VIOLATION_THRESHOLD).any()
            purity_covers = purity_covers and detected

    # The smallest violating phi is not an interior value near 0.7: for a
    # pure two-qubit state the optimal-settings CHSH value is
    # 2 sqrt(1 + C^2) (Horodecki criterion), and both two-site families
    # have concurrence C = |sin(phi/2)|, so every phi in (0, 2 pi) already
    # violates (Gisin's theorem).  README, "Acceptance criteria 04 and 11".
    families = {
        "superposition": lambda phi: cluster_family_state(2, phi),
        "collision": lambda phi: PureState(2, collision_phase_amplitudes(2, phi)),
    }
    worst_dev = 0.0  # (a) chsh_max against the concurrence oracle
    oracle_violates = True  # (b) oracle value > 2 strictly inside (0, 2 pi)
    for make in families.values():
        for phi in grid:
            psi = make(float(phi))
            oracle = ref_chsh_max_pure(psi.amplitudes)
            worst_dev = max(worst_dev, abs(chsh_max(psi.to_density()) - oracle))
            if 0.0 < phi < 2 * math.pi:
                oracle_violates = oracle_violates and oracle > 2.0
    # (c) the threshold search up to the cluster state at phi = pi stops at
    # its lower edge: no interior threshold
    thresholds = {
        (family, lo): chsh_threshold_phi(family, lo=lo, hi=math.pi)
        for family in families
        for lo in (1e-4, 1e-6)
    }
    at_edge = all(t == lo for (_, lo), t in thresholds.items())

    report(
        4,
        "two-site CHSH: optimal value matches the concurrence oracle, no interior threshold",
        purity_covers and worst_dev <= 1e-12 and oracle_violates and at_edge,
        f"worst |chsh_max - 2 sqrt(1+C^2)| {worst_dev:.1e}; thresholds "
        f"{', '.join(f'{f}@{lo:.0e}:{t:.1e}' for (f, lo), t in thresholds.items())}; "
        f"purity covers all oracle violations: {purity_covers}",
    )
    assert purity_covers
    assert worst_dev <= 1e-12, f"chsh_max departs from 2 sqrt(1 + C^2) by {worst_dev:.2e}"
    assert oracle_violates, "an entangled grid point does not violate CHSH per the oracle"
    assert at_edge, f"threshold search left its lower edge: {thresholds}"


def test_criterion_05_cat_closed_form_vs_brute_force():
    start = time.perf_counter()
    ket0 = PureState(1, [1.0, 0.0])
    worst = 0.0
    for n in (4, 6, 8):
        for overlap in np.arange(0.0, 1.0001, 0.1):
            phi2 = PureState(1, [overlap, math.sqrt(max(0.0, 1 - overlap**2))])
            gamma = float(overlap) ** 2
            for m in range(n + 1):
                brute = cat_reduced_purity_brute_force(n, ket0, phi2, m)
                closed = cat_purity_closed_form(n, m, gamma)
                worst = max(worst, abs(brute - closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 20
    assert report(
        5,
        "closed-form cat purity vs brute-force reduction, N in {4,6,8}",
        ok,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_fig2b_regression(tmp_path):
    out = tmp_path / "fig2b.csv"
    assert cli_main(["fig2b", "--n", "300", "--m", "1,7,14,20", "--points", "101", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    eps0, eps1 = rows[0], rows[-1]
    mid = next(r for r in rows if r[0] == 0.5)
    gaps = [abs(v - 0.5) for v in mid[1:]]
    checks = [
        all(abs(v - 1.0) <= 1e-12 for v in eps0[1:]),
        all(abs(v - 0.5) <= 1e-12 for v in eps1[1:]),
        all(a > b for a, b in zip(gaps, gaps[1:])),
    ]
    assert report(
        6,
        "cat purity CSV endpoints and monotone gap at epsilon=0.5",
        all(checks),
        f"gaps at eps=0.5: {', '.join(f'{g:.3f}' for g in gaps)}",
    )


def test_criterion_07_ghz_identification():
    worst = 0.0
    for n in range(2, 7):
        pm = all_subset_purities(ghz(n).to_density())
        worst = max(worst, abs(pm.purity(tuple(range(1, n + 1))) - 1.0))
        for subset in pm.subsets():
            if len(subset) < n:
                worst = max(worst, abs(pm.purity(subset) - 0.5))
    ok = worst <= 1e-12
    assert report(
        7, "GHZ N=2..6: full purity 1, all proper reductions 1/2", ok, f"worst {worst:.2e}"
    )


def test_criterion_08_lattice_bs_timing():
    params = LatticeParams(n_sites=1)
    basis, states = standard_test_states()
    min_fidelity = hopping_bs_check(params.J, [params.U], basis, states)[0].min()

    h_bs, _ = build_hamiltonians(params, basis)
    prop = propagator(h_bs, params.t_bs)
    p_pair = occupancy_probabilities([(1.0, FockState(basis, prop @ states[0]))], 1).p_diff_mode
    p_singlet = occupancy_probabilities([(1.0, FockState(basis, prop @ states[2]))], 1).p_diff_mode

    checks = [
        len(states) == 10,
        min_fidelity >= 1 - 1e-10,
        abs(p_pair) <= 1e-10,
        abs(p_singlet - 1.0) <= 1e-10,
    ]
    assert report(
        8,
        "splitter timing: fidelity on 10 states, bunching and singlet",
        all(checks),
        f"min fidelity {min_fidelity:.12f}, P_diff pair {p_pair:.1e}, singlet {p_singlet:.10f}",
    )


def test_criterion_09_interaction_phase():
    basis, _ = standard_test_states()
    worst = max(rep["max_deviation"] for rep in interaction_phase_check((0.1, math.pi / 2, math.pi), basis))
    ok = worst <= 1e-12
    assert report(
        9, "doubly occupied site-rows acquire exactly U per unit time", ok, f"worst deviation {worst:.2e}"
    )


def test_criterion_10_end_to_end_pipeline():
    params = LatticeParams(n_sites=1)
    worst = 0.0
    prop = None
    for seed in range(20):
        rho = ref_random_state(1, 1 + seed % 2, 500 + seed)
        basis, ensemble = embed_two_copies(rho)
        if prop is None:
            h_bs, _ = build_hamiltonians(params, basis)
            prop = propagator(h_bs, params.t_bs)
        evolved = [(w, FockState(basis, prop @ s.amplitudes)) for w, s in ensemble]
        got = occupancy_probabilities(evolved, 1).p_diff_mode
        expected = (1 - ref_purity(rho.matrix)) / 2
        worst = max(worst, abs(got - expected))
    ok = worst <= 1e-9
    assert report(
        10, "embed -> evolve -> occupancy agrees with projection formula", ok, f"worst {worst:.2e}"
    )


def test_criterion_11_epsilon_estimation(tmp_path):
    recovery_errors = {}
    for eps in (0.3, 0.6, 0.9):
        out = tmp_path / f"cat_{eps}.json"
        code = cli_main(
            [
                "cat-experiment", "--n", "300", "--epsilon", str(eps), "--survival", "0.95",
                "--runs", "1000", "--seed", "20260810", "--out", str(out),
            ]
        )
        assert code == 0
        recovery_errors[eps] = json.loads(out.read_text())["abs_error"]
    recovery_ok = all(err <= 0.02 for err in recovery_errors.values())

    # Float64 fixes epsilon only to r = spacing(Pi) / |dPi/deps|; where r
    # exceeds 1e-6 (epsilon = 0.9, n >= 17: gamma^n < 1e-12 leaves Pi
    # within ~1e-12 of 1/2) the round trip is held to r instead.  README,
    # "Acceptance criteria 04 and 11".
    round_trip_worst = (0.0, None)  # worst error / bound
    exempt = set()
    for eps in (0.3, 0.6, 0.9):
        gamma = 1 - eps**2
        for n in range(1, 21):
            err = abs(estimate_epsilon(cat_purity_closed_form(300, n, gamma), 300, n) - eps)
            resolution = ref_epsilon_resolution(300, n, eps)
            if resolution > 1e-6:
                exempt.add((eps, n))
            ratio = err / max(1e-6, resolution)
            if ratio > round_trip_worst[0]:
                round_trip_worst = (ratio, (eps, n))
    round_trip_ok = round_trip_worst[0] <= 1.0
    exempt_ok = exempt == {(0.9, n) for n in range(17, 21)}

    report(
        11,
        "epsilon recovery under loss and noiseless inversion round trip",
        recovery_ok and round_trip_ok and exempt_ok,
        f"recovery errors {', '.join(f'{e}:{v:.1e}' for e, v in recovery_errors.items())}; "
        f"worst round trip {round_trip_worst[0]:.2f} of its bound at (eps,n)={round_trip_worst[1]}; "
        f"held to float64 resolution at {sorted(exempt)}",
    )
    assert recovery_ok, f"recovery errors {recovery_errors}"
    assert round_trip_ok, (
        f"round trip error {round_trip_worst[0]:.2f} times its bound at (eps, n) = "
        f"{round_trip_worst[1]}"
    )
    assert exempt_ok, f"points beyond float64 1e-6 resolution: {sorted(exempt)}"


def test_criterion_12_separable_non_detection():
    rng = np.random.default_rng(99)
    flagged = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        terms = int(rng.integers(1, 9))
        weights = rng.dirichlet(np.ones(terms))
        mat = None
        for t in range(terms):
            factors = [ref_random_state(1, int(rng.integers(1, 3)), int(rng.integers(0, 2**31))) for _ in range(n)]
            term = tensor(factors).matrix * weights[t]
            mat = term if mat is None else mat + term
        rho = DensityOperator(n, (mat + mat.conj().T) / 2)
        pm = all_subset_purities(rho)
        if (chain_links(maximal_chains(n), n).violations(pm) > VIOLATION_THRESHOLD).any():
            flagged += 1
    ok = flagged == 0
    assert report(
        12, "50 random separable mixtures produce no violation flag", ok, f"{flagged} flagged"
    )
