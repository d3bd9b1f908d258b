"""Cloning chain and bit-commitment analyses."""

import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from convexstate import cli, linalg, protocols
from convexstate.errors import InternalCheckError, PreconditionError
from convexstate.protocols import (BindingSearchReport, apply_channel_a,
                                   binding_attack_search, build_bb84_states,
                                   cloning_contradiction, concealment_check,
                                   kraus_completeness_deviation,
                                   measurement_channel, qm_unbinding_demo,
                                   run_bit_commitment_analysis)

D0, D1, EPR = build_bb84_states()
BINDING_SEARCH = Path(__file__).parent.parent / "scripts" / "binding_search.py"


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Cloning
# ---------------------------------------------------------------------------

def test_cloning_chain_axis_pair():
    rep = cloning_contradiction((0, 0, 1), (1, 0, 0))
    assert abs(rep.r - 0.5) <= 1e-12
    assert abs(rep.r_embed - 0.5) <= 1e-12
    assert abs(rep.r_clone_bound - 0.25) <= 1e-12
    assert rep.contradiction


def test_cloning_chain_sixty_degrees():
    theta = np.radians(60)
    rep = cloning_contradiction((0, 0, 1), (np.sin(theta), 0, np.cos(theta)))
    assert abs(rep.r - 0.75) <= 1e-12
    assert abs(rep.r_clone_bound - 0.5625) <= 1e-12
    assert rep.contradiction


def test_cloning_chain_random_pairs():
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 200:
        x, y = random_unit(rng), random_unit(rng)
        r = 0.5 * (1 + x @ y)
        if r < 1e-6 or r > 1 - 1e-6:
            continue
        rep = cloning_contradiction(x, y)
        assert abs(rep.r - r) <= 1e-10
        assert abs(rep.r_embed - rep.r) <= 1e-10
        assert abs(rep.r_clone_bound - rep.r ** 2) <= 1e-10
        assert rep.r > rep.r_clone_bound
        assert rep.contradiction
        checked += 1


def test_cloning_chain_rejects_degenerate_pairs():
    with pytest.raises(PreconditionError):
        cloning_contradiction((0, 0, 1), (0, 0, 1))
    with pytest.raises(PreconditionError):
        cloning_contradiction((0, 0, 1), (0, 0, -1))


# ---------------------------------------------------------------------------
# Commitment states and concealment
# ---------------------------------------------------------------------------

def test_commitment_states_are_densities():
    for rho in (D0, D1, EPR):
        assert linalg.is_density(rho)
    expected_d0 = np.diag([0.0, 0.5, 0.5, 0.0])
    assert np.max(np.abs(D0 - expected_d0)) <= 1e-14
    expected_epr = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, -0.5, 0.0],
        [0.0, -0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    assert np.max(np.abs(EPR - expected_epr)) <= 1e-14


def test_concealment():
    ok, dev = concealment_check(D0, D1)
    assert ok and dev <= 1e-12
    for rho in (D0, D1):
        assert np.max(np.abs(linalg.partial_trace(rho, "A") - np.eye(2) / 2)) <= 1e-12


def test_epr_is_entangled():
    pt = linalg.partial_transpose(EPR, "B")
    assert abs(linalg.min_eigenvalue(pt) + 0.5) <= 1e-10


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

def test_measurement_channel_complete():
    ch = measurement_channel([linalg.ket("0"), linalg.ket("1")])
    assert kraus_completeness_deviation(ch) <= 1e-12
    with pytest.raises(PreconditionError):
        measurement_channel([linalg.ket("0"), linalg.ket("+")])


def test_apply_channel_matches_kron_oracle():
    rng = np.random.default_rng(72)
    for _ in range(20):
        seeds = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        s = np.einsum("nba,nbc->ac", seeds.conj(), seeds)
        w, v = np.linalg.eigh(s)
        inv_sqrt = v @ np.diag(w ** -0.5) @ v.conj().T
        kraus = np.einsum("nab,bc->nac", seeds, inv_sqrt)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        mine = apply_channel_a(kraus, rho)
        ref = sum(np.kron(k, np.eye(2)) @ rho @ np.kron(k, np.eye(2)).conj().T
                  for k in kraus)
        assert np.max(np.abs(mine - ref)) <= 1e-12
        assert linalg.is_density(mine)


def test_qm_unbinding_exact():
    t0, t1 = qm_unbinding_demo()
    assert t0.deviation <= 1e-12 and t1.deviation <= 1e-12
    assert np.max(np.abs(t0.output - D0)) <= 1e-12
    assert np.max(np.abs(t1.output - D1)) <= 1e-12
    assert t0.target_label == "D0" and t1.target_label == "D1"


def test_qm_unbinding_flags_wrong_shared_state():
    with pytest.raises(InternalCheckError):
        qm_unbinding_demo(np.eye(4) / 4)


# ---------------------------------------------------------------------------
# Binding search
# ---------------------------------------------------------------------------

def test_epr_with_demo_channels_zero_residual():
    t0, t1 = qm_unbinding_demo()
    assert binding_residual(EPR, t0.kraus, t1.kraus, D0, D1) <= 1e-10


def test_binding_residual_stays_large():
    report = binding_attack_search(support=4, starts=4, seed=0, sweeps=12)
    assert isinstance(report, BindingSearchReport)
    assert report.residual > 0.01
    assert "evidence for binding" in report.message
    assert linalg.is_density(report.best_sigma)
    assert kraus_completeness_deviation(report.best_kraus0) <= 1e-10
    assert kraus_completeness_deviation(report.best_kraus1) <= 1e-10


def test_binding_search_finds_trivial_attack():
    report = binding_attack_search(D0, D0, support=4, starts=2, sweeps=8)
    assert report.residual <= 1e-10
    assert "attack found" in report.message


def test_binding_search_deterministic():
    r1 = binding_attack_search(support=2, starts=3, seed=5, sweeps=6)
    r2 = binding_attack_search(support=2, starts=3, seed=5, sweeps=6)
    assert r1.residual == r2.residual
    assert r1.start_residuals == r2.start_residuals


# Captured from the serial search (one start and one coordinate probe at a
# time) that preceded the lockstep batch; the batch must retrace it.
# Under (1, 3, 30, 0) the starts stop in sweeps 24 and 28; the third runs all 30.
PINNED_TRAJECTORIES = {
    (2, 3, 6, 5): (2616, 0, (0.25000054090860624, 0.2634880999830396,
                             0.2912304291927958)),
    (4, 6, 12, 0): (12411, 5, (0.1267608570655548, 0.17017944533811413,
                               0.13412643461759202, 0.1309938313300849,
                               0.12764620289409792, 0.12557250887141844)),
    (1, 3, 30, 0): (11515, 0, (0.8750000000034899, 0.8750000000390048,
                               0.8750000045936585)),
}


@pytest.mark.parametrize("budget", sorted(PINNED_TRAJECTORIES))
def test_binding_search_pinned_trajectory(budget):
    support, starts, sweeps, seed = budget
    evaluations, best_start, residuals = PINNED_TRAJECTORIES[budget]
    report = binding_attack_search(support=support, starts=starts, seed=seed,
                                   sweeps=sweeps)
    assert report.evaluations == evaluations
    assert report.best_start == best_start
    assert len(report.start_residuals) == starts
    for got, want in zip(report.start_residuals, residuals):
        assert abs(got - want) <= 1e-12
    assert report.residual == report.start_residuals[best_start]


def serial_search(support, starts, seed, sweeps):
    """Reference search, one start at a time: at each coordinate +step,
    then -step only if +step failed; one evaluation per probe.  Returns the
    per-start residuals, the evaluation count and the parameter rows."""
    targets = pauli_targets(D0, D1)
    n_sigma = support * 7
    offsets = (n_sigma, n_sigma + 32)
    n_total = n_sigma + 64

    def score(p):
        row = p[None]
        corr = protocols._correlations(*protocols._mixture_parts(row[:, :n_sigma], support))
        transfer, _, ok = protocols._channels(row[:, n_sigma:].reshape(1, 2, 32))
        return protocols._scores(corr, transfer, ok, targets)[0]

    warm = np.zeros(n_total)
    warm[0:7] = [0, 0, 1, 0, 0, -1, 1.0]
    if support >= 2:
        warm[7:14] = [0, 0, -1, 0, 0, 1, 1.0]
    for i in range(2, support):
        warm[i * 7:(i + 1) * 7] = [0, 0, 1, 0, 0, 1, 0.0]
    warm[[offsets[0], offsets[0] + 6, offsets[1], offsets[1] + 6]] = 1.0

    residuals, rows, evaluations = [], [], 0
    for s in range(starts):
        p = warm.copy()
        if s:
            p = np.random.default_rng([seed, s]).normal(scale=0.8, size=n_total)
            p[[offsets[0], offsets[0] + 6, offsets[1], offsets[1] + 6]] += 1.0
        val = score(p)
        evaluations += 1
        if not math.isfinite(val):
            p = warm.copy()
            val = score(p)
            evaluations += 1
        step = 0.35
        for _ in range(sweeps):
            improved = False
            for j in range(n_total):
                for sign in (1.0, -1.0):
                    q = p.copy()
                    q[j] += sign * step
                    v = score(q)
                    evaluations += 1
                    if v < val - 1e-14:
                        p, val, improved = q, v, True
                        break
            if not improved:
                step *= 0.5
            if step < 1e-4:
                break
        residuals.append(val)
        rows.append(p)
    return tuple(float(v) for v in residuals), evaluations, rows


@pytest.mark.parametrize("budget", [(1, 3, 30, 0), (2, 3, 6, 5), (3, 3, 5, 2)])
def test_binding_search_retraces_serial_rule(budget):
    support, starts, sweeps, seed = budget
    residuals, evaluations, rows = serial_search(support, starts, seed, sweeps)
    report = binding_attack_search(support=support, starts=starts, seed=seed,
                                   sweeps=sweeps)
    assert report.start_residuals == residuals
    assert type(report.evaluations) is int and report.evaluations == evaluations
    best = int(np.argmin(residuals))
    assert report.best_start == best
    p = rows[best][None]
    n_sigma = support * 7
    corr = protocols._correlations(*protocols._mixture_parts(p[:, :n_sigma], support))
    assert np.array_equal(report.best_sigma, protocols._state(corr[0]))
    for kraus, off in ((report.best_kraus0, n_sigma), (report.best_kraus1, n_sigma + 32)):
        assert np.array_equal(kraus, protocols._kraus(p[0, off:off + 32]))


def test_binding_search_rejects_negative_seed():
    with pytest.raises(PreconditionError, match="seed"):
        binding_attack_search(support=1, starts=1, sweeps=1, seed=-1)


def test_reduced_bit_commitment_report_pinned(tmp_path):
    """The report `scripts/run_all_analyses.py --seed 0` writes for the
    bit commitment, byte for byte."""
    out = tmp_path / "report.json"
    argv = ["protocol", "bc", "--support", "4", "--starts", "6", "--sweeps", "12",
            "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 0
    pinned = Path(__file__).parent / "data" / "pinned_reports" / "protocol_bit_commitment.json"
    assert out.read_bytes() == pinned.read_bytes()


def test_binding_search_best_point_oracle():
    report = binding_attack_search(support=4, starts=6, seed=0, sweeps=12)
    direct = binding_residual(report.best_sigma, report.best_kraus0,
                              report.best_kraus1, D0, D1)
    assert abs(report.residual - direct) <= 1e-12
    assert linalg.is_density(report.best_sigma)
    pt = linalg.partial_transpose(report.best_sigma, "B")
    assert linalg.min_eigenvalue(pt) >= -1e-12
    assert kraus_completeness_deviation(report.best_kraus0) <= 1e-10
    assert kraus_completeness_deviation(report.best_kraus1) <= 1e-10


def pauli_targets(d0, d1):
    return linalg.pauli_coefficients(np.stack([d0, d1]))


def binding_residual(sigma, kraus0, kraus1, d0, d1) -> float:
    """Plain-definition attack objective:
    |Lambda0(sigma) - D0|^2 + |Lambda1(sigma) - D1|^2 (HS norms)."""
    r0 = apply_channel_a(np.asarray(kraus0, dtype=complex), sigma)
    r1 = apply_channel_a(np.asarray(kraus1, dtype=complex), sigma)
    return linalg.hs_distance(r0, d0) ** 2 + linalg.hs_distance(r1, d1) ** 2


def complex_channels(p):
    """Plain-definition channel builder, one row of 32 raw reals at a time:
    K_n = s_n S^{-1/2} for the complex 2x2 seeds s_n, with S^{-1/2} the
    inverse of the closed form sqrt(S) = (S + sqrt(det S) I) /
    sqrt(tr S + 2 sqrt(det S)).  Returns the Kraus operators (m, 4, 2, 2)
    and the rejection flags ok (m,) of the rule: tr S > 1e-8 and
    det S > 1e-10 max(1, tr S)^2; rejected rows get None."""
    kraus, ok = [], []
    for row in p:
        seeds = (row[0::2] + 1j * row[1::2]).reshape(4, 2, 2)
        s = np.einsum("nba,nbc->ac", seeds.conj(), seeds)
        tr, det = np.trace(s).real, (s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]).real
        ok.append(bool(tr > 1e-8 and det > 1e-10 * max(1.0, tr) ** 2))
        if not ok[-1]:
            kraus.append(None)
            continue
        sqrt_s = (s + math.sqrt(det) * np.eye(2)) / math.sqrt(tr + 2.0 * math.sqrt(det))
        kraus.append(seeds @ np.linalg.inv(sqrt_s))
    return kraus, np.array(ok)


def random_channel_rows(rng, count):
    """Seeded channel rows like the search's random starts, plus rows on
    both sides of the rejection rule: S = diag(1, eps) with eps = 1e-9
    (kept) and 1e-11 (rejected), a rank-1 S, a tiny S and an all-zero row."""
    rows = rng.normal(scale=0.8, size=(count, 32))
    rows[:, [0, 6]] += 1.0
    special = np.zeros((5, 32))
    special[0, [0, 6]] = 1.0, math.sqrt(1e-9)
    special[1, [0, 6]] = 1.0, math.sqrt(1e-11)
    special[2, 0::4] = rng.normal(size=8)     # first columns only: s_n = u_n (1, 0)
    special[3] = 1e-5 * rng.normal(size=32)
    return np.concatenate([rows, special])


@pytest.mark.parametrize("name", ["bb84", "d0d0", "random"])
def test_pauli_scores_match_plain_definition(name):
    rng = np.random.default_rng(74)
    d0, d1 = {"bb84": (D0, D1), "d0d0": (D0, D0)}.get(name, (None, None))
    if d0 is None:
        m = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        d0, d1 = (x @ x.conj().T / np.trace(x @ x.conj().T).real for x in m)
    support, count = 3, 40
    raw = random_channel_rows(rng, count)
    order = rng.permutation(raw.shape[0])
    c0, c1 = raw, raw[order]
    states = rng.normal(size=(c0.shape[0], support * 7))
    corr = protocols._correlations(*protocols._mixture_parts(states, support))
    (t0, _, ok0), (t1, _, ok1) = protocols._channels(c0), protocols._channels(c1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = protocols._scores(corr, np.stack([t0, t1], axis=1),
                                   np.stack([ok0, ok1], axis=1), pauli_targets(d0, d1))
    (k0, want0), (k1, want1) = complex_channels(c0), complex_channels(c1)
    assert ok0.tolist() == want0.tolist() and ok1.tolist() == want1.tolist()
    assert want0[count:].tolist() == [True, False, False, False, False]
    for i in range(c0.shape[0]):
        if not (ok0[i] and ok1[i]):
            assert values[i] == np.inf
            continue
        q = states[i].reshape(support, 7)
        sigma = sum(g[6] ** 2 * np.kron(linalg.bloch_projector(g[0:3] / np.linalg.norm(g[0:3])),
                                        linalg.bloch_projector(g[3:6] / np.linalg.norm(g[3:6])))
                    for g in q) / np.sum(q[:, 6] ** 2)
        # S = diag(1, 1e-9) has condition 1e9: det S = s0^2 - |s|^2 keeps
        # about 7 digits there, where the complex form S00 S11 is exact
        tol = 1e-14 if max(i, order[i]) < count else 1e-7
        assert abs(values[i] - binding_residual(sigma, k0[i], k1[i], d0, d1)) <= tol


def test_channel_builder_rejects_singular_row_alone():
    rng = np.random.default_rng(73)
    raw = rng.normal(size=(3, 32))
    raw[1] = 0.0
    corr = protocols._correlations(*protocols._mixture_parts(rng.normal(size=(3, 14)), 2))
    targets = pauli_targets(D0, D1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transfer, _, ok = protocols._channels(raw)
        pair = np.stack([transfer, transfer], axis=1)
        values = protocols._scores(corr, pair, np.stack([ok, ok], axis=1), targets)
    assert ok.tolist() == [True, False, True]
    assert values[1] == np.inf
    for i in (0, 2):
        t1, _, ok1 = protocols._channels(raw[i:i + 1])
        assert ok1.tolist() == [True]
        assert np.array_equal(transfer[i], t1[0])
        kraus = protocols._kraus(raw[i])
        assert kraus_completeness_deviation(kraus) <= 1e-12
        one = protocols._scores(corr[i:i + 1], np.stack([t1, t1], axis=1),
                                np.stack([ok1, ok1], axis=1), targets)
        assert one[0] == values[i]
        sigma = protocols._state(corr[i])
        assert abs(values[i] - binding_residual(sigma, kraus, kraus, D0, D1)) <= 1e-12


def test_state_inverts_pauli_coefficients():
    rng = np.random.default_rng(75)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m + m.conj().T
    assert np.max(np.abs(protocols._state(linalg.pauli_coefficients(rho)) - rho)) <= 1e-14


def test_binding_search_rejects_bad_budgets():
    for kwargs in ({"support": 0}, {"starts": 0}, {"sweeps": -1}):
        with pytest.raises(PreconditionError):
            binding_attack_search(**kwargs)


@pytest.mark.parametrize("argv", [["--starts", "0"], ["--support", "-3"], ["--sweeps", "1_0"],
                                  ["--seed", "-1"], ["--seed", "+7"]])
def test_binding_search_script_rejects_bad_arguments(argv, capsys):
    # Read by the CLI's budget and seed types, so the search never starts.
    spec = importlib.util.spec_from_file_location("binding_search", BINDING_SEARCH)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[0]}: must be" in capsys.readouterr().err


def test_full_report_shape():
    rep = run_bit_commitment_analysis(support=2, starts=2, sweeps=5)
    assert rep.concealing
    assert not rep.epr_separable
    assert abs(rep.epr_partial_transpose_min_eig + 0.5) <= 1e-10
    assert rep.qm_unbinding_demonstrated
    assert rep.qm_unbinding_max_deviation <= 1e-12
    out = rep.to_json_dict()
    assert sorted(out.keys()) == [
        "concealing", "concealment_deviation", "epr_partial_transpose_min_eig",
        "epr_separable", "qm_unbinding_demonstrated",
        "qm_unbinding_max_deviation", "search", "separable_binding_residual",
    ]
