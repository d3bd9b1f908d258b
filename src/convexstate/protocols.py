"""Protocol-level consequences: no cloning, and BB84-style bit commitment.

Cloning chain.  For distinct non-orthogonal pure states x, y with ratio
r in (0, 1), a cloner would give a chain of transition-probability
comparisons ending in r <= r^2, which fails for every r strictly between
0 and 1.  ``cloning_contradiction`` evaluates every link with the
full-space ratio engine.

Bit commitment.  Alice commits to a bit by publishing one of

    D0 = (|01><01| + |10><10|)/2
    D1 = (|ab><ab| + |ba><ba|)/2,  a = (|0>+|1>)/sqrt2, b = (|0>-|1>)/sqrt2.

Both reduce to I/2 on Bob's side, so the commitment is concealing.  In
full quantum mechanics it is not binding: Alice can instead share the EPR
projector E and later steer it into D0 or D1 with a local nonselective
measurement (computational or +/- basis).  In a theory without
entanglement E is unavailable, and ``binding_attack_search`` looks for a
separable substitute (best mixture of pure product states plus two
A-side channels).  It scores in the real Pauli basis P = PAULI4 = (I, X, Y, Z):
sigma is C[i,j] = Tr(sigma P_i (x) P_j) = sum_n w_n (1, a_n)_i (1, b_n)_j
for Bloch vectors a_n, b_n, a channel is its transfer matrix
R[k,i] = Tr(P_k Lambda(P_i)) / 2 = R_s R_T (raw Kraus seeds, then their
normalisation), and |Lambda0(sigma) - D0|^2 + |Lambda1(sigma) - D1|^2 =
sum_c |R_c C - C_Dc|_F^2 / 4, since |rho|_HS^2 = |C|_F^2 / 4.  Its
multi-started coordinate descent runs every start in lockstep as one row
of a numpy batch and scores both signs of a step in one batch; each row
still takes +step first and -step only if +step fails, and the
evaluation count follows that serial rule.  The best residual found is
attained, so it bounds the ansatz's minimum from above; finding no
attack within budget is evidence of binding, not a proof.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import linalg
from .config import DEFAULT_TOL, tolerance
from .errors import InternalCheckError, PreconditionError
from .linalg import PAULI4
from .transition import affine_ratio_bloch, affine_ratio_quantum

# ---------------------------------------------------------------------------
# Cloning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CloningCheckReport:
    bloch_x: tuple[float, float, float]
    bloch_y: tuple[float, float, float]
    r: float                 # single-copy ratio
    r_embed: float           # after tensoring a fixed ancilla
    r_clone_bound: float     # ratio between doubled states = what cloning needs
    r_squared: float
    contradiction: bool      # r > r_clone_bound, so the chain r <= ... <= r^2 breaks


def cloning_contradiction(bloch_x, bloch_y,
                          tol: float = DEFAULT_TOL) -> CloningCheckReport:
    """Evaluate the no-cloning chain for a qubit pair given by Bloch vectors.

    Preconditions: distinct, non-orthogonal pure states, so r in (0, 1).
    The embedded ratio (ancilla |0>) must equal r, the doubled-state ratio
    equals r^2, and cloning would force r <= r^2: false on (0, 1).
    """
    tol = tolerance(tol)
    r = affine_ratio_bloch(bloch_x, bloch_y).value
    if r <= tol or r >= 1.0 - tol:
        raise PreconditionError(
            f"cloning chain needs 0 < r < 1; got r = {r!r} "
            "(states equal or orthogonal)"
        )
    px = linalg.bloch_projector(np.asarray(bloch_x, dtype=float))
    py = linalg.bloch_projector(np.asarray(bloch_y, dtype=float))
    anc = linalg.projector(linalg.ket("0"))
    r_embed = affine_ratio_quantum(linalg.tensor(px, anc), linalg.tensor(py, anc)).value
    r_clone = affine_ratio_quantum(linalg.tensor(px, px), linalg.tensor(py, py)).value
    return CloningCheckReport(
        bloch_x=tuple(float(c) for c in np.asarray(bloch_x, dtype=float)),
        bloch_y=tuple(float(c) for c in np.asarray(bloch_y, dtype=float)),
        r=r, r_embed=r_embed, r_clone_bound=r_clone, r_squared=r * r,
        contradiction=bool(r > r_clone + tol),
    )


# ---------------------------------------------------------------------------
# Commitment states and channels
# ---------------------------------------------------------------------------

def build_bb84_states() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D0, D1, E): the two commitment states and the EPR projector."""
    d0 = 0.5 * (linalg.projector(linalg.ket("01")) + linalg.projector(linalg.ket("10")))
    d1 = 0.5 * (linalg.projector(linalg.ket("+-")) + linalg.projector(linalg.ket("-+")))
    epr = linalg.projector(linalg.ket("01") - linalg.ket("10"))
    return d0, d1, epr


def concealment_check(d0, d1) -> tuple[bool, float]:
    """Bob cannot tell the commitments apart: equal B-side reductions."""
    ra = linalg.partial_trace(d0, "A")
    rb = linalg.partial_trace(d1, "A")
    dev = linalg.hs_distance(ra, rb)
    return dev <= 1e-12, dev


def apply_channel_a(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply an A-side channel, Kraus operators stacked as (k, 2, 2)."""
    t = rho.reshape(2, 2, 2, 2)
    out = np.einsum("nab,bicj,ndc->aidj", kraus, t, kraus.conj())
    return out.reshape(4, 4)


def kraus_completeness_deviation(kraus: np.ndarray) -> float:
    s = np.einsum("nba,nbc->ac", kraus.conj(), kraus)
    return float(np.max(np.abs(s - np.eye(2))))


def measurement_channel(vectors) -> np.ndarray:
    """Nonselective projective measurement channel on one qubit."""
    ks = np.stack([linalg.projector(v) for v in vectors])
    dev = kraus_completeness_deviation(ks)
    if dev > 1e-12:
        raise PreconditionError(f"measurement vectors are not a basis (dev {dev:.2e})")
    return ks


@dataclass(frozen=True)
class ChannelTranscript:
    label: str
    kraus: np.ndarray
    output: np.ndarray
    target_label: str
    deviation: float


def qm_unbinding_demo(epr=None) -> tuple[ChannelTranscript, ChannelTranscript]:
    """The quantum attack: local measurement channels steer E to D0 or D1.

    Raises InternalCheckError if the outputs miss their targets; that
    would mean the construction itself is broken.
    """
    d0, d1, built = build_bb84_states()
    e = built if epr is None else linalg.require_density(epr, what="EPR state")
    ch0 = measurement_channel([linalg.ket("0"), linalg.ket("1")])
    ch1 = measurement_channel([linalg.ket("+"), linalg.ket("-")])
    out0 = apply_channel_a(ch0, e)
    out1 = apply_channel_a(ch1, e)
    dev0 = float(np.max(np.abs(out0 - d0)))
    dev1 = float(np.max(np.abs(out1 - d1)))
    if dev0 > 1e-12 or dev1 > 1e-12:
        raise InternalCheckError(
            f"unbinding channels missed their targets: dev0={dev0:.2e}, dev1={dev1:.2e}"
        )
    return (
        ChannelTranscript("computational-basis measurement on A", ch0, out0, "D0", dev0),
        ChannelTranscript("+/- basis measurement on A", ch1, out1, "D1", dev1),
    )


# ---------------------------------------------------------------------------
# Binding search over separable commitments
# ---------------------------------------------------------------------------

_N_KRAUS = 4
_CHANNEL_PARAMS = _N_KRAUS * 8          # 4 Kraus ops, 2x2 complex each
_STATE_PARAMS = 7                       # 3 + 3 Bloch components + weight seed
_ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


@functools.cache     # built on first use: importing the package skips it
def _seed_forms() -> np.ndarray:
    """The 64x20 table of real quadratic forms in a Kraus seed s's 8 raw
    reals p (re, im per entry, row-major): p p^T, flattened, times the
    table is the transfer matrix of rho -> s rho s^dag (16 entries) and the
    Pauli coefficients Tr(s^dag s P_k) / 2 (4).  With sum_n p_n p_n^T in
    place of p p^T it gives them for a sum over seeds."""
    basis = (np.eye(4)[:, None, :] * np.array([1.0, 1j])[:, None]).reshape(8, 2, 2)
    sandwich = np.einsum("kab,rbc,icd,qad->rqki", PAULI4, basis, PAULI4, basis.conj()).real
    gram = np.einsum("rba,qbc,kca->rqk", basis.conj(), basis, PAULI4).real
    return 0.5 * np.concatenate([sandwich.reshape(8, 8, 16), gram], axis=2).reshape(64, 20)


def _state(c: np.ndarray) -> np.ndarray:
    """The two-qubit operator sum_ij C[i,j] P_i (x) P_j / 4."""
    return 0.25 * np.einsum("xy,xab,yij->aibj", c, PAULI4, PAULI4).reshape(4, 4)


def _channels(p: np.ndarray):
    """Channels with Kraus operators K_n = s_n T from raw reals (..., 32):
    4 seeds s_n, normalised by T = t0 I + t.sigma = S^{-1/2} for
    S = sum_n s_n^dag s_n, the inverse of the closed form
    sqrt(S) = (S + sqrt(det S) I) / sqrt(tr S + 2 sqrt(det S)).  Returns
    the transfer matrices R = R_s R_T (..., 4, 4), (t0, t) and ok, where
    R_T = [[t0^2 + |t|^2, 2 t0 t^T], [2 t0 t, (t0^2 - |t|^2) I + 2 t t^T]]
    is that of rho -> T rho T.  A nearly singular S gets ok = False (the
    move is rejected, not regularized) and a finite placeholder T from
    det S = 1 and tr S = 2.  Accepted channels are trace-preserving up to
    rounding amplified by the condition of S: about 1e-16 when S is well
    conditioned, up to about 1e-7 near the rejection threshold."""
    seeds = p.reshape(*p.shape[:-1], _N_KRAUS, 8)
    y = (seeds.swapaxes(-1, -2) @ seeds).reshape(*p.shape[:-1], 1, 64)
    forms = (y @ _seed_forms())[..., 0, :]    # one product per row: batch-independent
    s0, s = forms[..., 16], forms[..., 17:]
    tr, det = 2.0 * s0, s0 * s0 - np.sum(s * s, axis=-1)
    ok = (tr > 1e-8) & (det > 1e-10 * np.maximum(1.0, tr) ** 2)
    root_det = np.sqrt(np.where(ok, det, 1.0))
    denom = np.sqrt(np.where(ok, tr, 2.0) + 2.0 * root_det)
    t = np.concatenate([(s0 + root_det)[..., None], -s], axis=-1)
    t /= (denom * root_det)[..., None]
    gap = t[..., 0] ** 2 - np.sum(t[..., 1:] ** 2, axis=-1)
    r_t = 2.0 * t[..., :, None] * t[..., None, :] + gap[..., None, None] * _ETA
    return forms[..., :16].reshape(*p.shape[:-1], 4, 4) @ r_t, t, ok


def _kraus(row: np.ndarray) -> np.ndarray:
    """The Kraus operators K_n = s_n T (4, 2, 2) of one row of 32 raw reals."""
    seeds = (row[0::2] + 1j * row[1::2]).reshape(_N_KRAUS, 2, 2)
    return seeds @ np.einsum("k,kab->ab", _channels(row)[1], PAULI4)


def _bloch_rows(seeds: np.ndarray) -> np.ndarray:
    """Pauli coefficients (1, a) of the qubit projectors with Bloch vectors
    a = seed / |seed|; a zero seed falls back to the +z axis."""
    norms = np.sqrt(np.sum(seeds * seeds, axis=-1, keepdims=True))
    unit = np.where(norms > 0.0, seeds / np.where(norms == 0.0, 1.0, norms), (0.0, 0.0, 1.0))
    return np.concatenate([np.ones_like(norms), unit], axis=-1)


def _weights(seeds: np.ndarray) -> np.ndarray:
    """Mixture weights from rows of weight seeds: squared and renormalized,
    uniform when all are zero."""
    w = seeds ** 2
    total = np.sum(w, axis=1, keepdims=True)
    return np.where(total > 0.0, w / np.where(total > 0.0, total, 1.0), 1.0 / seeds.shape[1])


def _mixture_parts(p: np.ndarray, support: int):
    """Weights w (m, support) and A-side and B-side rows u_n = (1, a_n),
    v_n = (1, b_n) (m, support, 4) of mixtures of pure product states, from
    rows of support groups of 7 raw reals: (Bloch seed of A, Bloch seed of
    B, weight seed)."""
    q = p.reshape(p.shape[0], support, _STATE_PARAMS)
    return [_weights(q[:, :, 6]), _bloch_rows(q[:, :, 0:3]), _bloch_rows(q[:, :, 3:6])]


def _correlations(w: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pauli coefficients C = sum_n w_n u_n v_n^T (m, 4, 4) of the mixtures."""
    return (u * w[:, :, None]).swapaxes(1, 2) @ v


def _scores(corr: np.ndarray, transfer: np.ndarray, ok: np.ndarray,
            targets: np.ndarray) -> np.ndarray:
    """|Lambda0(sigma) - D0|^2 + |Lambda1(sigma) - D1|^2 (HS) per row, as
    sum_c |R_c C - C_c|_F^2 / 4, from Pauli coefficients of sigma (m, 4, 4),
    transfer-matrix pairs (m, 2, 4, 4) and target coefficients (2, 4, 4);
    inf where either channel was rejected."""
    err = transfer @ corr[:, None] - targets
    return np.where(ok.all(axis=1), 0.25 * np.sum(err * err, axis=(1, 2, 3)), math.inf)


@dataclass(frozen=True)
class BindingSearchReport:
    residual: float
    support: int
    starts: int
    seed: int
    sweeps: int
    best_start: int
    start_residuals: tuple[float, ...]
    evaluations: int
    message: str
    best_sigma: np.ndarray = field(repr=False, default=None)
    best_kraus0: np.ndarray = field(repr=False, default=None)
    best_kraus1: np.ndarray = field(repr=False, default=None)


def binding_attack_search(d0=None, d1=None, support: int = 8, starts: int = 32,
                          seed: int = 0, sweeps: int = 30) -> BindingSearchReport:
    """Search for a separable commitment that opens as both bits.

    Decision variables: a mixture of `support` pure product states and two
    4-Kraus A-side channels.  Optimization is gradient-free coordinate
    descent (pattern search with a shrinking step), multi-started from
    seeded random points plus one warm start at sigma = D0 with identity
    channels.

    The starts run in lockstep as rows of one numpy batch.  Every row
    keeps its own first-improvement control flow: at the shared coordinate
    it takes +step if that improves, else -step if that does; its step
    halves after a sweep without improvement, and the row stops once the
    step falls below 1e-4.  Both signs of every active row are scored in
    one batch, in the real Pauli basis (module docstring).  A probe
    rebuilds only the part its coordinate feeds: one Bloch row or the
    weights of sigma (the other parts are kept per start), or one
    channel's transfer matrix.  The Kraus operators and sigma are built
    once, for the returned row.  `evaluations` counts the probes of the
    serial rule: one per active row, plus one per row whose +step failed,
    not the rows computed.

    The reported residual is attained by the returned (sigma, Lambda0,
    Lambda1), so it is an upper bound on the ansatz's minimum.  It is not
    a lower bound: a large value is evidence for binding, not a proof.
    """
    if support < 1 or starts < 1 or sweeps < 1:
        raise PreconditionError(
            f"budgets must be positive: support={support}, starts={starts}, sweeps={sweeps}"
        )
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")
    if d0 is None or d1 is None:
        d0, d1, _ = build_bb84_states()
    d0 = linalg.require_density(d0, what="D0")
    d1 = linalg.require_density(d1, what="D1")
    targets = linalg.pauli_coefficients(np.stack([d0, d1]))

    n_sigma = support * _STATE_PARAMS
    offsets = (n_sigma, n_sigma + _CHANNEL_PARAMS)
    n_total = n_sigma + 2 * _CHANNEL_PARAMS

    def build(p):
        parts = _mixture_parts(p[:, :n_sigma], support)
        corr = _correlations(*parts)
        transfer, _, ok = _channels(p[:, n_sigma:].reshape(-1, 2, _CHANNEL_PARAMS))
        return parts, corr, transfer, ok, _scores(corr, transfer, ok, targets)

    warm = np.zeros(n_total)
    # sigma = D0: half |0>|1>, half |1>|0>
    warm[0:7] = [0, 0, 1, 0, 0, -1, 1.0]
    if support >= 2:
        warm[7:14] = [0, 0, -1, 0, 0, 1, 1.0]
    for i in range(2, support):
        warm[i * 7:(i + 1) * 7] = [0, 0, 1, 0, 0, 1, 0.0]
    identity = [off + k for off in offsets for k in (0, 6)]   # K_0 = I: re of entries 00, 11
    warm[identity] = 1.0

    params = np.empty((starts, n_total))
    params[0] = warm
    for s in range(1, starts):
        params[s] = np.random.default_rng([int(seed), s]).normal(scale=0.8, size=n_total)
    params[1:, identity] += 1.0
    # parts = [weights, A-side rows, B-side rows], kept per start
    parts, corr, transfer, ok, val = build(params)
    evals = starts
    bad = np.flatnonzero(~np.isfinite(val))
    if bad.size:
        params[bad] = warm
        fixed, corr[bad], transfer[bad], ok[bad], val[bad] = build(params[bad])
        for part, new in zip(parts, fixed):
            part[bad] = new
        evals += bad.size

    step = np.full(starts, 0.35)
    active = np.ones(starts, dtype=bool)

    def probe(j, rows):
        """Score +step and -step at coordinate j for `rows` in one batch and
        move each row (+step first); return (evaluations, rows moved).  The
        batch's arrays die on return, before the next probe builds its own."""
        r = rows.size
        both = np.concatenate([rows, rows])   # +step rows, then -step rows
        here = params[rows, j]
        moved = np.concatenate([here + step[rows], here - step[rows]])
        tra, flags = transfer[both], ok[both]
        if j < n_sigma:
            group, k = divmod(j, _STATE_PARAMS)
            cand = [x[both] for x in parts]
            if k == 6:
                part, seeds = 0, params[both, 6:n_sigma:_STATE_PARAMS]
                seeds[:, group] = moved
                cand[0] = _weights(seeds)
            else:
                part, first = 1 + k // 3, j - k % 3
                seeds = params[both, first:first + 3]
                seeds[:, k % 3] = moved
                cand[part][:, group] = _bloch_rows(seeds)
            cor = _correlations(*cand)
            cand = cand[part]     # drop the unchanged parts before scoring
        else:
            c, at = divmod(j - n_sigma, _CHANNEL_PARAMS)
            seeds = params[both, offsets[c]:offsets[c] + _CHANNEL_PARAMS]
            seeds[:, at] = moved
            tra[:, c], _, flags[:, c] = _channels(seeds)
            cor = corr[both]
        v2 = _scores(cor, tra, flags, targets)
        bar = val[rows] - 1e-14
        plus = v2[:r] < bar
        minus = ~plus & (v2[r:] < bar)
        pick = np.flatnonzero(plus | minus)
        src = np.where(plus[pick], pick, pick + r)
        won = rows[pick]
        params[won, j], val[won] = moved[src], v2[src]
        corr[won], transfer[won], ok[won] = cor[src], tra[src], flags[src]
        if j < n_sigma:
            parts[part][won] = cand[src]
        return 2 * r - int(np.count_nonzero(plus)), won   # -step ran where +step failed

    for _ in range(sweeps):
        improved = np.zeros(starts, dtype=bool)
        for j in range(n_total):
            count, won = probe(j, np.flatnonzero(active))
            evals += count
            improved[won] = True
        step[active & ~improved] *= 0.5
        active &= step >= 1e-4
        if not active.any():
            break

    best = int(np.argmin(val))
    best_val = float(val[best])
    kraus0, kraus1 = (_kraus(params[best, off:off + _CHANNEL_PARAMS]) for off in offsets)
    message = (
        "no attack found within budget; residual stays well above zero "
        "(evidence for binding, not a proof)"
        if best_val > 1e-6 else
        "attack found: the commitment is not binding for these targets"
    )
    return BindingSearchReport(
        residual=best_val, support=support, starts=starts, seed=seed, sweeps=sweeps,
        best_start=best, start_residuals=tuple(float(v) for v in val),
        evaluations=evals, message=message,
        best_sigma=_state(corr[best]), best_kraus0=kraus0, best_kraus1=kraus1,
    )


@dataclass(frozen=True)
class BitCommitmentReport:
    concealing: bool
    concealment_deviation: float
    epr_separable: bool
    epr_partial_transpose_min_eig: float
    qm_unbinding_demonstrated: bool
    qm_unbinding_max_deviation: float
    separable_binding_residual: float
    search: BindingSearchReport = field(repr=False)

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "search"}
        out["search"] = {key: getattr(self.search, key) for key in (
            "support", "starts", "seed", "sweeps", "best_start", "start_residuals",
            "evaluations", "message")}
        return out


def run_bit_commitment_analysis(support: int = 8, starts: int = 32,
                                seed: int = 0, sweeps: int = 30) -> BitCommitmentReport:
    """Full commitment analysis: concealment, the quantum attack, and the
    search for a separable attack."""
    from .models import separable_membership

    d0, d1, epr = build_bb84_states()
    concealing, dev = concealment_check(d0, d1)
    pt_min = linalg.min_eigenvalue(linalg.partial_transpose(epr, "B"))
    epr_sep = separable_membership(epr)
    t0, t1 = qm_unbinding_demo(epr)
    search = binding_attack_search(d0, d1, support=support, starts=starts,
                                   seed=seed, sweeps=sweeps)
    return BitCommitmentReport(
        concealing=concealing,
        concealment_deviation=dev,
        epr_separable=epr_sep,
        epr_partial_transpose_min_eig=pt_min,
        qm_unbinding_demonstrated=True,
        qm_unbinding_max_deviation=max(t0.deviation, t1.deviation),
        separable_binding_residual=search.residual,
        search=search,
    )
