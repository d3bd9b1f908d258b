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
A-side channels).  Its multi-started coordinate descent runs every start
in lockstep as one row of a numpy batch, and scores a row through each
channel's 4x4 superoperator acting on the realigned state.  The best
residual found is attained, so it bounds the ansatz's minimum from above;
finding no attack within budget is evidence of binding, not a proof, and
is reported as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .config import DEFAULT_TOL
from .errors import InternalCheckError, PreconditionError
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

def binding_residual(sigma, kraus0, kraus1, d0, d1) -> float:
    """Squared-distance objective for an attack attempt:
    |Lambda0(sigma) - D0|^2 + |Lambda1(sigma) - D1|^2 (HS norms)."""
    r0 = apply_channel_a(np.asarray(kraus0, dtype=complex), sigma)
    r1 = apply_channel_a(np.asarray(kraus1, dtype=complex), sigma)
    return linalg.hs_distance(r0, d0) ** 2 + linalg.hs_distance(r1, d1) ** 2


_N_KRAUS = 4
_CHANNEL_PARAMS = _N_KRAUS * 8          # 4 Kraus ops, 2x2 complex each
_STATE_PARAMS = 7                       # 3 + 3 Bloch components + weight seed


def _realign(ops: np.ndarray) -> np.ndarray:
    """Reindex pair-space operators [(a,i),(d,j)] -> [(a,d),(i,j)].

    An involution that keeps the HS norm.  Realigned, an A-side channel
    acts by left multiplication with its superoperator.
    """
    lead = ops.shape[:-2]
    return ops.reshape(*lead, 2, 2, 2, 2).swapaxes(-3, -2).reshape(*lead, 4, 4)


def _channels_from_params(p: np.ndarray):
    """Trace-preserving channels from rows of 32 raw reals.

    Per row, raw 2x2 seeds are normalized by S^{-1/2} with S = sum K^dag K;
    the 2x2 PSD square root has a closed form.  Returns (kraus, superop,
    ok) with shapes (m, 4, 2, 2), (m, 4, 4) and (m,), where
    superop[(a,d),(b,c)] = sum_n K_n[a,b] conj(K_n[d,c]).  A row whose S is
    close to singular gets ok = False: the move is rejected rather than
    regularized, keeping every accepted channel trace-preserving to machine
    precision.  Its kraus and superop are placeholders: they use
    det S = 1 and tr S = 2, which keeps S + sqrt(det S) I invertible.
    """
    m = p.shape[0]
    seeds = (p[:, 0::2] + 1j * p[:, 1::2]).reshape(m, _N_KRAUS, 2, 2)
    s = np.einsum("mnba,mnbc->mac", seeds.conj(), seeds)
    tr = s[:, 0, 0].real + s[:, 1, 1].real
    det = (s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]).real
    ok = (tr > 1e-8) & (det > 1e-10 * np.maximum(1.0, tr) ** 2)
    root_det = np.sqrt(np.where(ok, det, 1.0))
    denom = np.sqrt(np.where(ok, tr, 2.0) + 2.0 * root_det)
    sqrt_s = (s + root_det[:, None, None] * linalg.IDENT2) / denom[:, None, None]
    a, b = sqrt_s[:, 0, 0], sqrt_s[:, 0, 1]
    c, d = sqrt_s[:, 1, 0], sqrt_s[:, 1, 1]
    inv_sqrt = np.stack([d, -b, -c, a], axis=1).reshape(m, 2, 2) / (a * d - b * c)[:, None, None]
    kraus = np.einsum("mnab,mbc->mnac", seeds, inv_sqrt)
    superop = np.einsum("mnab,mndc->madbc", kraus, kraus.conj()).reshape(m, 4, 4)
    return kraus, superop, ok


def _bloch_vectors(seeds: np.ndarray) -> np.ndarray:
    """Row-major flattened qubit projectors for nonzero Bloch seeds; a zero
    seed falls back to the +z axis."""
    norms = np.sqrt(np.sum(seeds * seeds, axis=-1, keepdims=True))
    u = np.where(norms > 0.0, seeds / np.where(norms == 0.0, 1.0, norms), (0.0, 0.0, 1.0))
    x, y, z = u[..., 0], u[..., 1], u[..., 2]
    return 0.5 * np.stack([1.0 + z, x - 1j * y, x + 1j * y, 1.0 - z], axis=-1)


def _sigmas_from_params(p: np.ndarray, support: int) -> np.ndarray:
    """Realigned mixtures of pure product states from rows of support * 7
    raw reals.

    Each group of 7 is (Bloch seed of A factor, Bloch seed of B factor,
    weight seed); weights are squared and renormalized, uniform when all
    are zero.  Realigned, the mixture sum_n w_n a_n (x) b_n is the sum of
    outer products w_n vec(a_n) vec(b_n)^T.
    """
    q = p.reshape(p.shape[0], support, _STATE_PARAMS)
    w = q[:, :, 6] ** 2
    total = np.sum(w, axis=1, keepdims=True)
    w = np.where(total > 0.0, w / np.where(total > 0.0, total, 1.0), 1.0 / support)
    return np.einsum("mn,mnx,mny->mxy", w, _bloch_vectors(q[:, :, 0:3]),
                     _bloch_vectors(q[:, :, 3:6]))


def _residuals(sigmas: np.ndarray, superops: np.ndarray, ok: np.ndarray,
               targets: np.ndarray) -> np.ndarray:
    """|Lambda0(sigma) - D0|^2 + |Lambda1(sigma) - D1|^2 per row, from
    realigned sigmas (m, 4, 4), superoperator pairs (m, 2, 4, 4) and
    realigned targets (2, 4, 4); inf where either channel was rejected."""
    err = superops @ sigmas[:, None] - targets
    val = np.sum(err.real ** 2 + err.imag ** 2, axis=(1, 2, 3))
    return np.where(ok.all(axis=1), val, math.inf)


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
    it tries +step, then -step only if that failed; its step halves after
    a sweep without improvement, and the row stops once the step falls
    below 1e-4.  Each probe rebuilds the one component (sigma, Lambda0 or
    Lambda1) the coordinate feeds, for the rows still probing, and scores
    them with one batched product of superoperators and realigned states.
    `evaluations` counts one per row probed.

    The reported residual is attained by the returned (sigma, Lambda0,
    Lambda1), so it is an upper bound on the ansatz's minimum.  It is not
    a lower bound: a large value is evidence for binding, not a proof.
    """
    if support < 1 or starts < 1 or sweeps < 1:
        raise PreconditionError(
            f"budgets must be positive: support={support}, starts={starts}, sweeps={sweeps}"
        )
    if d0 is None or d1 is None:
        d0, d1, _ = build_bb84_states()
    d0 = linalg.require_density(d0, what="D0")
    d1 = linalg.require_density(d1, what="D1")
    targets = _realign(np.stack([d0, d1]))

    n_sigma = support * _STATE_PARAMS
    offsets = (n_sigma, n_sigma + _CHANNEL_PARAMS)
    n_total = n_sigma + 2 * _CHANNEL_PARAMS

    def build(p):
        sigmas = _sigmas_from_params(p[:, :n_sigma], support)
        built = [_channels_from_params(p[:, off:off + _CHANNEL_PARAMS]) for off in offsets]
        superops = np.stack([b[1] for b in built], axis=1)
        ok = np.stack([b[2] for b in built], axis=1)
        return sigmas, superops, ok, _residuals(sigmas, superops, ok, targets)

    warm = np.zeros(n_total)
    # sigma = D0: half |0>|1>, half |1>|0>
    warm[0:7] = [0, 0, 1, 0, 0, -1, 1.0]
    if support >= 2:
        warm[7:14] = [0, 0, -1, 0, 0, 1, 1.0]
    for i in range(2, support):
        warm[i * 7:(i + 1) * 7] = [0, 0, 1, 0, 0, 1, 0.0]
    for off in offsets:
        warm[off + 0] = 1.0   # K_0 = I (real part of entries (0,0) and (1,1))
        warm[off + 6] = 1.0

    params = np.empty((starts, n_total))
    params[0] = warm
    for s in range(1, starts):
        params[s] = np.random.default_rng([int(seed), s]).normal(scale=0.8, size=n_total)
        for off in offsets:
            params[s, off + 0] += 1.0
            params[s, off + 6] += 1.0
    sigmas, superops, ok, val = build(params)
    evals = starts
    bad = np.flatnonzero(~np.isfinite(val))
    if bad.size:
        params[bad] = warm
        sigmas[bad], superops[bad], ok[bad], val[bad] = build(params[bad])
        evals += bad.size

    step = np.full(starts, 0.35)
    active = np.ones(starts, dtype=bool)
    for _ in range(sweeps):
        improved = np.zeros(starts, dtype=bool)
        for j in range(n_total):
            rows = np.flatnonzero(active)
            for sign in (1.0, -1.0):
                q = params[rows]
                q[:, j] += sign * step[rows]
                sup, flags = superops[rows], ok[rows]
                if j < n_sigma:
                    sig = _sigmas_from_params(q[:, :n_sigma], support)
                else:
                    sig = sigmas[rows]
                    c = (j - n_sigma) // _CHANNEL_PARAMS
                    off = offsets[c]
                    _, sup[:, c], flags[:, c] = _channels_from_params(
                        q[:, off:off + _CHANNEL_PARAMS])
                v2 = _residuals(sig, sup, flags, targets)
                evals += rows.size
                acc = v2 < val[rows] - 1e-14
                won = rows[acc]
                params[won], val[won] = q[acc], v2[acc]
                sigmas[won], superops[won], ok[won] = sig[acc], sup[acc], flags[acc]
                improved[won] = True
                rows = rows[~acc]
                if not rows.size:
                    break
        step[active & ~improved] *= 0.5
        active &= step >= 1e-4
        if not active.any():
            break

    best = int(np.argmin(val))
    best_val = float(val[best])
    kraus0, kraus1 = (_channels_from_params(params[best:best + 1, off:off + _CHANNEL_PARAMS])[0][0]
                      for off in offsets)
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
        best_sigma=_realign(sigmas[best]), best_kraus0=kraus0, best_kraus1=kraus1,
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
        return {
            "concealing": self.concealing,
            "concealment_deviation": self.concealment_deviation,
            "epr_separable": self.epr_separable,
            "epr_partial_transpose_min_eig": self.epr_partial_transpose_min_eig,
            "qm_unbinding_demonstrated": self.qm_unbinding_demonstrated,
            "qm_unbinding_max_deviation": self.qm_unbinding_max_deviation,
            "separable_binding_residual": self.separable_binding_residual,
            "search": {
                "support": self.search.support,
                "starts": self.search.starts,
                "seed": self.search.seed,
                "sweeps": self.search.sweeps,
                "best_start": self.search.best_start,
                "start_residuals": list(self.search.start_residuals),
                "evaluations": self.search.evaluations,
                "message": self.search.message,
            },
        }


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
