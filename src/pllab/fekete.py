"""Approximate (weighted) Fekete configurations on sample clouds.

Phase 1 is one pivoted-QR seeding: greedy column selection on the
orthonormalized, weighted Vandermonde; phase 2 is exchange refinement over
the whole cloud (the AFP-plus-exchange method of Sommariva-Vianello and
Bos-De Marchi-Sommariva-Vianello).  The seeding QR (LAPACK geqp3 on one
copy of the weighted Vandermonde) forms neither Q nor R: only its pivots
are read.  The weighted Vandermonde is built from the values that
orthonormal_basis hands over with the basis, so a solve evaluates the
cloud's monomials once.
Refinement keeps an approximate Lagrange matrix C = B^{-1} A of the selected
columns, formed once as inv(B) @ A and carried across each swap by a
rank-one Sherman-Morrison update, done in place by one BLAS geru call on
the Fortran-ordered view C.T; the best swap is found by a column max of |C|
followed by an argmax down the winning column.  On a real-valued
Vandermonde (a real set, with or without a weight) the seeding QR, the
inverse and the updates run in float64 on its real part.  One rule takes
every decision.  A decision stands when no matrix within rounding of C
would take another (the settled rule: no near tie, no gain near the
tolerance).  Otherwise it is taken on the authoritative complex solve, on
its contender columns only, the ones that can win:
np.linalg.solve(B, A[:, cols]) equals those columns of the full solve bit
for bit.  The stop, gamma and the Lebesgue constant are read off the
contender columns of the solve in sorted node order in the same way.  While
C is trusted, the contenders are a few columns, so the selections equal
those of re-solving after every swap, and gamma and the Lebesgue constant
those of the full sorted-order solve, without any full N x M solve.  When
the node matrix is too ill-conditioned for C to be trusted, or C drifts,
every column is a contender, and each such full solve replaces C.  The
quality factor gamma (sup of weighted Lagrange magnitudes over the cloud)
certifies proximity to a true maximizer and feeds every downstream sandwich
width.  Commands obtain configurations through ``cached_fekete``.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dger, zgeru

from .basis import BasisSpec, lapack_in_place, log_abs_vdm, orthonormal_basis
from .geometry import DegenerateSetError, sample
from .serialize import canonical_json

# Exchange refinement swaps while a swap raises the log objective by at least
# _SWAP_TOL.  Within a relative _FRESH_MARGIN (of a runner-up, or of the
# tolerance), a Lagrange matrix other than the authoritative solve defers its
# decision to that solve.
_SWAP_TOL = 1e-10
_FRESH_MARGIN = 1e-9
# An approximate Lagrange matrix is trusted where its error, times N, is
# within _TRUST of its best entry.  Then the exact best column trails the
# approximate best by at most twice _TRUST, so it is among the contenders,
# the columns within _FRESH_MARGIN of the approximate best.
_TRUST = 0.1 * _FRESH_MARGIN
_EPS = float(np.finfo(float).eps)
# Exchange refinement stops after MAX_SWEEP_FACTOR * N accepted swaps.
MAX_SWEEP_FACTOR = 50
# A replayed gamma may fall this far below 1, its lower bound in exact
# arithmetic, by rounding in the Lagrange solve.
_GAMMA_SLACK = 1e-9

# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class ZeroWeight:
    def evaluate(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        return np.zeros(pts.shape[0])

    def to_dict(self):
        return {"kind": "zero"}


class FubiniStudyWeight:
    """rho(z) = (1/2) log(1 + |z|^2), the Fubini-Study potential on C^n."""

    def evaluate(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        return 0.5 * np.log1p(np.sum(np.abs(pts) ** 2, axis=1))

    def to_dict(self):
        return {"kind": "fubini-study"}


class FunctionWeight:
    """Weight phi given by a function of one point (a row of n complex
    coordinates), evaluated point by point."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        return np.array([float(self.fn(p)) for p in pts])

    def to_dict(self):
        return {"kind": "function"}


# ---------------------------------------------------------------------------
# configurations and measures
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FeketeConfig:
    basis: BasisSpec
    weight: object
    nodes: np.ndarray            # (N, n) complex
    node_indices: np.ndarray     # indices into the generating cloud
    objective: float             # log|VDM| - d * sum phi(nodes)
    gamma: float | None
    lebesgue: float | None       # max over the cloud of sum_j |l_j(x)| (weighted)
    provenance: dict
    ortho: object = field(default=None, repr=False)

    @classmethod
    def from_indices(cls, cloud, basis, weight, sel, provenance, ortho=None,
                     quality=None):
        """The configuration on cloud.points[sel], with objective and gamma.

        The objective is always computed here (a singular node set raises
        DegenerateSetError).  ortho is the cloud's orthonormal basis when the
        caller already has it, and quality = (gamma, lebesgue) of sel on the
        cloud when the caller has them (see quality_gamma).  A solve passes
        both.  A cache hit passes the quality of an earlier solve and no
        ortho: those values are replayed, no basis is built and ortho stays
        None, which tells SandwichEvaluator to recompute gamma before it
        certifies.
        """
        nodes = cloud.points[sel]
        obj = (log_abs_vdm(nodes, basis)
               - basis.d * float(np.sum(weight.evaluate(nodes))))
        if not np.isfinite(obj):
            raise DegenerateSetError(
                f"set appears pluripolar at degree {basis.d}")
        config = cls(basis=basis, weight=weight, nodes=nodes,
                     node_indices=sel, objective=obj, gamma=None,
                     lebesgue=None, provenance=provenance, ortho=ortho)
        if ortho is None and quality is not None:
            config.gamma, config.lebesgue = quality
        else:
            quality_gamma(config, cloud, quality)
        return config

    def to_dict(self):
        return {
            "ordering": "graded-lex",
            "n": self.basis.n,
            "d": self.basis.d,
            "weight": self.weight.to_dict(),
            "nodes": [[[z.real, z.imag] for z in row] for row in self.nodes],
            "objective": self.objective,
            "gamma": self.gamma,
            "lebesgue": self.lebesgue,
            "provenance": dict(self.provenance),
        }


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _weighted_columns(values, weight, d, points):
    """Rows u(x) = q(x) * exp(-d phi(x)), as (len(points), N), from the
    values q(x) of the orthonormal basis at points.  Without a weight they
    are the values themselves, which is what multiplying by exp(-d * 0)
    would give."""
    if isinstance(weight, ZeroWeight):
        return values
    return values * np.exp(-d * weight.evaluate(points)[:, None])


def _seed(A):
    """The N columns that a column-pivoted QR of A (N, M) takes first,
    sorted: those of scipy.linalg.qr(A, pivoting=True), run in float64 on
    A.real when A is real-valued.  geqp3 runs in place on one Fortran copy
    of A, and neither Q nor R is formed."""
    F = np.array(A if A.imag.any() else A.real, order="F")
    return np.sort(lapack_in_place("geqp3", F)[1][:len(A)] - 1)


def solve_fekete(cloud, basis, weight=None):
    """Pivoted-QR seeding plus exchange refinement over the cloud."""
    weight = weight or ZeroWeight()
    N = basis.size
    M = cloud.size
    if M < 2 * N:
        raise ValueError(f"cloud size {M} < 2 N = {2 * N}")
    ortho, values = orthonormal_basis(cloud, basis).split()
    d = basis.d
    U = _weighted_columns(values, weight, d, cloud.points)       # (M, N)
    del values
    if not np.all(np.isfinite(U)):
        raise DegenerateSetError(f"set appears pluripolar at degree {d}")

    A = U.T                                                      # (N, M)
    sel, swaps, quality = _exchange_refine(A, _seed(A), _SWAP_TOL,
                                           MAX_SWEEP_FACTOR * N)
    return FeketeConfig.from_indices(
        cloud, basis, weight, sel, ortho=ortho, quality=quality,
        provenance=_provenance(cloud, int(swaps)))


def _provenance(cloud, swaps):
    """The provenance of a solve on cloud that made swaps accepted swaps:
    built from the cloud in hand, so a cache entry stores only the swaps."""
    return {"cloud_seed": cloud.seed,
            "density_parameter": cloud.density_parameter,
            "restart": 0, "accepted_swaps": swaps, "tol": _SWAP_TOL}


def _exchange_refine(A, sel, tol, max_iters):
    """Swap one node for one cloud point while the log objective gains >= tol.

    Returns the sorted selection srt, the number of swaps and (gamma,
    lebesgue) of its Lagrange matrix np.linalg.solve(A[:, srt], A), or None
    in their place when the swap cap or a singular node matrix ended the
    refinement.  Gains come from C = B^{-1} A, the Lagrange matrix of the
    selected columns B = A[:, sel]: replacing node j by cloud column m
    multiplies |det B| by |C[j, m]|.  The best column m is the argmax of the
    column maxima of |C|, and j the argmax of |C[:, m]|, so ties break at
    the lowest cloud index, then the lowest node slot.  After a swap C is
    carried forward by the Sherman-Morrison step
    C <- C - (C[:, m] - e_j) C[j, :] / C[j, m], O(N M) instead of the
    O(N^2 M) of a fresh solve; it is one in-place BLAS geru on C.T, which is
    Fortran-ordered because C is C-ordered.

    The reference is the complex np.linalg.solve(A[:, sel], A), with sel in
    slot order.  C starts as the approximate inv(B) @ W, where W is A.real
    on a real-valued A (every real set, unweighted or weighted; the inverse
    and the updates then run in float64, dger) and A otherwise (zgeru), and
    inv(B) is carried forward by the same update.  One rule takes every
    decision.  A decision taken on C stands when it is settled (see
    _settled).  Otherwise it is taken on the reference values of its
    contender columns (see _exact_swap): np.linalg.solve(B, A[:, cols])
    equals those columns of the full solve bit for bit.  A stop is
    confirmed on the contender columns of the sorted-order solve, which also
    give gamma and the Lebesgue constant (see _lagrange_quality); a stop
    they do not show settled is re-taken in slot order.  So every swap and
    the stop match those of re-solving after every swap, tie-breaks
    included: an ulp-level difference between the arithmetics cannot move a
    swap.

    C is trusted only while N cond_1(B) eps, read off the carried inverse,
    and the error of C on every set of contender columns stay within _TRUST
    of the best entry.  Once it is not, the inverse is dropped and every
    column is a contender: an unsettled decision is taken on the full
    reference solve, which then replaces C (its real part, exactly, when A
    is real), and a stop is confirmed on the full sorted-order solve, which
    is that reference solve itself when sel is sorted.  A first B that is not _conditioned starts C as np.linalg.solve(W[:, sel],
    W) instead.  Decisions that stand on a C so carried need not be those
    of re-solving when B is numerically singular.
    """
    N, M = A.shape
    sel = np.array(sel, dtype=int)
    real = not A.imag.any()
    W, ger = (A.real, dger) if real else (A, zgeru)
    G = np.empty((N, M))
    Binv = _inverse(W[:, sel])      # None once C is not trusted
    try:
        C = np.linalg.solve(W[:, sel], W) if Binv is None else Binv @ W
    except np.linalg.LinAlgError:
        return np.sort(sel), 0, None
    swaps = 0
    while swaps < max_iters:
        j, m, gain, settled, col_gain = _best_swap(C, sel, G, tol)
        stop = _stops(gain, tol)
        if (stop or not settled) and not _conditioned(W[:, sel], Binv):
            Binv = None
        approx = None if Binv is None else C
        quality = None
        try:
            if stop and settled:        # confirm it in sorted order
                off_max, quality = _lagrange_quality(
                    A, sel, np.argsort(sel), approx, G, col_gain)
                settled = (_clear_of_tol(off_max, tol)
                           and math.log(off_max) < tol)
            if not settled:             # take it on the reference solve
                j, m, gain, L, absL = _exact_swap(A, sel, approx, col_gain)
                if approx is None:
                    C = np.ascontiguousarray(L.real) if real else L
                stop = _stops(gain, tol)
                if stop and quality is None:
                    if approx is None and (np.diff(sel) > 0).all():
                        # a full solve in slot order of a sorted sel is
                        # the sorted-order solve
                        quality = _quality_of(absL)
                    else:
                        _, quality = _lagrange_quality(
                            A, sel, np.argsort(sel), approx, G, col_gain)
        except np.linalg.LinAlgError:   # B singular, or C off the solve
            if Binv is None:
                break
            Binv = None
            continue        # take this decision again on every column
        if stop:
            return np.sort(sel), swaps, quality
        piv = C[j, m]
        u = C[:, m].copy()
        u[j] -= 1.0
        # the returned array, not C, holds the update if ger had to copy
        if Binv is not None:
            Binv = ger(-1.0, Binv[j] / piv, u, a=Binv.T, overwrite_a=True).T
        C = ger(-1.0, C[j] / piv, u, a=C.T, overwrite_a=True).T
        sel[j] = m
        swaps += 1
    return np.sort(sel), swaps, None


def _stops(gain, tol):
    """True when the best gain ends the refinement: log(gain) < tol."""
    return gain <= 0 or math.log(gain) < tol


def _best_swap(C, sel, G, tol):
    """The best swap (j, m) by |C| off the selected columns, its gain,
    whether the decision it implies is settled, and the column maxima
    col_gain.  Leaves |C|, with the selected columns zeroed, in G."""
    np.abs(C, out=G)
    G[:, sel] = 0.0
    col_gain = G.max(axis=0)                             # best gain per column
    m = int(np.argmax(col_gain))                         # lowest m wins ties
    j = int(np.argmax(G[:, m]))                          # then the lowest slot
    gain = float(col_gain[m])
    return j, m, gain, _settled(G, col_gain, j, m, gain, tol), col_gain


def _clear_of_tol(gain, tol):
    """True when gain is finite and positive and log(gain) lies more than
    _FRESH_MARGIN from tol."""
    return (math.isfinite(gain) and gain > 0
            and abs(math.log(gain) - tol) > _FRESH_MARGIN)


def _settled(G, col_gain, j, m, gain, tol):
    """True when every matrix within rounding of G = |C| takes G's decision.

    The decision is to stop when log(gain) < tol, and else to swap at G's
    best entry (j, m).  It is settled when log(gain) lies more than
    _FRESH_MARGIN from tol and, for a swap, the gain beats the runner-up
    anywhere in G by more than a relative _FRESH_MARGIN.
    """
    if not _clear_of_tol(gain, tol):
        return False
    if math.log(gain) < tol:
        return True
    col_gain[m] = G[j, m] = 0.0
    runner_up = max(float(np.max(col_gain)), float(np.max(G[:, m])))
    col_gain[m] = G[j, m] = gain
    return gain - runner_up > _FRESH_MARGIN * gain


def _near(best, values):
    """The values within a relative _FRESH_MARGIN of best."""
    return values >= best - _FRESH_MARGIN * best


def _inverse(B):
    """inv(B), or None when B is singular or not _conditioned."""
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return None
    return Binv if _conditioned(B, Binv) else None


def _conditioned(B, Binv):
    """True when N cond_1(B) eps, the rounding of inv(B) @ A relative to its
    largest entry, is within _TRUST (False when Binv is None)."""
    return Binv is not None and (
        len(B) * np.linalg.norm(B, 1) * np.linalg.norm(Binv, 1) * _EPS
        <= _TRUST)


class _Drift(np.linalg.LinAlgError):
    """An approximate Lagrange matrix is off the reference solve by more
    than _TRUST.  Handled as a singular system is: the decision is taken
    again with every column a contender."""


def _exact(A, order, cols, C, scale, rows=slice(None)):
    """np.linalg.solve(A[:, order], A[:, cols]), which equals those columns
    of the full solve bit for bit.  C, unless None, approximates the full
    solve, with C[rows] in its row order; raises _Drift when scale, the best
    entry of C, is not finite and positive, or when C is off by more than
    _TRUST * scale / N on cols."""
    if C is not None and not 0 < scale < math.inf:
        raise _Drift
    L = np.linalg.solve(A[:, order], A[:, cols])
    if C is not None and not len(order) * float(np.max(
            np.abs(L - C[:, cols][rows]), initial=0.0)) <= _TRUST * scale:
        raise _Drift
    return L


def _exact_swap(A, sel, C, col_gain):
    """The decision (j, m, gain) of _best_swap on the reference solve
    L = np.linalg.solve(A[:, sel], A), and the columns of L it solved for
    with their magnitudes.

    While C is trusted, those are its contender columns: the ones whose
    largest |C| off the selection, col_gain, lies within a relative
    _FRESH_MARGIN of the best.  C approximates L within _TRUST, so L's best
    column is among them.  With C None they are every column, and the
    whole of L is returned.  Raises LinAlgError when B is singular, and
    _Drift (see _exact).
    """
    gain = float(col_gain.max())
    cols = (np.arange(A.shape[1]) if C is None
            else np.flatnonzero(_near(gain, col_gain)))
    L = _exact(A, sel, cols, C, gain)
    absL = np.abs(L)
    # the column maxima off the selection; a selected column can win only
    # with gain 0, which stops the refinement whatever its slot
    best = np.where((cols[:, None] == sel).any(axis=1), 0.0, absL.max(axis=0))
    k = int(np.argmax(best))                      # lowest cloud index wins
    return (int(np.argmax(absL[:, k])), int(cols[k]), float(best[k]), L,
            absL)


def _lagrange_quality(A, sel, rows, C=None, G=None, col_gain=None):
    """The largest entry off the selection, and (gamma, lebesgue), of the
    Lagrange matrix L = np.linalg.solve(A[:, sel[rows]], A), bit for bit.

    While C is trusted it approximates L with its rows in sel's order
    (C[rows] in L's), G is |C| with the selected columns zeroed and
    col_gain = G.max(axis=0).  Then only the contender columns of L are
    solved for: those whose largest |entry|, whose largest |entry| off the
    selection, or whose sum of |entries| lies within a relative
    _FRESH_MARGIN of the best such value in C.  With C None every column is.
    Raises LinAlgError when B is singular, and _Drift (see _exact).
    """
    if C is None:
        cols, gain = np.arange(A.shape[1]), None
    else:
        sel_abs = np.abs(C[:, sel])
        col_max = col_gain.copy()
        col_max[sel] = sel_abs.max(axis=0)
        sums = G.sum(axis=0)
        sums[sel] = sel_abs.sum(axis=0)
        gain, gamma = float(col_gain.max()), float(col_max.max())
        cols = np.flatnonzero(_near(gain, col_gain) | _near(gamma, col_max)
                              | _near(sums.max(), sums))
    absL = np.abs(_exact(A, sel[rows], cols, C, gain, rows))
    off = ~(cols[:, None] == sel).any(axis=1)
    return float(absL[:, off].max()), _quality_of(absL)


def _quality_of(absL):
    """(gamma, lebesgue) of |L|: its largest entry and its largest column
    sum.  The rows are added one after another, the order in which
    np.sum(axis=0) adds the rows of a C-ordered matrix of many columns (on
    a single column numpy sums pairwise instead)."""
    sums = absL[0].copy()
    for row in absL[1:]:
        sums += row
    return float(absL.max()), float(sums.max())


def _gamma_lebesgue(A, idx):
    """(gamma, lebesgue) of np.linalg.solve(A[:, idx], A), bit for bit, by
    _lagrange_quality: on the contender columns of the approximate
    C = inv(B) @ W (W = A.real on a real-valued A) when B = W[:, idx] is
    _conditioned and C holds there, else on every column."""
    W = A if A.imag.any() else A.real
    Binv = _inverse(W[:, idx])
    if Binv is not None:
        C = Binv @ W
        G = np.abs(C)
        G[:, idx] = 0.0
        try:
            return _lagrange_quality(A, idx, slice(None), C, G,
                                     G.max(axis=0))[1]
        except np.linalg.LinAlgError:
            pass
    try:
        return _lagrange_quality(A, idx, slice(None))[1]
    except np.linalg.LinAlgError:
        raise DegenerateSetError("Lagrange system singular")


def quality_gamma(config, cloud, quality=None):
    """gamma = max_j sup_cloud |l_j(x)| exp(-d (phi(x) - phi(xi_j))).

    Equals 1 for exact Fekete nodes; stored into the config together with the
    measured Lebesgue function maximum (max over the cloud of sum_j |l_j(x)|,
    weighted), which normalizes the signed-sum lower-bound candidate.  Both
    are those of the weighted Lagrange matrix np.linalg.solve(B, A) (N, M),
    where A holds the weighted orthonormal basis on the cloud and B its
    columns at config.node_indices, and are computed by _gamma_lebesgue
    unless the caller passes them as quality = (gamma, lebesgue), as
    solve_fekete does with those the refinement computes at its stop.
    """
    if quality is None:
        if config.ortho is None:
            ortho, values = orthonormal_basis(cloud, config.basis).split()
        else:   # a solve whose refinement stopped at the swap cap or a
                # singular node matrix
            ortho = config.ortho
            values = ortho.evaluate(cloud.points)
        A = _weighted_columns(values, config.weight, config.basis.d,
                              cloud.points).T
        del values
        quality = _gamma_lebesgue(A, config.node_indices)
        config.ortho = ortho
    config.gamma, config.lebesgue = quality
    return config.gamma


# ---------------------------------------------------------------------------
# cached solves
# ---------------------------------------------------------------------------

_WEIGHTS = {"zero": ZeroWeight, "fubini-study": FubiniStudyWeight}


def manifest_hash(man):
    return hashlib.sha256(canonical_json(man).encode()).hexdigest()


def _replayable(entry, n, m):
    """True when a cache entry is an object whose node_indices is a sorted
    list of n distinct ints in [0, m), whose accepted_swaps is an int >= 0,
    and whose gamma and lebesgue are finite floats with
    1 <= gamma <= lebesgue, up to rounding on the 1: a Lagrange matrix is
    the identity at its nodes, and a column sum of its magnitudes is at
    least the largest of them."""
    if type(entry) is not dict:
        return False
    sel, swaps, g, leb = map(entry.get, ("node_indices", "accepted_swaps",
                                         "gamma", "lebesgue"))
    return (type(sel) is list and len(sel) == n
            and all(type(i) is int for i in sel)
            and sel == sorted(set(sel)) and 0 <= sel[0] and sel[-1] < m
            and type(swaps) is int and swaps >= 0
            and type(g) is float and type(leb) is float
            and 1.0 - _GAMMA_SLACK <= g <= leb < math.inf)


def cached_fekete(spec, degree, weight_tag, seed, cloud_target, cache,
                  cloud=None):
    """Solve (or replay from cache) one Fekete configuration; returns
    (config, cloud, hit).

    The key holds what solve_fekete reads: the dimension, the degree, the
    weight and a sha256 of the cloud's points, and the seed that drew the
    cloud.  So manifests that draw the same points at the same seed share
    their solves, whatever set or cloud size drew them, and a sampler that
    moves the cloud misses instead of replaying indices onto other points.
    The seed keeps manifests of distinct seeds apart even where their
    points agree (every Interval cloud is the same at every seed): the
    solve-cold workload of perfbench gives each manifest its own seed so
    that no lookup in a pass hits.  An entry holds the selected node indices,
    the number of accepted swaps, and gamma and the Lebesgue constant.  A
    hit samples the deterministic cloud again, takes the nodes from it,
    builds the provenance from it as a solve does, and recomputes the
    objective (log_abs_vdm, which rejects a singular node set), but replays
    gamma and lebesgue as stored: no orthonormal basis, no Lagrange solve.
    So a hit writes the miss's fekete and capacity outputs by construction.
    A hit's config has ortho None; SandwichEvaluator then recomputes gamma
    and lebesgue with the basis it needs anyway, so a certified bracket
    never rests on a stored gamma.  cloud, when given, is the cloud that an
    earlier call drew for the same spec, cloud_target and seed; it is used
    instead of sampling again.
    """
    if cloud is None:
        cloud = sample(spec, cloud_target, seed=seed)
    # Bump the version whenever the node selection or the computation of
    # gamma or lebesgue changes, so entries of the old code miss.  n is in
    # the key because the fingerprint hashes bytes, not the array's shape.
    key = manifest_hash({"op": "fekete", "n": spec.dim, "degree": degree,
                         "weight": weight_tag, "seed": seed,
                         "cloud": cloud.fingerprint, "version": 6})
    basis = BasisSpec(spec.dim, degree)
    weight = _WEIGHTS[weight_tag]()
    hit = cache.get(key)
    if hit is not None:
        if _replayable(hit, basis.size, cloud.size):
            try:
                config = FeketeConfig.from_indices(
                    cloud, basis, weight,
                    np.asarray(hit["node_indices"], dtype=int),
                    provenance=_provenance(cloud, hit["accepted_swaps"]),
                    quality=(hit["gamma"], hit["lebesgue"]))
                return config, cloud, True
            except DegenerateSetError:      # a singular node set
                pass
        print("warning: cache entry inconsistent, recomputing",
              file=sys.stderr)
    config = solve_fekete(cloud, basis, weight)
    cache.put(key, {"node_indices": [int(i) for i in config.node_indices],
                    "accepted_swaps": config.provenance["accepted_swaps"],
                    "gamma": config.gamma, "lebesgue": config.lebesgue})
    return config, cloud, False


# ---------------------------------------------------------------------------
# transfinite diameter
# ---------------------------------------------------------------------------

def transfinite_diameter(configs):
    """Capacity estimate from a degree family (n = 1, unweighted).

    delta_d = exp(2 log|VDM| / (N (N-1))) with N = d + 1; the return value is
    the intercept of the least-squares line delta_d = c0 + c1 / d, which
    needs at least 3 distinct degrees.
    """
    if len({cfg.basis.d for cfg in configs}) < 3:
        raise ValueError("need at least 3 distinct degrees")
    pairs = []
    for cfg in configs:
        if cfg.basis.n != 1:
            raise ValueError("transfinite diameter is n = 1 only")
        if not isinstance(cfg.weight, ZeroWeight):
            raise ValueError("transfinite diameter requires unweighted configs")
        N = cfg.basis.size
        pairs.append((cfg.basis.d,
                      math.exp(2.0 * cfg.objective / (N * (N - 1)))))
    ds, deltas = map(np.array, zip(*sorted(pairs)))
    X = np.stack([np.ones_like(ds, dtype=float), 1.0 / ds], axis=1)
    coef, *_ = np.linalg.lstsq(X, deltas, rcond=None)
    return float(coef[0])
