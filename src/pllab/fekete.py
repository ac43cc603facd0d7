"""Approximate (weighted) Fekete configurations on sample clouds.

Phase 1 is one pivoted-QR seeding: greedy column selection on the
orthonormalized, weighted Vandermonde; phase 2 is exchange refinement over
the whole cloud (the AFP-plus-exchange method of Sommariva-Vianello and
Bos-De Marchi-Sommariva-Vianello).  The seeding QR forms R only, never Q.
Refinement keeps the Lagrange matrix C = B^{-1} A of the selected columns and
carries it across each swap by a rank-one Sherman-Morrison update, done in
place by one BLAS geru call on the Fortran-ordered view C.T; the best swap is
found by a column max of |C| followed by an argmax down the winning column.
On a real-valued Vandermonde (a real set, with or without a weight) the
seeding QR, the first solve and the updates run in float64 on its real part.
A decision stands when no matrix within rounding of C would take another
(the settled rule: no near tie, no gain near the tolerance); otherwise it is
re-taken on the authoritative complex solve, so the selections equal those of
re-solving after every swap.  At the stop the refinement solves once, in
sorted order, for the Lagrange matrix of the final nodes; that matrix
confirms the stop and is the one gamma is read off.  The quality factor
gamma (sup of weighted Lagrange magnitudes over the cloud) certifies
proximity to a true maximizer and feeds every downstream sandwich width.
Commands obtain configurations through ``cached_fekete``.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr
from scipy.linalg.blas import dger, zgeru

from .basis import BasisSpec, log_abs_vdm, orthonormal_basis
from .geometry import DegenerateSetError, sample, spec_to_dict
from .serialize import canonical_json

# Exchange refinement swaps while a swap raises the log objective by at least
# _SWAP_TOL.  Within a relative _FRESH_MARGIN (of a runner-up, or of the
# tolerance), a Lagrange matrix other than the authoritative solve defers its
# decision to that solve.
_SWAP_TOL = 1e-10
_FRESH_MARGIN = 1e-9
# A replayed gamma may fall this far below 1, its lower bound in exact
# arithmetic, by rounding in the Lagrange solve.
_GAMMA_SLACK = 1e-9

# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class ZeroWeight:
    kind = "zero"

    def evaluate(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        return np.zeros(pts.shape[0])

    def to_dict(self):
        return {"kind": "zero"}


class FubiniStudyWeight:
    """rho(z) = (1/2) log(1 + |z|^2), the Fubini-Study potential on C^n."""

    kind = "fubini-study"

    def evaluate(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        return 0.5 * np.log1p(np.sum(np.abs(pts) ** 2, axis=1))

    def to_dict(self):
        return {"kind": "fubini-study"}


class TabulatedWeight:
    """Weight given by values on a cloud; nearest-neighbor evaluation."""

    kind = "tabulated"

    def __init__(self, points, values, holder_alpha=1.0, holder_const=1.0):
        from scipy.spatial import cKDTree

        self.points = np.atleast_2d(np.asarray(points, dtype=complex))
        self.values = np.asarray(values, dtype=float)
        self.holder_alpha = holder_alpha
        self.holder_const = holder_const
        emb = np.hstack([self.points.real, self.points.imag])
        self._tree = cKDTree(emb)

    def evaluate(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        emb = np.hstack([pts.real, pts.imag])
        _, idx = self._tree.query(emb)
        return self.values[idx]

    def to_dict(self):
        return {"kind": "tabulated", "holder_alpha": self.holder_alpha,
                "holder_const": self.holder_const, "size": len(self.values)}


def weight_from_callable(fn, cloud, holder_alpha=1.0, holder_const=1.0):
    """Tabulate a pointwise weight function on a cloud."""
    vals = np.array([float(fn(p)) for p in cloud.points])
    return TabulatedWeight(cloud.points, vals, holder_alpha, holder_const)


# ---------------------------------------------------------------------------
# configurations and measures
# ---------------------------------------------------------------------------

def _scalar_provenance(provenance):
    """The entries of a provenance dict that JSON output and the cache keep."""
    return {k: v for k, v in provenance.items()
            if isinstance(v, (int, float, str, bool))}


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
                     lag=None, quality=None):
        """The configuration on cloud.points[sel], with objective and gamma.

        The objective is always computed here (a singular node set raises
        DegenerateSetError).  ortho is the cloud's orthonormal basis and lag
        the Lagrange matrix of sel on the cloud (see quality_gamma) when the
        caller already has them.  quality = (gamma, lebesgue) replays the
        values of an earlier solve of the same selection on the same cloud
        (a cache hit): then no basis is built and ortho stays None, which
        tells SandwichEvaluator to recompute gamma before it certifies.
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
        if quality is None:
            quality_gamma(config, cloud, lag)
        else:
            config.gamma, config.lebesgue = quality
        return config

    @property
    def degree(self):
        return self.basis.d

    @property
    def size(self):
        return self.basis.size

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
            "provenance": _scalar_provenance(self.provenance),
        }


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    support: np.ndarray
    masses: np.ndarray

    @property
    def total_mass(self):
        return float(np.sum(self.masses))

    def pair(self, fn):
        """Integral of fn against the measure."""
        return float(np.sum(self.masses * np.array([fn(p) for p in self.support])))


def fekete_measure(config):
    """Uniform probability measure on the configuration nodes."""
    N = config.size
    return DiscreteMeasure(support=config.nodes.copy(),
                           masses=np.full(N, 1.0 / N))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _weighted_columns(ortho, weight, d, points):
    """Rows u(x) = q(x) * exp(-d phi(x)), returned as (len(points), N)."""
    vals = ortho.evaluate(points)
    return vals * np.exp(-d * weight.evaluate(points)[:, None])


def solve_fekete(cloud, basis, weight=None, max_sweep_factor=50):
    """Pivoted-QR seeding plus exchange refinement over the cloud."""
    weight = weight or ZeroWeight()
    N = basis.size
    M = cloud.size
    if M < 2 * N:
        raise ValueError(f"cloud size {M} < 2 N = {2 * N}")
    ortho = orthonormal_basis(cloud, basis)
    d = basis.d
    U = _weighted_columns(ortho, weight, d, cloud.points)        # (M, N)
    if not np.all(np.isfinite(U)):
        raise DegenerateSetError(f"set appears pluripolar at degree {d}")

    A = U.T                                                      # (N, M)
    _, piv = qr(A if A.imag.any() else A.real, pivoting=True, mode="r")
    sel, swaps, lag = _exchange_refine(A, np.sort(piv[:N]), _SWAP_TOL,
                                       max_sweep_factor * N)
    return FeketeConfig.from_indices(
        cloud, basis, weight, sel, ortho=ortho, lag=lag,
        provenance={"cloud_seed": cloud.seed,
                    "density_parameter": cloud.density_parameter,
                    "restart": 0, "accepted_swaps": int(swaps),
                    "tol": _SWAP_TOL})


def _exchange_refine(A, sel, tol, max_iters):
    """Swap one node for one cloud point while the log objective gains >= tol.

    Returns the sorted selection, the number of swaps and the Lagrange matrix
    np.linalg.solve(A[:, sel], A) of the returned selection (None when the
    swap cap or a singular node matrix ended the refinement).  Gains come
    from C = B^{-1} A, the Lagrange matrix of the selected columns
    B = A[:, sel]: replacing node j by cloud column m multiplies |det B| by
    |C[j, m]|.  The best column m is the argmax of the column maxima of |C|,
    and j the argmax of |C[:, m]|, so ties break at the lowest cloud index,
    then the lowest node slot.  After a swap C is carried forward by the
    Sherman-Morrison step C <- C - (C[:, m] - e_j) C[j, :] / C[j, m], O(N M)
    instead of the O(N^2 M) of a fresh solve; it is one in-place BLAS geru
    on C.T, which is Fortran-ordered because np.linalg.solve returns C in C
    order.  On a real-valued A (every real set, unweighted or weighted) the
    first solve and every update run in float64 (dger) on A.real; otherwise
    in complex (zgeru).

    The authoritative solve is the complex np.linalg.solve(A[:, sel], A),
    with sel in slot order; a decision taken on it stands.  A decision taken
    on any other C stands only when it is settled (see _settled); otherwise
    it is re-taken on the authoritative solve, after which the loop carries
    on from that solve (its real part, exactly, when A is real).  At a stop
    the complex solve in sorted order, the matrix quality_gamma needs, is
    formed once and returned; a stop not taken on the authoritative solve
    stands only when that sorted-order matrix shows a settled stop too.  So
    every swap and the stop match those of re-solving after every swap,
    tie-breaks included: an ulp-level difference between the arithmetics
    cannot move a swap.
    """
    N, M = A.shape
    sel = np.array(sel, dtype=int)
    real = not A.imag.any()
    W, ger = (A.real, dger) if real else (A, zgeru)
    G = np.empty((N, M))
    C = None            # B^{-1} A in slot order, in W's arithmetic
    Cz = None           # the authoritative solve, while C is not updated
    force = not real    # the next solve is the authoritative one
    L = None            # the sorted-order solve of the current selection
    swaps = 0
    while swaps < max_iters:
        if C is None:
            try:
                if force:
                    Cz = np.linalg.solve(A[:, sel], A)   # (N, M)
                    C = np.ascontiguousarray(Cz.real) if real else Cz
                else:
                    C = np.linalg.solve(W[:, sel], W)
            except np.linalg.LinAlgError:
                if force:
                    break
                force = True
                continue
        exact = Cz is not None
        j, m, gain, settled = _best_swap(C, sel, G, tol)
        if not (exact or settled):
            C, force = None, True
            continue
        if gain <= 0 or math.log(gain) < tol:
            C = None        # a stop returns or re-solves; L may take its room
            srt = np.sort(sel)
            if L is None:
                try:
                    L = (Cz if exact and np.array_equal(sel, srt)
                         else np.linalg.solve(A[:, srt], A))
                except np.linalg.LinAlgError:
                    pass
            if exact:
                return srt, swaps, L
            if L is not None:
                _, _, gain, settled = _best_swap(L, srt, G, tol)
                if settled and math.log(gain) < tol:
                    return srt, swaps, L
            force = True
            continue
        u = C[:, m].copy()
        u[j] -= 1.0
        # the returned array, not C, holds the update if ger had to copy
        C = ger(-1.0, C[j] / C[j, m], u, a=C.T, overwrite_a=True).T
        sel[j] = m
        swaps += 1
        Cz = L = None
        force = not real
    return np.sort(sel), swaps, None


def _best_swap(C, sel, G, tol):
    """The best swap (j, m) by |C| off the selected columns, its gain, and
    whether the decision it implies is settled.  Overwrites G."""
    np.abs(C, out=G)
    G[:, sel] = 0.0
    col_gain = G.max(axis=0)                             # best gain per column
    m = int(np.argmax(col_gain))                         # lowest m wins ties
    j = int(np.argmax(G[:, m]))                          # then the lowest slot
    gain = float(col_gain[m])
    return j, m, gain, _settled(G, col_gain, j, m, gain, tol)


def _settled(G, col_gain, j, m, gain, tol):
    """True when every matrix within rounding of G = |C| takes G's decision.

    The decision is to stop when log(gain) < tol, and else to swap at G's
    best entry (j, m).  It is settled when log(gain) lies more than
    _FRESH_MARGIN from tol and, for a swap, the gain beats the runner-up
    anywhere in G by more than a relative _FRESH_MARGIN.  Overwrites
    col_gain[m] and G[j, m].
    """
    if not (math.isfinite(gain) and gain > 0):
        return False
    log_gain = math.log(gain)
    if abs(log_gain - tol) <= _FRESH_MARGIN:
        return False
    if log_gain < tol:
        return True
    col_gain[m] = 0.0
    G[j, m] = 0.0
    runner_up = max(float(np.max(col_gain)), float(np.max(G[:, m])))
    return gain - runner_up > _FRESH_MARGIN * gain


def quality_gamma(config, cloud, lag=None):
    """gamma = max_j sup_cloud |l_j(x)| exp(-d (phi(x) - phi(xi_j))).

    Equals 1 for exact Fekete nodes; stored into the config together with the
    measured Lebesgue function maximum (max over the cloud of sum_j |l_j(x)|,
    weighted), which normalizes the signed-sum lower-bound candidate.  Both
    are read off the weighted Lagrange matrix lag = B^{-1} A (N, M), where A
    holds the weighted orthonormal basis on the cloud and B its columns at
    config.node_indices; it is solved here unless the caller passes it.
    """
    if lag is None:
        ortho = config.ortho or orthonormal_basis(cloud, config.basis)
        A = _weighted_columns(ortho, config.weight, config.basis.d,
                              cloud.points).T
        try:
            lag = np.linalg.solve(A[:, config.node_indices], A)
        except np.linalg.LinAlgError:
            raise DegenerateSetError("Lagrange system singular")
        config.ortho = ortho
    absl = np.abs(lag)
    gamma = float(np.max(absl))
    config.gamma = gamma
    config.lebesgue = float(np.max(np.sum(absl, axis=0)))
    return gamma


# ---------------------------------------------------------------------------
# cached solves
# ---------------------------------------------------------------------------

_WEIGHTS = {"zero": ZeroWeight, "fubini-study": FubiniStudyWeight}


def manifest_hash(man):
    return hashlib.sha256(canonical_json(man).encode()).hexdigest()


def _replayable(entry, n, m):
    """True when a cache entry is an object whose node_indices is a sorted
    list of n distinct ints in [0, m), whose provenance, if present, is an
    object, and whose gamma and lebesgue are finite floats with
    1 <= gamma <= lebesgue, up to rounding on the 1: a Lagrange matrix is
    the identity at its nodes, and a column sum of its magnitudes is at
    least the largest of them."""
    if type(entry) is not dict:
        return False
    sel, g, leb = map(entry.get, ("node_indices", "gamma", "lebesgue"))
    return (type(sel) is list and len(sel) == n
            and all(type(i) is int for i in sel)
            and sel == sorted(set(sel)) and 0 <= sel[0] and sel[-1] < m
            and type(entry.get("provenance", {})) is dict
            and type(g) is float and type(leb) is float
            and 1.0 - _GAMMA_SLACK <= g <= leb < math.inf)


def cached_fekete(spec, degree, weight_tag, seed, cloud_target, cache):
    """Solve (or replay from cache) one Fekete configuration; returns
    (config, cloud, hit).

    An entry holds the selected node indices, the solve's scalar
    provenance, and its gamma and Lebesgue constant.  A hit re-samples the
    deterministic cloud, takes the nodes from it and recomputes the
    objective (log_abs_vdm, which rejects a singular node set), but replays
    gamma and lebesgue as stored: no orthonormal basis, no Lagrange solve.
    So a hit writes the miss's fekete and capacity outputs by construction.
    A hit's config has ortho None; SandwichEvaluator then recomputes gamma
    and lebesgue with the basis it needs anyway, so a certified bracket
    never rests on a stored gamma.  The key holds a sha256 of the cloud's
    points, so a sampler that moves the cloud misses instead of replaying
    indices onto other points.
    """
    cloud = sample(spec, cloud_target, seed=seed)
    # Bump the version whenever the node selection or the computation of
    # gamma or lebesgue changes, so entries of the old code miss.
    key_doc = {"op": "fekete", "spec": spec_to_dict(spec), "degree": degree,
               "weight": weight_tag, "seed": seed,
               "cloud_target": cloud_target,
               "cloud": hashlib.sha256(cloud.points.tobytes()).hexdigest(),
               "version": 4}
    key = manifest_hash(key_doc)
    basis = BasisSpec(spec.dim, degree)
    weight = _WEIGHTS[weight_tag]()
    hit = cache.get(key)
    if hit is not None:
        if _replayable(hit, basis.size, cloud.size):
            try:
                config = FeketeConfig.from_indices(
                    cloud, basis, weight,
                    np.asarray(hit["node_indices"], dtype=int),
                    provenance=hit.get("provenance", {"cloud_seed": seed}),
                    quality=(hit["gamma"], hit["lebesgue"]))
                return config, cloud, True
            except DegenerateSetError:      # a singular node set
                pass
        print("warning: cache entry inconsistent, recomputing",
              file=sys.stderr)
    config = solve_fekete(cloud, basis, weight)
    cache.put(key, {"node_indices": [int(i) for i in config.node_indices],
                    "provenance": _scalar_provenance(config.provenance),
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
    if len({cfg.degree for cfg in configs}) < 3:
        raise ValueError("need at least 3 distinct degrees")
    ds, deltas = [], []
    for cfg in configs:
        if cfg.basis.n != 1:
            raise ValueError("transfinite diameter is n = 1 only")
        if not isinstance(cfg.weight, ZeroWeight):
            raise ValueError("transfinite diameter requires unweighted configs")
        N = cfg.size
        ds.append(cfg.degree)
        deltas.append(math.exp(2.0 * cfg.objective / (N * (N - 1))))
    ds = np.array(sorted(ds))
    deltas = np.array([x for _, x in sorted(zip([c.degree for c in configs], deltas))])
    X = np.stack([np.ones_like(ds, dtype=float), 1.0 / ds], axis=1)
    coef, *_ = np.linalg.lstsq(X, deltas, rcond=None)
    return float(coef[0])
