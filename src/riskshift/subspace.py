"""Linear subspaces: Haar-random bases, controlled-overlap pairs, overlap coefficients.

Subspaces are represented by column-orthonormal matrices.  A Haar basis is the
sign-fixed QR factor of a standard normal block.  An overlapping pair draws the
full d x d block of a Haar rotation but orthonormalizes only the d_P + d_Q - d_PQ
columns it uses: those are exactly the leading columns of the full rotation
(Mezzadri 2007), so the draws and the law match the full QR.  Overlap between two
subspaces is summarized by sum_i cos^2 theta_i over their principal angles,
which equals ||U_P^T U_Q||_F^2 (Bjorck & Golub 1973), so the similarity
sqrt(sum cos^2 / k) and the overlap coefficient sum cos^2 / d_Q need no SVD.

It also holds the only checks of what a usable number is, for library arguments
and config keys alike: _checked_array, _checked_count and _checked_real, whose
(comparison, limit) bounds read _COMPARISONS, applied by the one loop _within.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from riskshift.errors import InvalidDimensionError, NumericInputError

_ORTHO_TOL = 1e-10
# the most float64 entries one numpy array can hold: past it numpy raises a bare ValueError ("array is too big")
_MAX_ENTRIES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
_COMPARISONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt, "==": operator.eq}


def _frozen_array(values, dtype=np.float64):
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _checked_array(name, value, shape, *bounds):
    """value as a nonempty finite float64 array of the given shape (None is any length >= 1, a shape of None any
    number of axes) within its bounds; an integer or floating dtype only, and _checked_real refuses a bad entry."""
    try:
        arr = np.asarray(value)
    except ValueError:  # numpy refuses a ragged nesting
        raise InvalidDimensionError(f"{name} must be a rectangular array, got a ragged nesting") from None
    if arr.dtype.kind not in "iuf":
        raise NumericInputError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    shape = (None,) * arr.ndim if shape is None else shape
    if arr.ndim != len(shape) or arr.size == 0 or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        want = ", ".join("*" if n is None else str(n) for n in shape) + ("," if len(shape) == 1 else "")
        raise InvalidDimensionError(f"{name} must have shape ({want}), got {arr.shape}")
    held = np.isfinite(arr)
    for comparison, limit in bounds:
        held &= _COMPARISONS[comparison](arr, limit)
    if not np.all(held):
        _checked_real(name, arr[~held].flat[0], *bounds)
    return arr


def _within(name, value, bounds, error):
    """value, if it meets each (comparison, limit) bound; else error names the first it misses."""
    for comparison, limit in bounds:
        if not _COMPARISONS[comparison](value, limit):
            raise error(f"{name} must be {comparison} {limit}, got {value}")
    return value


def _checked_real(name, value, *bounds, error=NumericInputError):
    """value as a finite float within each (comparison, limit) bound; an int or numpy scalar is real, a bool is not."""
    # a float, the common case, skips the type tests
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise error(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    return _within(name, value, bounds, error)


def _checked_count(name, value, *bounds, error=InvalidDimensionError):
    """value as an int within each (comparison, limit) bound; a bool, a float (6.0 too) or any other non-integer
    raises error, as an int past the float range does."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    _checked_real(name, value, error=error)
    return _within(name, int(value), bounds, error)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Column-orthonormal d x k matrix spanning a rank-k subspace of R^d."""

    columns: np.ndarray

    def __post_init__(self):
        u = _checked_array("basis columns", self.columns, (None, None))
        d, k = u.shape
        if k > d:
            raise InvalidDimensionError(f"need 1 <= rank <= ambient dim, got rank {k} in dim {d}")
        gram = u.T @ u
        # written so that a NaN in the Gram (inf - inf from huge columns) fails the comparison
        if not np.max(np.abs(gram - np.eye(k))) <= _ORTHO_TOL:
            raise InvalidDimensionError(f"columns are not orthonormal within {_ORTHO_TOL:g}")
        object.__setattr__(self, "columns", _frozen_array(u))

    @property
    def ambient_dim(self):
        return self.columns.shape[0]

    @property
    def rank(self):
        return self.columns.shape[1]

    def project(self, vec):
        """Project a length-d vector onto the subspace."""
        vec = _checked_array("vec", vec, (self.ambient_dim,))
        return self.columns @ (self.columns.T @ vec)


@dataclass(frozen=True)
class SubspacePairSpec:
    """Dimensions of an overlapping subspace pair: ambient, the two ranks, the shared rank."""

    d: int
    d_p: int
    d_q: int
    d_pq: int

    def __post_init__(self):
        for name, least in (("d", 1), ("d_p", 1), ("d_q", 1), ("d_pq", 0)):
            object.__setattr__(self, name, _checked_count(name, getattr(self, name), (">=", least)))
        if self.d_pq > min(self.d_p, self.d_q):
            raise InvalidDimensionError(f"need d_pq <= min(d_p, d_q), got d_pq = {self.d_pq}")
        if self.d_p + self.d_q - self.d_pq > self.d:
            raise InvalidDimensionError(f"need d_p + d_q - d_pq <= d = {self.d}, got {self.d_p + self.d_q - self.d_pq}")

    @property
    def q_coords(self):
        """Coordinates spanning Q: the d_pq shared with P's [0, d_p), then d_q - d_pq after d_p."""
        return np.r_[0 : self.d_pq, self.d_p : self.d_p + self.d_q - self.d_pq]


def _sign_fixed_qr(g):
    """Q factor of g with the R diagonal forced positive.

    The sign fix removes the QR ambiguity, so for a standard normal g the
    result is exactly Haar, and its leading columns depend only on the leading
    columns of g.
    """
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def haar_basis(d, k, seed):
    """Haar-distributed orthonormal d x k basis, deterministic per seed."""
    d, k = _checked_count("d", d, (">=", 1)), _checked_count("k", k, (">=", 1))
    if k > d:
        raise InvalidDimensionError(f"need 1 <= k <= d, got k={k}, d={d}")
    rng = np.random.default_rng(seed)
    return OrthonormalBasis(_sign_fixed_qr(rng.standard_normal((d, k))))


def overlapping_pair(spec, seed):
    """Two bases sharing a subspace of dimension exactly spec.d_pq.

    Built from disjoint-plus-shared coordinate blocks conjugated by one common
    Haar rotation, so exactly d_pq principal angles are 0 and the rest pi/2.
    The full d x d standard normal block of haar_basis(d, d, seed) is drawn, so
    a Generator seed advances by d^2 draws; only its first d_p + d_q - d_pq
    columns, the ones the pair uses, are orthonormalized.
    """
    if not isinstance(spec, SubspacePairSpec):
        raise InvalidDimensionError("spec must be a SubspacePairSpec")
    g = np.random.default_rng(seed).standard_normal((spec.d, spec.d))
    rot = _sign_fixed_qr(g[:, : spec.d_p + spec.d_q - spec.d_pq])
    return OrthonormalBasis(rot[:, : spec.d_p]), OrthonormalBasis(rot[:, spec.q_coords])


def _check_same_ambient(u_p, u_q):
    if u_p.ambient_dim != u_q.ambient_dim:
        raise InvalidDimensionError(
            f"ambient dims differ: {u_p.ambient_dim} vs {u_q.ambient_dim}"
        )


def _cos_sq_sum(u_p, u_q):
    """sum_i cos^2 theta_i = ||U_P^T U_Q||_F^2, the sum of squared singular values."""
    _check_same_ambient(u_p, u_q)
    g = u_p.columns.T @ u_q.columns
    return float(np.sum(g * g))


def subspace_similarity(u_p, u_q):
    """sqrt(sum_i cos^2 theta_i / min(d_P, d_Q)); 1 if one contains the other, 0 if orthogonal."""
    return float(np.sqrt(_cos_sq_sum(u_p, u_q) / min(u_p.rank, u_q.rank)))


def overlap_coefficient(u_p, u_q):
    """sum_i cos^2 theta_i / d_Q, the fraction of Q-energy captured by P."""
    return _cos_sq_sum(u_p, u_q) / u_q.rank
