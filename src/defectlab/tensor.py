"""Local operator application, the dense-array byte budget, the
permutation operator, and the truncated multi-species Fock space.

Matrices are plain complex128 ndarrays.  Auxiliary-space indices follow the
physics convention and are 1-based in every public signature; array indices
underneath are 0-based as usual.  An operator with four legs (out_aux,
out_slot, in_aux, in_slot) on factor 0, the auxiliary space, and one slot
(dimensions d_aux, d_slot) of a dim-dimensional product space is applied to
a block of n columns by one contraction, :func:`apply_local`, at cost
O(dim * n * d_aux * d_slot), not the O(dim^2 * n) of multiplying a full
embedding; its out legs may differ from its in legs, and both may carry
leading stack axes, which broadcast.  Dense arrays whose
size follows from the input are checked against ``MATRIX_BYTE_BUDGET``
before allocation, and a stack of matrices is held to ``STACK_BYTES``:
larger stacks measured slower than evaluating one matrix at a time.  A Fock
space holds each basis state's total occupation in one array and builds
each ladder operator once, all of them read-only; its basis is ordered by
total occupation, so a cut by occupation is a prefix of the basis, as long
as :meth:`FockSpace.shells` says.

Work arrays.  A :class:`WorkArrays` keeps one buffer per role, grown to the
largest request, and hands it out as a view of the requested shape, so a
temporary that every call needs is faulted in once rather than per call.
:func:`work_arrays` gives each thread its own, with requests capped at
``STACK_BYTES``: a larger request gets a fresh array, so a thread keeps at
most roles x ``STACK_BYTES``.  :func:`kept` takes one by role, or a fresh
array for none: the lax builders and ``apply_local`` take their results by
the role their caller names, and the checks' buffers and temporaries and
lax's factor loop's products are kept too; a Bethe solve keeps its own
instance, with no cap, for its life.  A taken array is overwritten by the
next request for its role, so a kept array never outlives the call that
named its role: only reductions of it and fresh results do.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

COMPLEX = np.complex128

MATRIX_BYTE_BUDGET = 1 << 28  # 256 MiB: the largest dense complex array built


def require_budget(shape, what: str) -> None:
    """Refuse, before allocating it, a dense complex array above the budget."""
    nbytes = math.prod(int(k) for k in shape) * np.dtype(COMPLEX).itemsize
    if nbytes > MATRIX_BYTE_BUDGET:
        size = " x ".join(str(int(k)) for k in shape)
        raise ValueError(
            f"{what} needs a {size} complex array ({nbytes / 1e9:.3g} GB), over the "
            f"{MATRIX_BYTE_BUDGET / 1e9:.3g} GB budget; reduce sites, rank or the Fock cutoff"
        )


STACK_BYTES = 1 << 19  # 512 KiB: the most one stack of matrices takes


def stack_depth(shape) -> int:
    """How many complex arrays of ``shape`` one stack holds: as many as fit
    in ``STACK_BYTES`` and the budget, and at least one, which
    ``require_budget`` checks on its own."""
    nbytes = math.prod(int(k) for k in shape) * np.dtype(COMPLEX).itemsize
    return max(1, min(STACK_BYTES, MATRIX_BYTE_BUDGET) // max(1, nbytes))


class WorkArrays:
    """Work arrays kept by role: one buffer per role, grown to the largest
    request of at most ``limit`` bytes (no limit if None), handed out as a
    view of the requested shape and dtype.  A request above the limit gets a
    fresh array, which nothing keeps.  A later request for the same role
    overwrites the view, so an array taken here must not outlive the call
    that named its role; only reductions of it may leave.  The buffers
    are freed with the instance, like any dict's values."""

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.buffers = {}  # role -> (buffer, {(shape, dtype): view of it})

    def take(self, role, shape: tuple, dtype=COMPLEX) -> np.ndarray:
        """An array of ``shape`` (a tuple) and ``dtype`` in the role's buffer."""
        buf, views = self.buffers.get(role, (None, {}))
        view = views.get((shape, dtype))
        if view is not None:
            return view
        size = math.prod(shape)
        nbytes = size * np.dtype(dtype).itemsize
        if self.limit is not None and nbytes > self.limit:
            return np.empty(shape, dtype=dtype)
        if buf is None or buf.nbytes < nbytes:  # complex128 items, so any dtype's view is aligned
            buf, views = np.empty(-(-nbytes // 16), dtype=COMPLEX), {}
            self.buffers[role] = buf, views
        view = views[shape, dtype] = buf.view(dtype)[:size].reshape(shape)
        return view


_threads = threading.local()


def work_arrays() -> WorkArrays:
    """This thread's kept work arrays, each at most ``STACK_BYTES``: a
    stacked check's temporaries are faulted in once per thread, not once
    per call, and a thread keeps at most roles x ``STACK_BYTES``."""
    pool = getattr(_threads, "pool", None)
    if pool is None:
        pool = _threads.pool = WorkArrays(STACK_BYTES)
    return pool


def kept(shape: tuple, role=None) -> np.ndarray:
    """A fresh complex array of ``shape``, or this thread's kept one of ``role``."""
    return np.empty(shape, dtype=COMPLEX) if role is None else work_arrays().take(role, shape)


def permutation_op(n: int) -> np.ndarray:
    """P = sum_{kl} e_kl (x) e_lk; swaps the two n-dimensional factors."""
    require_budget((n * n, n * n), "permutation operator")
    p = np.zeros((n * n, n * n), dtype=COMPLEX)
    for k in range(n):
        for l in range(n):
            p[k * n + l, l * n + k] = 1.0
    return p


def apply_local(op, x, dims, slot: int, role=None) -> np.ndarray:
    """The embedding of ``op`` times ``x``, without forming the embedding.

    ``x`` is a block with one row per basis state of dims[0] (x) dims[1]
    (x) ..., leftmost factor slowest, and any number of columns.  ``op`` has
    four legs (out_aux, out_slot, in_aux, in_slot) and acts on factor 0, the
    auxiliary space, and on factor ``slot`` >= 1, with (in_aux, in_slot) =
    (dims[0], dims[slot]); the others see the identity, and the result has
    out_aux and out_slot in their place; leading stack axes of either
    broadcast.  ``x`` is viewed as (d_aux, pre, d_slot, rest), its middle
    axes are swapped into a kept block, one BLAS product per entry writes
    the kept product, and the middle axes are swapped back into a fresh
    result, or the kept work array of ``role`` if given: O(rows * columns *
    out_aux * out_slot) work per entry."""
    if not 1 <= slot < len(dims):
        raise ValueError(f"slot {slot} invalid for {len(dims)} factors")
    d_aux, d_slot = dims[0], dims[slot]
    op = np.asarray(op, dtype=COMPLEX)
    if op.ndim < 4 or op.shape[-2:] != (d_aux, d_slot):
        raise ValueError(f"operator of shape {op.shape} does not act on {d_aux} x {d_slot}")
    x = np.asarray(x, dtype=COMPLEX)
    rows = math.prod(dims)
    if x.ndim < 2 or x.shape[-2] != rows:
        raise ValueError(f"block of shape {x.shape} does not have {rows} rows")
    op_lead, x_lead, columns = op.shape[:-4], x.shape[:-2], x.shape[-1]
    lead = np.broadcast_shapes(op_lead, x_lead)
    pre, post = math.prod(dims[1:slot]), math.prod(dims[slot + 1:])
    rest = post * columns
    work = work_arrays()  # the moved block and its product, faulted in once per thread
    block = work.take("apply_local block", x_lead + (d_aux, d_slot, pre, rest))
    block[...] = x.reshape(x_lead + (d_aux, pre, d_slot, rest)).swapaxes(-3, -2)
    out_aux, out_slot = op.shape[-4:-2]
    prod = work.take("apply_local product", lead + (out_aux, out_slot, pre, rest))
    np.matmul(op.reshape(op_lead + (out_aux * out_slot, d_aux * d_slot)),
              block.reshape(x_lead + (d_aux * d_slot, pre * rest)),
              out=prod.reshape(lead + (out_aux * out_slot, pre * rest)))
    moved = prod.swapaxes(-3, -2)  # copied out: prod is kept
    out = kept(moved.shape, role)
    np.copyto(out, moved)
    return out.reshape(lead + (out_aux * pre * out_slot * post, columns))


def embed_pair(op, aux_dim: int, site_dims, slot: int) -> np.ndarray:
    """The full matrix of a square operator on (auxiliary, site ``slot``,
    1-based) inside auxiliary (x) site_1 (x) ... (x) site_K: its four legs
    applied to the identity.  Products should use :func:`apply_local`,
    which never forms this matrix."""
    dims = [aux_dim] + [int(d) for d in site_dims]
    dim = math.prod(dims)
    require_budget((dim, dim), "embedded operator")
    op = np.reshape(op, (aux_dim, len(op) // aux_dim) * 2)
    return apply_local(op, np.eye(dim, dtype=COMPLEX), dims, slot)


def _compositions(m: int, total: int):
    """Every (n_1, ..., n_m) of naturals summing to ``total``, in
    lexicographic order: stars and bars, the m - 1 bars' places among
    total + m - 1 in increasing order."""
    for bars in itertools.combinations(range(total + m - 1), m - 1):
        edges = (-1,) + bars + (total + m - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


class FockSpace:
    """Bosonic Fock space with ``species`` oscillators, truncated by total
    occupation sum(n_j) <= cutoff.

    Basis order is graded lexicographic: states sorted by total occupation,
    ties broken lexicographically in (n_1, ..., n_m).  The vacuum is index 0.
    ``occupation[i]`` is sum(n_j) of basis state i.  Raising out of the
    truncated space maps to zero, so operator identities that involve one
    creation step are exact only on the block with total occupation <=
    cutoff - 1: the first ``shells(cutoff - 1)`` basis states.
    """

    def __init__(self, species: int, cutoff: int):
        if species < 1:
            raise ValueError("need at least one species")
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        expected = math.comb(cutoff + species, species)
        require_budget((expected, expected), f"Fock operator at cutoff {cutoff}")
        self.species = species
        self.cutoff = cutoff
        basis = []
        for total in range(cutoff + 1):
            basis.extend(_compositions(species, total))
        self.basis = tuple(basis)
        self.index = {occ: i for i, occ in enumerate(self.basis)}
        self.dim = len(self.basis)
        if self.dim != expected:
            raise AssertionError("basis enumeration does not match C(D+m,m)")
        self.occupation = np.array([sum(occ) for occ in self.basis])
        self.occupation.setflags(write=False)
        self._built = {}

    def __repr__(self):
        return f"FockSpace(species={self.species}, cutoff={self.cutoff})"

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=COMPLEX)
        v[0] = 1.0
        return v

    def _once(self, key, build) -> np.ndarray:
        """The array ``build()`` returns, made on the first call for ``key``
        and shared, read-only, with every later caller."""
        arr = self._built.get(key)
        if arr is None:
            arr = build()
            arr.setflags(write=False)
            self._built[key] = arr
        return arr

    def annihilator(self, j: int) -> np.ndarray:
        """a^(j), 1-based species index; amplitude sqrt(n_j)."""
        if not (1 <= j <= self.species):
            raise ValueError(f"species {j} out of range 1..{self.species}")
        return self._once(("a", j), lambda: self._ladder(j))

    def _ladder(self, j: int) -> np.ndarray:
        a = np.zeros((self.dim, self.dim), dtype=COMPLEX)
        for occ in self.basis:
            if occ[j - 1] > 0:
                low = list(occ)
                low[j - 1] -= 1
                a[self.index[tuple(low)], self.index[occ]] = math.sqrt(occ[j - 1])
        return a

    def creator(self, j: int) -> np.ndarray:
        return self._once(("adag", j), lambda: self.annihilator(j).conj().T)

    def shells(self, top: int) -> int:
        """How many basis states have total occupation <= top: the first
        ones, since the basis is ordered by total occupation."""
        return int(np.searchsorted(self.occupation, top, side="right"))
