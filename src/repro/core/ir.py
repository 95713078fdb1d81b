"""Affine loop-nest IR.

The paper's formalism (Section 5.2.1) represents a loop nest by its
iteration vector ``I = (i1 ... in)^T`` and an access to an m-dimensional
array ``X`` by ``X(F·I + f)`` with ``F`` an m×n integer matrix and ``f``
an m-vector.  This module implements exactly that, plus enough program
structure (statements with multiple references, sequences of nests,
non-affine "opaque" references) to express the benchmark kernels and to
give the CME estimator the imperfect-nest cases it claims to handle.

Arrays carry concrete base addresses in the simulated global address
space so the compiler can reason about L2 homes / memory banks the same
way the hardware maps them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import OpClass

IntMatrix = Tuple[Tuple[int, ...], ...]
IntVector = Tuple[int, ...]

_INT64_MAX = int(np.iinfo(np.int64).max)


def _as_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


def _as_vector(vals: Sequence[int]) -> IntVector:
    return tuple(int(v) for v in vals)


@dataclass(frozen=True)
class Array:
    """A named array with a concrete placement in the address space."""

    name: str
    shape: IntVector
    base: int
    element_size: int = 8

    def __post_init__(self):
        object.__setattr__(self, "shape", _as_vector(self.shape))
        if any(s <= 0 for s in self.shape):
            raise ValueError(f"array {self.name}: non-positive dimension")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size_bytes(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n * self.element_size

    def address(self, indices: Sequence[int]) -> int:
        """Row-major address of ``self[indices]`` (indices clamped to shape,
        matching the wrap-around the trace generator uses for synthetic
        kernels whose subscripts may step slightly outside)."""
        if len(indices) != self.rank:
            raise ValueError(
                f"{self.name}: got {len(indices)} subscripts, rank {self.rank}"
            )
        off = 0
        for idx, dim in zip(indices, self.shape):
            off = off * dim + (int(idx) % dim)
        return self.base + off * self.element_size


@dataclass(frozen=True)
class ArrayRef:
    """An affine reference ``X(F·I + f)``."""

    array: Array
    F: IntMatrix
    f: IntVector

    def __post_init__(self):
        object.__setattr__(self, "F", _as_matrix(self.F))
        object.__setattr__(self, "f", _as_vector(self.f))
        if len(self.F) != self.array.rank or len(self.f) != self.array.rank:
            raise ValueError(
                f"ref to {self.array.name}: F/f rank mismatch with array"
            )

    @property
    def depth(self) -> int:
        """Number of loop indices the subscripts range over."""
        return len(self.F[0]) if self.F else 0

    def subscripts(self, iteration: Sequence[int]) -> IntVector:
        # Plain integer dot products: F is tiny (rank x depth, both
        # single digits), where ndarray round-trips cost more than the
        # arithmetic itself.
        return tuple(
            sum(a * i for a, i in zip(row, iteration)) + c
            for row, c in zip(self.F, self.f)
        )

    def address(self, iteration: Sequence[int]) -> int:
        return self.array.address(self.subscripts(iteration))

    def addresses(self, points: np.ndarray) -> List[int]:
        """:meth:`address` of every row of an ``(n, k)`` int64 array.

        Each subscript row is truncated to the point's length, as the
        ``zip`` in :meth:`subscripts` truncates it, and ``np.mod``
        wraps with Python's sign rule, so every entry equals the
        per-point address.  The entries are Python ints.
        """
        arr = self.array
        if len(points) == 0:
            return []
        self._check_int64(points)
        depth = points.shape[1]
        off = np.zeros(len(points), dtype=np.int64)
        for row, c, dim in zip(self.F, self.f, arr.shape):
            k = min(len(row), depth)
            sub = points[:, :k] @ np.array(row[:k], dtype=np.int64) + c
            off = off * dim + np.mod(sub, dim)
        return (arr.base + off * arr.element_size).tolist()

    def _check_int64(self, points: np.ndarray) -> None:
        """Refuse what int64 arithmetic would wrap (Python ints grow)."""
        reach = np.abs(points).max(axis=0).tolist()
        worst = max(
            (sum(abs(a) * m for a, m in zip(row, reach)) + abs(c)
             for row, c in zip(self.F, self.f)),
            default=0,
        )
        arr = self.array
        if worst > _INT64_MAX or arr.base + arr.size_bytes > _INT64_MAX:
            raise ValueError(
                f"ref to {arr.name}: addresses do not fit in int64"
            )

    def is_uniform_with(self, other: "ArrayRef") -> bool:
        """Uniformly generated pair: same array, identical F."""
        return self.array.name == other.array.name and self.F == other.F

    def __repr__(self) -> str:
        terms = []
        for row, c in zip(self.F, self.f):
            parts = [
                f"{'' if a == 1 else a}i{k}"
                for k, a in enumerate(row)
                if a != 0
            ]
            if c or not parts:
                parts.append(str(c))
            terms.append("+".join(parts).replace("+-", "-"))
        return f"{self.array.name}[{','.join(terms)}]"


def ref(array: Array, *subscripts: Sequence[int]) -> ArrayRef:
    """Build a reference from per-dimension (coeffs..., const) tuples.

    ``ref(X, (1, 0, 0), (0, 1, -1))`` over a 2-deep nest is
    ``X[i0, i1-1]`` — each tuple is the row of ``F`` followed by the
    entry of ``f``.
    """
    F = [s[:-1] for s in subscripts]
    f = [s[-1] for s in subscripts]
    return ArrayRef(array, _as_matrix(F), _as_vector(f))


@dataclass(frozen=True)
class OpaqueRef:
    """A non-affine reference (pointer chasing, indirection).

    ``resolver(iteration) -> indices`` computes the subscripts at trace
    time; the static analyses treat it conservatively (unknown reuse,
    unknown home bank) — this is one organic source of the compiler's
    mispredictions the paper reports.
    """

    array: Array
    resolver: Callable[[Sequence[int]], Sequence[int]] = None  # type: ignore
    tag: str = "opaque"

    def address(self, iteration: Sequence[int]) -> int:
        return self.array.address(self.resolver(iteration))

    def addresses(self, points: np.ndarray) -> List[int]:
        """:meth:`address` of every row of ``points``, one resolver call
        per point: a resolver is arbitrary Python and sees a tuple."""
        return [self.address(p) for p in map(tuple, points.tolist())]

    def __repr__(self) -> str:
        return f"{self.array.name}[<{self.tag}>]"


Ref = Union[ArrayRef, OpaqueRef]


@dataclass(frozen=True)
class ComputeSpec:
    """A two-operand computation ``dest = x op y`` — the NDC candidate."""

    x: Ref
    y: Ref
    op: OpClass = OpClass.ADD
    dest: Optional[Ref] = None


@dataclass(frozen=True)
class Statement:
    """One statement of a loop body.

    ``reads``/``writes`` are plain data accesses; ``compute`` marks the
    statement as a two-operand computation candidate (its operand
    references are implicit reads).  ``work`` adds fixed non-memory
    cycles (models the rest of the instruction mix).
    """

    sid: int
    reads: Tuple[Ref, ...] = ()
    writes: Tuple[Ref, ...] = ()
    compute: Optional[ComputeSpec] = None
    work: int = 0

    def __post_init__(self):
        object.__setattr__(self, "reads", tuple(self.reads))
        object.__setattr__(self, "writes", tuple(self.writes))

    def all_reads(self) -> Tuple[Ref, ...]:
        if self.compute is None:
            return self.reads
        return self.reads + (self.compute.x, self.compute.y)

    def all_writes(self) -> Tuple[Ref, ...]:
        if self.compute is not None and self.compute.dest is not None:
            return self.writes + (self.compute.dest,)
        return self.writes


@dataclass(frozen=True)
class LoopNest:
    """A rectangular loop nest with a straight-line body.

    ``lower``/``upper`` are inclusive bounds per level.  ``schedule``
    optionally reorders the iteration traversal: iterations are visited
    in lexicographic order of ``schedule(I)`` (identity = row-major
    original order).  Loop transformations install a unimodular matrix
    here; statement motion installs per-statement iteration offsets via
    :attr:`stmt_shifts` (the Δ of Section 5.2.1).
    """

    name: str
    lower: IntVector
    upper: IntVector
    body: Tuple[Statement, ...]
    #: unimodular transformation applied to the iteration space (row-major
    #: over T·I); None = identity
    transform: Optional[IntMatrix] = None
    #: per-statement iteration shift: sid -> Δ vector (statement instance
    #: (I) executes at logical time of iteration I+Δ)
    stmt_shifts: Tuple[Tuple[int, IntVector], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_vector(self.lower))
        object.__setattr__(self, "upper", _as_vector(self.upper))
        object.__setattr__(self, "body", tuple(self.body))
        if len(self.lower) != len(self.upper):
            raise ValueError("bound rank mismatch")
        if any(u < l for l, u in zip(self.lower, self.upper)):
            raise ValueError(f"nest {self.name}: empty iteration space")

    @property
    def depth(self) -> int:
        return len(self.lower)

    @property
    def trip_counts(self) -> IntVector:
        return tuple(u - l + 1 for l, u in zip(self.lower, self.upper))

    @property
    def iterations(self) -> int:
        n = 1
        for t in self.trip_counts:
            n *= t
        return n

    def iter_space(self) -> Iterator[IntVector]:
        """Original (untransformed) iteration space, row-major."""
        ranges = [range(l, u + 1) for l, u in zip(self.lower, self.upper)]
        return iter(tuple(i) for i in itertools.product(*ranges))

    def scheduled_points(self) -> np.ndarray:
        """Iterations in *execution* order under the installed transform,
        as one ``(iterations, depth)`` int64 array."""
        pts = np.indices(self.trip_counts, dtype=np.int64)
        pts = pts.reshape(self.depth, -1).T + np.array(self.lower, dtype=np.int64)
        if self.transform is None:
            return pts
        keys = pts @ np.array(self.transform, dtype=np.int64).T
        return pts[np.lexsort(keys.T[::-1])]

    def scheduled_iterations(self) -> List[IntVector]:
        """:meth:`scheduled_points` as a list of tuples."""
        return [tuple(p) for p in self.scheduled_points().tolist()]

    def with_transform(self, T: IntMatrix) -> "LoopNest":
        return replace(self, transform=_as_matrix(T))

    def with_body(self, body: Sequence[Statement]) -> "LoopNest":
        return replace(self, body=tuple(body))

    def arrays(self) -> List[Array]:
        seen = {}
        for st in self.body:
            for r in st.all_reads() + st.all_writes():
                seen.setdefault(r.array.name, r.array)
        return list(seen.values())


@dataclass(frozen=True)
class Program:
    """A sequence of loop nests (and the unit the passes operate on)."""

    name: str
    nests: Tuple[LoopNest, ...]

    def __post_init__(self):
        object.__setattr__(self, "nests", tuple(self.nests))
        sids = [st.sid for n in self.nests for st in n.body]
        if len(sids) != len(set(sids)):
            raise ValueError(f"program {self.name}: duplicate statement ids")

    def statements(self) -> Iterator[Tuple[LoopNest, Statement]]:
        for n in self.nests:
            for st in n.body:
                yield n, st

    def computes(self) -> Iterator[Tuple[LoopNest, Statement]]:
        for n, st in self.statements():
            if st.compute is not None:
                yield n, st

    def replace_nest(self, old: LoopNest, new: LoopNest) -> "Program":
        return replace(
            self, nests=tuple(new if n is old else n for n in self.nests)
        )


class AddressSpaceAllocator:
    """Lays arrays out contiguously with page alignment, so different
    kernels get non-overlapping, deterministic placements."""

    def __init__(self, base: int = 1 << 22, align: int = 4096):
        self._next = base
        self.align = align

    def allocate(self, name: str, shape: Sequence[int], element_size: int = 8) -> Array:
        arr = Array(name, _as_vector(shape), self._next, element_size)
        size = arr.size_bytes
        self._next += (size + self.align - 1) // self.align * self.align
        return arr

    def pad_to_congruence(
        self, ref_base: int, delta_pages: int, modulo_pages: int = 16
    ) -> None:
        """Advance the cursor so the next allocation's page number is
        congruent to ``page(ref_base) + delta_pages`` modulo
        ``modulo_pages``.

        With 4 controllers × 4 banks page-interleaved, ``modulo 16``
        congruence pins the *relative* MC/bank placement of two arrays:
        ``delta ≡ 0 (mod 16)`` puts equal offsets of both arrays in the
        same controller *and* bank; ``delta ≡ 4`` same controller,
        different bank; ``delta ≡ 1`` different controller.
        """
        page = self.align
        want = (ref_base // page + delta_pages) % modulo_pages
        while (self._next // page) % modulo_pages != want:
            self._next += page
