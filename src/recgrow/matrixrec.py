"""Square-matrix analog D(n+1) = A + B*D(n)^2 with exact rational entries.

Entries are restricted to nonnegative rationals, which keeps the iteration
entrywise monotone and lets the scalar theory transfer through a
submultiplicative norm: with the max-row-sum norm, the scalar sequence
S(0) = ||D0||, S(n+1) = ||A|| + ||B||*S(n)^2 dominates ||D(n)|| for all n.
At m = 1 everything collapses to the scalar recursion bit for bit.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import CapExceededError, InvalidParamsError
from .recurrence import MATRIX_DEFAULT_CAP, Params, SequenceTable, as_fraction
from .report import Report, _read_document
from .serialize import frac_str, parse_rational

Matrix = tuple[tuple[Fraction, ...], ...]


def as_matrix(rows) -> Matrix:
    """Coerce nested rationals to a square tuple-of-tuples matrix."""
    mat = tuple(tuple(as_fraction(x) for x in row) for row in rows)
    m = len(mat)
    if m == 0 or any(len(row) != m for row in mat):
        raise ValueError("matrix must be square and nonempty")
    return mat


def mat_add(x: Matrix, y: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    m = len(x)
    if len(y) != m:
        raise ValueError(f"dimension mismatch: {m} vs {len(y)}")
    yt = tuple(zip(*y))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in yt) for row in x)


def max_row_sum(x: Matrix) -> Fraction:
    """Max-row-sum norm; submultiplicative, exactly computable in rationals."""
    return max(sum(row, Fraction(0)) for row in x)


def entrywise_leq(x: Matrix, y: Matrix) -> bool:
    return all(a <= b for rx, ry in zip(x, y) for a, b in zip(rx, ry))


class MatrixParams(namedtuple("MatrixParams", "a b d0")):
    """Nonnegative coefficient matrices A, B and seed D0, all m x m."""

    __slots__ = ()

    def __new__(cls, a, b, d0):
        mats = {"a": as_matrix(a), "b": as_matrix(b), "d0": as_matrix(d0)}
        dims = {len(mat) for mat in mats.values()}
        if len(dims) != 1:
            raise ValueError(f"inconsistent dimensions {sorted(dims)}")
        for name, mat in mats.items():
            if any(x < 0 for row in mat for x in row):
                raise InvalidParamsError(f"matrix {name} has a negative entry")
        return super().__new__(cls, **mats)

    @property
    def dim(self) -> int:
        return len(self.a)


def _check_index(n_max: int, cap: int) -> None:
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if n_max > cap:
        raise CapExceededError(f"n_max={n_max} exceeds matrix cap={cap}")


def evaluate_matrix(mp: MatrixParams, n_max: int, cap: int = MATRIX_DEFAULT_CAP) -> tuple[Matrix, ...]:
    """Exact matrix orbit D(0..n_max) under D(n+1) = A + B*D(n)^2."""
    _check_index(n_max, cap)
    seq = [mp.d0]
    for _ in range(n_max):
        cur = seq[-1]
        seq.append(mat_add(mp.a, mat_mul(mp.b, mat_mul(cur, cur))))
    return tuple(seq)


def scalar_envelope(mp: MatrixParams, n_max: int, cap: int = MATRIX_DEFAULT_CAP) -> SequenceTable:
    """Scalar norm envelope S with S(0) = ||D0||, S(n+1) = ||A|| + ||B||*S(n)^2.

    Dominates ||D(n)|| for every n by submultiplicativity and the triangle
    inequality; iterated directly since the norm coefficients need not
    satisfy the scalar growth conditions.
    """
    _check_index(n_max, cap)
    na, nb, nd0 = max_row_sum(mp.a), max_row_sum(mp.b), max_row_sum(mp.d0)
    values = [nd0]
    for _ in range(n_max):
        values.append(na + nb * values[-1] ** 2)
    return SequenceTable(params=Params(a=na, b=nb, d0=nd0), values=tuple(values))


def _matrix_from_doc(doc: dict) -> MatrixParams:
    def matrix(key: str) -> list:
        rows = doc[key]
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):  # a string iterates too
            raise TypeError(f"{key} must be a list of lists of rational strings")
        return [[parse_rational(x) for x in row] for row in rows]

    return MatrixParams(a=matrix("a"), b=matrix("b"), d0=matrix("d0"))


def _matrix_strings(mat: Matrix) -> list:
    return [[frac_str(x) for x in row] for row in mat]


def _cmd_matrix(args) -> Report:
    mp = _read_document(args.file, "matrix", _matrix_from_doc)
    seq = evaluate_matrix(mp, args.n, cap=args.cap)
    envelope = scalar_envelope(mp, args.n, cap=args.cap)
    norms = [max_row_sum(m) for m in seq]
    dominated = all(norms[n] <= envelope[n] for n in range(args.n + 1))
    rows = [
        {
            "n": n,
            "norm": frac_str(norms[n]),
            "envelope": frac_str(envelope[n]),
            "matrix": _matrix_strings(seq[n]),
        }
        for n in range(args.n + 1)
    ]
    return Report(
        command="matrix",
        params={
            "dim": mp.dim,
            "a": _matrix_strings(mp.a),
            "b": _matrix_strings(mp.b),
            "d0": _matrix_strings(mp.d0),
        },
        results={
            "n_max": args.n,
            "rows": rows,
            "norm_dominated": dominated,
        },
        csv_header=["n", "norm", "envelope", "matrix"],
        csv_rows=[
            [r["n"], r["norm"], r["envelope"], ";".join(" ".join(row) for row in r["matrix"])]
            for r in rows
        ],
        table_lines=[f"norm_dominated = {dominated}"],
    )
