"""Matrices of linear forms over the integers, their rank over F_p, and canonical JSON.

The ambient space throughout the package is the fourfold product

    X = P^n x P^n x P^m x P^m,      dim X = 2n + 2m,

with homogeneous coordinates split into four groups:

    x_0..x_n  on the first factor,
    y_0..y_n  on the second,
    z_0..z_m  on the third,
    t_0..t_m  on the fourth.

Pic(X) = Z^4, so line bundles carry a multidegree (a, b, c, d), one entry per
group.  The monads of the package are linear: every entry of their maps is a
linear form, a Z-combination of coordinates.  A `LinearForm` stores one as a
tuple of (group, index, coeff) terms, group 0..3 standing for x, y, z, t.
Canonical form: terms sorted by (group, index), no variable twice, no zero
coefficient.  Equal forms therefore have identical representations, which is
what makes the JSON round-trip byte-exact.

The product of two matrices of linear forms is a table of quadratic forms,
each a dict from a sorted pair of variables (group, index) to its nonzero
coefficient; f * g = 0 is checked on that bilinear coefficient table.  All
coefficients are Python ints, so arithmetic is exact; no floating point
enters any code path.

Canonical JSON is json.dumps with sorted keys and indent 2.  The long lists
of a document are fills: the document holds a value with a
`json_chunks(indent)` method where the list goes (a `PolyMatrix` for a
matrix's entries; the stability module's row grid for the scan's rows), and
`canonical_chunks(doc)` writes each from that method, byte for byte what
json.dumps would write for the list.  This module knows no fill type but
`PolyMatrix`.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

GROUPS: Tuple[str, ...] = ("x", "y", "z", "t")
_GROUP_ORDER: Dict[str, int] = {g: i for i, g in enumerate(GROUPS)}

DEFAULT_PRIME = 2**31 - 1  # Mersenne prime; large enough that random rank drops are negligible


def json_int(value: object, what: str) -> int:
    """`value` itself if it is a JSON integer; ValueError naming `what` for a
    bool, float, string or anything else."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def checked_int(value: object, low: int, what: str) -> int:
    """`value` itself if it is an int, not a bool, and at least `low` (0 or
    1); otherwise ValueError "<what> must be a non-negative integer", or "a
    positive integer" when `low` is 1."""
    if type(value) is not int or value < low:
        sign = "positive" if low else "non-negative"
        raise ValueError(f"{what} must be a {sign} integer, got {value!r}")
    return value


def json_key(data: object, key: str, what: str) -> object:
    """data[key] of a JSON object; ValueError naming `what` as the object
    that is not an object or lacks the key."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"{what} is missing key {key!r}")
    return data[key]


class Record:
    """Base of the package's records, which are immutable values.  A
    record's fields are its class's own `__slots__`, in order (`_FIELDS`);
    they give its value `==` (never equal to an object of another class),
    its hash and its `Name(field=value, ...)` repr.  Each record writes its
    own `__init__`, which checks its arguments and passes them, in field
    order, to `Record.__init__`; after that, assigning or deleting any
    attribute raises AttributeError ("cannot assign to field 'n'").  A record
    with a dict or list field is unhashable."""

    __slots__ = ()
    _FIELDS: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._FIELDS = tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._FIELDS, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._FIELDS])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__name__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SpaceParams(Record):
    """Shape parameters (n, m, k) of the ambient space and the monad family.

    n and m are the projective dimensions of the paired factors, k is the
    number of monad rows/columns.  All three must be integers >= 1 (a bool is
    not accepted as an integer).
    """

    __slots__ = ("n", "m", "k")

    def __init__(self, n: int, m: int, k: int) -> None:
        for field, value in (("n", n), ("m", m), ("k", k)):
            checked_int(value, 1, field)
        super().__init__(n, m, k)

    @staticmethod
    def from_json(data: Mapping) -> "SpaceParams":
        return SpaceParams(*(json_key(data, key, "params") for key in ("n", "m", "k")))

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "k": self.k}

    @property
    def dim_x(self) -> int:
        return 2 * self.n + 2 * self.m

    def group_dim(self, group: str) -> int:
        """Projective dimension of the factor carrying `group` coordinates."""
        if group in ("x", "y"):
            return self.n
        if group in ("z", "t"):
            return self.m
        raise ValueError(f"unknown variable group {group!r}")


class MultiDegree(Record):
    """An element of Pic(X) = Z^4, ordered (x-degree, y-degree, z-degree, t-degree)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        super().__init__(a, b, c, d)

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other: "MultiDegree") -> "MultiDegree":
        return MultiDegree(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "MultiDegree") -> "MultiDegree":
        return MultiDegree(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def scale(self, r: int) -> "MultiDegree":
        return MultiDegree(r * self.a, r * self.b, r * self.c, r * self.d)

    def __repr__(self) -> str:
        return f"({self.a},{self.b},{self.c},{self.d})"


Term = Tuple[int, int, int]  # (group 0..3, index, coeff)


def _name(group: int, index: int) -> str:
    return f"{GROUPS[group]}{index}"


class LinearForm(tuple):
    """A Z-linear combination of coordinates: canonical (group, index, coeff) terms.

    The empty form is 0.  Build one from arbitrary terms with `LinearForm.of`;
    the plain constructor trusts its input to be canonical already.  Tuple
    operations act on the terms: `p + q` concatenates them, and
    `LinearForm.of(p + q)` is the sum of the two forms.
    """

    __slots__ = ()

    @staticmethod
    def of(terms: Iterable[Term]) -> "LinearForm":
        """Sum `terms`: repeated variables merge, zero coefficients drop out."""
        acc: Dict[Tuple[int, int], int] = {}
        for group, index, coeff in terms:
            acc[(group, index)] = acc.get((group, index), 0) + coeff
        return LinearForm((g, i, c) for (g, i), c in sorted(acc.items()) if c)

    def __neg__(self) -> "LinearForm":
        return LinearForm((g, i, -c) for g, i, c in self)

    def __str__(self) -> str:
        if not self:
            return "0"
        chunks: List[str] = []
        for group, index, coeff in self:
            name = _name(group, index)
            body = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)


class PolyMatrix(Record):
    """A rows x cols matrix of linear forms, stored row-major.

    0 x c and r x 0 matrices are legal (rank 0, empty entry list); they show up
    naturally as degenerate block edges.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[LinearForm]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"entry list has length {len(entries)}, "
                f"expected {rows}*{cols}={rows * cols}"
            )
        super().__init__(rows, cols, tuple(entries))

    def entry(self, i: int, j: int) -> LinearForm:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[LinearForm, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [-p for p in self.entries])

    def json_chunks(self, indent: int) -> Iterator[str]:
        """The entry list, written by `_entry_chunks` for `canonical_chunks`."""
        return _entry_chunks(self, indent)


# sorted pair of variables ((group, index), (group, index)) -> nonzero coefficient
QuadraticForm = Dict[Tuple[Tuple[int, int], Tuple[int, int]], int]


def matrix_mul(A: PolyMatrix, B: PolyMatrix) -> List[List[QuadraticForm]]:
    """Exact product of two matrices of linear forms, as a table of quadratic forms.

    Entry (i, j) maps each sorted variable pair (u, v), u <= v, to the
    coefficient of u*v in sum_l A[i,l] * B[l,j]; pairs whose coefficient
    cancels to zero are absent.  Raises ValueError on an inner-dimension
    mismatch.
    """
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: ({A.rows}x{A.cols}) * ({B.rows}x{B.cols})")
    columns = [B.entries[j :: B.cols] for j in range(B.cols)]
    out: List[List[QuadraticForm]] = []
    for i in range(A.rows):
        arow = A.row(i)
        out_row: List[QuadraticForm] = []
        for column in columns:
            acc: QuadraticForm = {}
            for a, b in zip(arow, column):
                for ga, ia, ca in a:
                    for gb, ib, cb in b:
                        u, v = (ga, ia), (gb, ib)
                        key = (u, v) if u <= v else (v, u)
                        acc[key] = acc.get(key, 0) + ca * cb
            out_row.append({key: c for key, c in acc.items() if c})
        out.append(out_row)
    return out


def evaluate_matrix(
    A: PolyMatrix, point: Sequence[Sequence[int]], prime: int = DEFAULT_PRIME
) -> List[List[int]]:
    """Evaluate every entry over F_prime at `point`, which holds one list of
    coordinate values per group, in the order x, y, z, t.

    Raises KeyError naming the first variable that has no assigned value.
    """
    try:
        values = [sum([c * point[g][i] for g, i, c in form]) % prime for form in A.entries]
    except IndexError:
        g, i = next((g, i) for form in A.entries for g, i, _ in form if i >= len(point[g]))
        raise KeyError(f"no value assigned to variable {_name(g, i)}") from None
    return [values[r * A.cols : (r + 1) * A.cols] for r in range(A.rows)]


def rank_over_field(M: Sequence[Sequence[int]], prime: int) -> int:
    """Rank of an integer matrix over F_prime, by Gaussian elimination to
    row echelon form: each pivot clears only the rows below it.

    The input is not mutated.  A 0 x c or r x 0 matrix has rank 0.
    """
    rows = [list(r) for r in M]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if rows[r][col] % prime != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pivot_row = rows[rank]
        inv = pow(pivot_row[col] % prime, prime - 2, prime)
        for r in range(rank + 1, nrows):
            if rows[r][col] % prime != 0:
                factor = rows[r][col] * inv % prime
                rows[r] = [(a - factor * b) % prime for a, b in zip(rows[r], pivot_row)]
        rank += 1
        if rank == nrows:
            break
    return rank


# ---------------------------------------------------------------------------
# JSON forms.
#
# A linear form serializes to a list of terms, each {"coeff": "<decimal>",
# "exps": {"x0": 1}}, in canonical term order; coefficients travel as decimal
# strings so arbitrarily large integers survive any JSON reader.  A matrix
# serializes to {"rows": r, "cols": c, "entries": [[term-list]]}.
# Serialization and parsing are exact inverses, byte for byte once rendered
# with sorted keys.
# ---------------------------------------------------------------------------

_VARIABLE_NAME = re.compile(r"([xyzt])([0-9]+)")
_DECIMAL = re.compile(r"-?[0-9]+")


def _term_from_json(item: object) -> Term:
    """One JSON term as (group, index, coeff); ValueError unless it is
    {"coeff": "<decimal>", "exps": {"<variable>": 1}}."""
    if not isinstance(item, dict) or "coeff" not in item or "exps" not in item:
        raise ValueError("a term must be an object with keys coeff and exps")
    if len(item) > 2:
        extra = ", ".join(repr(key) for key in item if key not in ("coeff", "exps"))
        raise ValueError(f"keys other than coeff and exps: {extra}")
    coeff, exps = item["coeff"], item["exps"]
    if not isinstance(coeff, str) or not _DECIMAL.fullmatch(coeff):
        raise ValueError("coeff must be a decimal string")
    if not isinstance(exps, dict) or len(exps) != 1:
        raise ValueError("not one variable to the power 1")
    ((name, exp),) = exps.items()
    match = _VARIABLE_NAME.fullmatch(name)
    if match is None or type(exp) is not int or exp != 1:
        raise ValueError("not one variable to the power 1")
    return (_GROUP_ORDER[match[1]], int(match[2]), int(coeff))


def matrix_from_json(data: Mapping, name: str = "matrix") -> PolyMatrix:
    """Parse a matrix of linear forms; `name` labels the matrix in errors.

    rows and cols must be JSON integers and every term one variable to the
    power 1.  Terms in one variable are summed and zero coefficients dropped.
    Raises ValueError naming the matrix, the row or entry, and the term.
    Every term is validated by `_term_from_json` where it stands, and every
    cell is summed by `LinearForm.of`.
    """
    rows = json_int(json_key(data, "rows", name), f"{name} rows")
    cols = json_int(json_key(data, "cols", name), f"{name} cols")
    entries = json_key(data, "entries", name)
    if not isinstance(entries, list) or len(entries) != rows:
        raise ValueError(f"matrix JSON has inconsistent shape: {name} does not have {rows} rows")
    flat: List[LinearForm] = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(
                f"matrix JSON has inconsistent shape: {name} row {i} does not have {cols} entries"
            )
        for j, cell in enumerate(row):
            if not isinstance(cell, list):
                raise ValueError(f"{name} entry ({i},{j}) is not a list of terms")
            terms = []
            for item in cell:
                try:
                    terms.append(_term_from_json(item))
                except ValueError as exc:
                    raise ValueError(
                        f"{name} entry ({i},{j}) term {json.dumps(item, sort_keys=True)}: {exc}"
                    ) from None
            flat.append(LinearForm.of(terms))
    return PolyMatrix(rows, cols, flat)


def dumps_canonical(doc: object, default: Optional[Callable[[object], object]] = None) -> str:
    """Render a JSON document deterministically (sorted keys, fixed
    separators); `default` is json.dumps's hook for values it cannot render."""
    return json.dumps(doc, sort_keys=True, indent=2, default=default) + "\n"


def _entry_chunks(A: PolyMatrix, indent: int) -> Iterator[str]:
    """A's entry list (see "JSON forms" above), closing bracket at column
    `indent`, a row of cells per piece; every distinct term is rendered once
    from one f-string, and every distinct cell once from its terms."""
    if not A.rows:
        yield "[]"
        return
    r, c, t, f, e = (" " * (indent + step) for step in (2, 4, 6, 8, 10))
    forms = set(A.entries)
    terms = {
        term: f'{t}{{\n{f}"coeff": "{term[2]}",\n{f}"exps": {{\n'
        f'{e}"{_name(term[0], term[1])}": 1\n{f}}}\n{t}}}'
        for term in set(chain.from_iterable(forms))
    }
    cells = {
        form: f"{c}[\n" + ",\n".join([terms[term] for term in form]) + f"\n{c}]"
        if form else f"{c}[]"
        for form in forms
    }
    for i in range(A.rows):
        row = ",\n".join([cells[form] for form in A.row(i)])
        yield ("[\n" if i == 0 else ",\n") + (f"{r}[\n{row}\n{r}]" if A.cols else f"{r}[]")
    yield "\n" + " " * indent + "]"


def canonical_chunks(doc: object) -> Iterator[str]:
    """The text of dumps_canonical(doc) in pieces, with each value in `doc`
    that has a `json_chunks(indent)` method (a `PolyMatrix`, the scan's row
    grid) written as the list that method yields.

    dumps_canonical's `default` hook puts a numbered NUL-delimited marker,
    a string no real value of a document can equal, where each fill goes;
    the fill learns the list's depth from the line its marker stands on.
    Neither the list nor the whole text is ever built.  Everything but the
    fills is rendered before this returns, so a value json cannot write
    raises TypeError here, and consuming the pieces fails only if memory
    runs out.  A document with no fill is one piece.
    """
    fills: Dict[str, Callable[[int], Iterator[str]]] = {}

    def mark(value: object) -> str:
        chunks = getattr(value, "json_chunks", None)
        if chunks is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        marker = f"\x00{len(fills)}\x00"
        fills[json.dumps(marker)] = chunks
        return marker

    text = dumps_canonical(doc, default=mark)
    if not fills:
        return iter((text,))
    parts = re.split("(" + "|".join(map(re.escape, fills)) + ")", text)
    pieces: List[Iterable[str]] = [parts[:1]]
    for i in range(1, len(parts), 2):
        line = parts[i - 1][parts[i - 1].rfind("\n") + 1 :]
        pieces += [fills[parts[i]](len(line) - len(line.lstrip(" "))), parts[i + 1 : i + 2]]
    return chain.from_iterable(pieces)
