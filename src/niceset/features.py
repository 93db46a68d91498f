"""From a numeric dataset to a model instance and a nice feature subset.

Collinearity edges come from thresholding absolute pairwise Pearson
correlations (boundary inclusive); multicollinearity conflict sets come from
variance inflation factors (VIF): a feature whose VIF against all other
features exceeds the threshold gets, as conflict partners, the regressors
with the largest absolute standardized coefficients.  The family is then
symmetrized by union.

All feature indices in this module are 1-based, matching instance vertices:
feature ``j`` is vertex ``j``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import CsvError, count, real
from .instance import Edge, Instance
from .solvers import solve

VIF_MAX = 1e12
_RIDGE = 1e-10
_COEF_FLOOR = 1e-8  # below this a coefficient is numerical zero (ridge scale)
_EXACT_CORR = 1e-14  # |corr| this close to 1 is exact dependence up to rounding


@dataclass(frozen=True)
class FeatureMatrix:
    """``n`` observations of ``m`` numeric features (columns) with distinct ``str`` names."""

    names: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError("data must be a 2-d array")
        n, m = data.shape
        if n < 3:
            raise ValueError(f"need at least 3 observations, got {n}")
        if m < 2:
            raise ValueError(f"need at least 2 features, got {m}")
        if isinstance(self.names, (str, bytes)):
            raise TypeError("names must be a sequence of names, not a string")
        object.__setattr__(self, "names", tuple(str(s) for s in self.names))
        if len(self.names) != m:
            raise ValueError("one name per column required")
        if len(set(self.names)) != m:
            raise ValueError("feature names must be unique")
        if not np.all(np.isfinite(data)):
            raise ValueError("data contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    def column(self, j: int) -> np.ndarray:
        """Column of feature ``j`` (1-based)."""
        if (j := count("j", j, 1)) > self.m:
            raise ValueError(f"feature index {j} out of range 1..{self.m}")
        return self.data[:, j - 1]


def load_csv(path, delimiter: str = ",", has_header: bool = True) -> FeatureMatrix:
    """Read a rectangular numeric CSV into a :class:`FeatureMatrix`.

    The header row supplies feature names; without one, names are
    ``f1..fm``.  Blank lines are ignored.  Ragged rows, non-numeric or
    non-finite cells, and bodies with fewer than 3 rows raise
    :class:`CsvError` naming the offending record and column; so do text
    that is not UTF-8 and records the ``csv`` module rejects (such as a
    field over its size limit), naming the file.  Missing values are
    rejected, not imputed.  A ``delimiter`` that is not one character
    raises ``ValueError`` before the file is opened.  A leading UTF-8
    byte-order mark is dropped; one anywhere else is text.

    The file is read and decoded once, before any parsing, so pipes and
    FIFOs work.  One ``csv`` reader over its lines reads the header and
    numpy's C reader the lines after it, converting each cell with the
    routine Python's ``float`` uses on ASCII text.  A body numpy rejects or
    might read otherwise (quotes, ``1_000``, non-ASCII digits, a line over
    the ``csv`` field size limit, a ragged or short body, a non-finite
    value) is read on by the same ``csv`` reader with every cell parsed by
    ``float``.  That reader alone reports errors, naming the first bad
    record and cell in file order.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ValueError(f"delimiter must be a single character, got {delimiter!r}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise CsvError(f"{path}: not UTF-8 text: {exc.reason}") from None
    reader = csv.reader(lines, delimiter=delimiter)
    # non-empty records with their 1-based numbers, blank records counted
    records = ((number, record) for number, record in enumerate(reader, start=1) if record)
    try:
        header = next(records, None) if has_header else None
        names = None if header is None else tuple(cell.strip() for cell in header[1])
        data = _numpy_body(lines[reader.line_num:], delimiter, names)
        if data is None:
            data = _csv_body(path, records, names)
    except csv.Error as exc:
        raise CsvError(f"{path}: line {reader.line_num}: {exc}") from None
    if names is None:
        names = tuple(f"f{j}" for j in range(1, data.shape[1] + 1))
    return FeatureMatrix(names=names, data=data)


_BLANK_LINES = ("\n", "\r\n", "\r")  # lines the csv module reads as empty records


def _numpy_body(lines: list[str], delimiter: str,
                names: tuple[str, ...] | None) -> np.ndarray | None:
    """The body ``lines`` read by numpy's C reader, or ``None`` when the
    ``csv`` reader must decide."""
    if delimiter in "\r\n":
        return None  # numpy cannot split a line on a line end
    lines = [line for line in lines if line not in _BLANK_LINES]
    # three lines at least also keep numpy from warning about an empty body
    if len(lines) < 3 or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        data = np.loadtxt(lines, delimiter=delimiter, comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if (names is not None and len(names) != data.shape[1]) or not np.isfinite(data).all():
        return None
    return data


def _csv_body(path, records, names: tuple[str, ...] | None) -> np.ndarray:
    """The rest of ``records`` read as the body, each record parsed by
    ``float`` at once; the first record that fails is walked for its error:
    a ragged record, else its first cell ``float`` rejects or reads as a
    non-finite value."""
    rows, width = [], None if names is None else len(names)
    for number, record in records:
        width = len(record) if width is None else width
        if len(record) != width:
            raise CsvError(f"{path}: record {number} has {len(record)} fields, expected {width}",
                           record=number)
        try:
            row = list(map(float, record))
        except ValueError:
            row = None
        if row is not None and all(map(math.isfinite, row)):
            rows.append(row)
            continue
        for col, cell in enumerate(record, start=1):
            label = names[col - 1] if names else f"f{col}"
            try:
                value = float(cell)
            except ValueError:
                raise CsvError(f"{path}: record {number}, column {label!r}: "
                               f"not a number: {cell!r}", record=number, column=label) from None
            if not math.isfinite(value):
                raise CsvError(f"{path}: record {number}, column {label!r}: "
                               f"non-finite value {cell!r}", record=number, column=label)
    if not rows:
        raise CsvError(f"{path}: " + ("empty file" if names is None else "no data rows"))
    if len(rows) < 3:
        raise CsvError(f"{path}: need at least 3 data rows, got {len(rows)}")
    return np.array(rows, dtype=float)


def _constant(columns: np.ndarray, sd: np.ndarray | float) -> np.ndarray:
    """Per column: all values equal, or a standard deviation of 0 (which an
    equal-valued column need not have: 1000 rows of 0.1 give 1.4e-17)."""
    return (columns.max(axis=0) == columns.min(axis=0)) | (sd == 0.0)


def _constant_error(fm: FeatureMatrix, j: int) -> ValueError:
    """The error every entry point raises for constant feature ``j`` (1-based)."""
    return ValueError(f"feature {fm.names[j - 1]!r} (column {j}) is constant")


def _standardized_columns(fm: FeatureMatrix, features: Sequence[int]) -> np.ndarray:
    """Features ``features`` (1-based) standardized, in C order.  Each column
    is bit for bit what standardizing it alone gives: Fortran order sums
    each column contiguously, as a 1-d reduction does.  The first constant
    one, in the given order, is rejected."""
    columns = np.asfortranarray(fm.data[:, [j - 1 for j in features]])
    sd = np.std(columns, axis=0)
    constant = np.flatnonzero(_constant(columns, sd))
    if constant.size:
        raise _constant_error(fm, features[int(constant[0])])
    return np.ascontiguousarray((columns - np.mean(columns, axis=0)) / sd)


def pearson_matrix(fm: FeatureMatrix) -> np.ndarray:
    """Sample Pearson correlations of all column pairs, as the Gram matrix
    ``Z^T Z / n`` of the standardized columns ``Z``: symmetric, unit
    diagonal, entries in [-1, 1].  Constant columns are rejected.

    An entry within ``1e-14`` of +-1 is set to +-1: exactly dependent
    columns (a copy, a negation, an affine rescaling) compute a few ulps
    short of 1, and would otherwise miss an edge at ``lambda_c = 1``."""
    design = _standardized_columns(fm, range(1, fm.m + 1))
    corr = design.T @ design / fm.n
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    corr = np.clip(corr, -1.0, 1.0)
    exact = np.abs(corr) >= 1.0 - _EXACT_CORR
    corr[exact] = np.sign(corr[exact])
    return corr


def collinearity_graph(corr: np.ndarray, lambda_c: float) -> frozenset[Edge]:
    """Edges ``(u, v)`` with ``|corr(u, v)| >= lambda_c`` (boundary inclusive),
    1-based, ``u < v``.  Requires ``lambda_c in (0, 1]``."""
    if not 0.0 < real("lambda_c", lambda_c) <= 1.0:
        raise ValueError("lambda_c must lie in (0, 1]")
    corr = np.asarray(corr)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ValueError("correlation matrix must be square")
    rows, cols = np.triu_indices(corr.shape[0], k=1)
    hit = np.abs(corr[rows, cols]) >= lambda_c
    return frozenset(zip((rows[hit] + 1).tolist(), (cols[hit] + 1).tolist()))


def vif(fm: FeatureMatrix, j: int, regressors: Iterable[int]) -> float:
    """Variance inflation factor ``1 / (1 - R^2)`` of regressing feature
    ``j`` (with intercept) on the given regressor features, capped at
    ``VIF_MAX`` once ``R^2 >= 1 - 1e-12``.

    The fit is ridge-damped least squares of the standardized target on the
    standardized regressors: standardization absorbs the intercept, and the
    tiny ridge keeps exactly collinear designs solvable instead of crashing.
    The residual-based R^2 is clipped to [0, 1].  Only the target and the
    regressors are checked for a constant column, the target first.
    """
    j = count("j", j, 1)
    regressors = tuple(sorted({count("regressors", r, 1) for r in regressors}))
    if not regressors:
        raise ValueError("at least one regressor required")
    if (top := max(j, *regressors)) > fm.m:
        raise ValueError(f"feature index {top} out of range 1..{fm.m}")
    if j in regressors:
        raise ValueError(f"feature {j} cannot regress on itself")
    if fm.n <= len(regressors) + 1:
        raise ValueError(f"need n > {len(regressors) + 1} observations, got {fm.n}")
    # two calls: slicing one call's result in two changes the last bits of
    # some results
    target = _standardized_columns(fm, (j,))[:, 0]
    design = _standardized_columns(fm, regressors)
    n, k = design.shape
    gram = design.T @ design / n
    moment = design.T @ target / n
    coef = np.linalg.solve(gram + _RIDGE * np.eye(k), moment)
    residual = target - design @ coef
    r2 = min(max(1.0 - float(np.mean(residual ** 2)), 0.0), 1.0)
    if r2 >= 1.0 - 1e-12:
        return VIF_MAX
    return min(1.0 / (1.0 - r2), VIF_MAX)


def conflict_sets(fm: FeatureMatrix, lambda_mc: float, k_top: int = 3) -> dict[int, frozenset[int]]:
    """Conflict family from VIF screening.

    A feature whose VIF against all other features exceeds ``lambda_mc``
    receives as conflict partners the ``k_top`` regressors with the largest
    absolute standardized coefficients (ties to the smaller index).
    Regressors whose coefficient is negligible, absolutely or relative to
    the dominant one, never become partners: they contribute nothing to the
    inflated fit.  Other features start empty.  The family is then
    symmetrized by :class:`Instance`'s union, so the returned map satisfies
    ``u in T(v)  iff  v in T(u)``.

    All ``m`` regressions come from one inverse ``P`` of the ridged
    correlation matrix ``R + 1e-10 I``, ``R`` being :func:`pearson_matrix`:
    feature ``j`` has coefficients ``beta_k = -P[j, k] / P[j, j]``
    (``k != j``) and ``R^2 = beta . R[j] + 1e-10 |beta|^2``, the
    residual-based R^2 of the same ridge fit :func:`vif` runs.  (The
    textbook ``1 - 1/P[j, j]`` drops the ridge term and misses the
    ``VIF_MAX`` cap on exactly collinear columns.)  Requires ``n > m``
    observations; with fewer, every feature fits perfectly and the screen
    would flag them all.
    """
    rows = _vif_screen(pearson_matrix(fm), fm.n, lambda_mc, k_top)
    return Instance(fm.m, conflicts=rows).conflicts


def _vif_screen(corr: np.ndarray, n: int, lambda_mc: float, k_top: int) -> np.ndarray:
    """:func:`conflict_sets`'s screen of ``corr`` (``n`` observations) before the
    union: an integer ``(k, 2)`` array of 1-based ``(flagged, partner)`` rows."""
    if not real("lambda_mc", lambda_mc) > 1.0:  # a NaN threshold fails too
        raise ValueError("lambda_mc must exceed 1")
    k_top = count("k_top", k_top, 1)
    m = corr.shape[0]
    if n <= m:
        raise ValueError(f"need n > {m} observations, got {n}")
    inverse = np.linalg.inv(corr + _RIDGE * np.eye(m))
    coef = -inverse / np.diag(inverse)[:, None]
    np.fill_diagonal(coef, 0.0)
    r2 = np.clip(np.sum(coef * corr, axis=1) + _RIDGE * np.sum(coef ** 2, axis=1), 0.0, 1.0)
    fits = ~(r2 >= 1.0 - 1e-12)  # the rest reach the cap; a NaN R^2 does not
    factor = np.full(m, VIF_MAX)
    factor[fits] = np.minimum(1.0 / (1.0 - r2[fits]), VIF_MAX)
    rows = []
    for v in np.flatnonzero(factor > lambda_mc).tolist():
        magnitudes = np.abs(coef[v])  # zero at v itself, so never a partner
        floor = max(_COEF_FLOOR, 0.01 * float(magnitudes.max()))
        partners = np.flatnonzero(magnitudes > floor)
        # a stable sort keeps ties in index order: the smaller index first
        ranked = partners[np.argsort(-magnitudes[partners], kind="stable")]
        rows += ((v + 1, u) for u in (ranked[:k_top] + 1).tolist())
    return np.array(rows, dtype=np.intp).reshape(-1, 2)


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of a feature-selection run; ``selected`` holds feature names
    in column order, and :func:`~niceset.solvers.solve` has checked it nice
    against the derived ``instance``.  The instance is not serialized; the
    edge and conflict counts are read from it."""

    selected: tuple[str, ...]
    method: str
    lambda_c: float
    lambda_mc: float
    instance: Instance = field(repr=False)
    witness_checked: ClassVar[bool] = True  # no report exists without solve's check

    @property
    def edge_count(self) -> int:
        return len(self.instance.edges)

    @property
    def conflict_max(self) -> int:
        return max(map(len, self.instance.conflicts.values()))

    @property
    def conflict_mean(self) -> float:
        return float(sum(map(len, self.instance.conflicts.values()))) / self.instance.m

    def to_dict(self) -> dict:
        return {
            "selected": list(self.selected),
            "method": self.method,
            "lambda_c": self.lambda_c,
            "lambda_mc": self.lambda_mc,
            "edge_count": self.edge_count,
            "conflict_stats": {"max": self.conflict_max, "mean": self.conflict_mean},
            "witness_checked": self.witness_checked,
        }


def build_instance(fm: FeatureMatrix, lambda_c: float, lambda_mc: float,
                   k_top: int = 3) -> Instance:
    """Derive the model instance: collinearity edges plus VIF conflicts,
    both from one :func:`pearson_matrix`."""
    corr = pearson_matrix(fm)
    return Instance(m=fm.m, edges=collinearity_graph(corr, lambda_c),
                    conflicts=_vif_screen(corr, fm.n, lambda_mc, k_top))


def select_features(fm: FeatureMatrix, lambda_c: float, lambda_mc: float,
                    k_top: int = 3, method: str = "exact",
                    seed: int = 0) -> SelectionReport:
    """Build the instance from the data and extract a nice feature subset.

    ``method`` is one of ``exact`` (branch and bound with the default node
    budget; raises :class:`BudgetError` when the budget runs out),
    ``greedy``, or ``randomized`` (seeded with ``seed``), run through
    :func:`~niceset.solvers.solve`, which raises unless the set is nice.
    """
    inst = build_instance(fm, lambda_c, lambda_mc, k_top)
    result = solve(inst, method, seed)
    return SelectionReport(selected=tuple(fm.names[v - 1] for v in sorted(result.vertices)),
                           method=method, lambda_c=float(lambda_c),
                           lambda_mc=float(lambda_mc), instance=inst)
