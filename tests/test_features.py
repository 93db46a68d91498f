"""CSV ingestion, correlations, VIF, conflict sets, and end-to-end selection."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from niceset import (BudgetError, CsvError, FeatureMatrix, VIF_MAX, build_instance,
                     collinearity_graph, conflict_sets, features, is_nice, load_csv,
                     pearson_matrix, select_features, vif)
from niceset.features import _COEF_FLOOR, _fit_standardized

from .conftest import planted_block_matrix


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# Hadamard-style columns: exactly zero-mean and mutually orthogonal.
ORTHOGONAL = np.array([
    [+1, +1, +1], [+1, +1, -1], [+1, -1, +1], [+1, -1, -1],
    [-1, +1, +1], [-1, +1, -1], [-1, -1, +1], [-1, -1, -1],
], dtype=float)


# -------------------------------------------------------------------- loading

def test_load_csv_with_header(tmp_path):
    fm = load_csv(write(tmp_path, "a,b\n1,2\n2,4\n3,6\n4,8\n"))
    assert fm.names == ("a", "b")
    assert fm.n == 4 and fm.m == 2
    assert fm.column(2).tolist() == [2, 4, 6, 8]


def test_load_csv_headerless_names(tmp_path):
    fm = load_csv(write(tmp_path, "1,2,3\n4,5,6\n7,8,9\n"), has_header=False)
    assert fm.names == ("f1", "f2", "f3")


def test_load_csv_quoting_and_delimiter(tmp_path):
    fm = load_csv(write(tmp_path, '"x";"y"\n1;2\n3;4\n5;6\n'), delimiter=";")
    assert fm.names == ("x", "y")


def test_load_csv_ignores_blank_lines(tmp_path):
    fm = load_csv(write(tmp_path, "a,b\n1,2\n\n3,4\n5,6\n\n"))
    assert fm.n == 3


def test_load_csv_errors(tmp_path):
    with pytest.raises(CsvError, match="record 3"):
        load_csv(write(tmp_path, "a,b\n1,2\n3\n4,5\n"))
    with pytest.raises(CsvError) as info:
        load_csv(write(tmp_path, "a,b\n1,2\n3,x\n4,5\n"))
    assert info.value.record == 3 and info.value.column == "b"
    with pytest.raises(CsvError, match="at least 3 data rows"):
        load_csv(write(tmp_path, "a,b\n1,2\n3,4\n"))
    with pytest.raises(CsvError, match="non-finite"):
        load_csv(write(tmp_path, "a,b\n1,2\n3,inf\n4,5\n"))
    with pytest.raises(CsvError, match="empty"):
        load_csv(write(tmp_path, ""))


def test_feature_matrix_validation():
    with pytest.raises(ValueError):
        FeatureMatrix(names=("a",), data=np.ones((5, 1)))       # m < 2
    with pytest.raises(ValueError):
        FeatureMatrix(names=("a", "b"), data=np.ones((2, 2)))   # n < 3
    with pytest.raises(ValueError):
        FeatureMatrix(names=("a", "a"), data=np.ones((5, 2)))
    bad = np.ones((5, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        FeatureMatrix(names=("a", "b"), data=bad)


# --------------------------------------------------------------- correlations

def test_pearson_exact_relations():
    data = np.column_stack([[1, 2, 3], [2, 4, 6], [3, 2, 1]]).astype(float)
    corr = pearson_matrix(FeatureMatrix(names=("a", "b", "c"), data=data))
    assert corr[0, 1] == pytest.approx(1.0)
    assert corr[0, 2] == pytest.approx(-1.0)
    assert np.allclose(np.diag(corr), 1.0)


def test_pearson_rejects_constant_column():
    data = np.column_stack([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="constant"):
        pearson_matrix(FeatureMatrix(names=("a", "b"), data=data))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(5, 40), m=st.integers(2, 6))
def test_pearson_matrix_properties(seed, n, m):
    rng = np.random.default_rng(seed)
    fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(m)),
                       data=rng.normal(size=(n, m)))
    corr = pearson_matrix(fm)
    assert np.array_equal(corr, corr.T)
    assert np.all(np.abs(corr) <= 1.0 + 1e-12)
    assert np.allclose(np.diag(corr), 1.0)


def test_collinearity_graph_boundary_inclusive():
    corr = np.array([[1.0, 0.95, 0.9], [0.95, 1.0, 0.0], [0.9, 0.0, 1.0]])
    assert collinearity_graph(corr, 0.9) == frozenset({(1, 2), (1, 3)})
    assert collinearity_graph(np.eye(4), 0.5) == frozenset()
    with pytest.raises(ValueError):
        collinearity_graph(corr, 0.0)
    with pytest.raises(ValueError):
        collinearity_graph(corr, 1.5)


# ------------------------------------------------------------------------ VIF

def test_vif_orthogonal_is_one():
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    for j in (1, 2, 3):
        others = {1, 2, 3} - {j}
        assert vif(fm, j, others) == pytest.approx(1.0, abs=1e-9)


def test_vif_exact_collinearity_hits_cap():
    rng = np.random.default_rng(6)
    x1, x2 = rng.normal(size=100), rng.normal(size=100)
    dup = FeatureMatrix(names=("a", "b", "c"), data=np.column_stack([x1, x1, x2]))
    assert vif(dup, 1, {2}) == VIF_MAX
    summed = FeatureMatrix(names=("a", "b", "c"),
                           data=np.column_stack([x1, x2, x1 + x2]))
    assert vif(summed, 3, {1, 2}) == VIF_MAX


def test_vif_precondition_errors():
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    with pytest.raises(ValueError):
        vif(fm, 1, set())
    with pytest.raises(ValueError):
        vif(fm, 1, {1, 2})
    with pytest.raises(ValueError):
        vif(fm, 4, {1})
    with pytest.raises(ValueError):
        vif(fm, 1, {5})
    tiny = FeatureMatrix(names=("a", "b", "c"),
                         data=np.array([[1., 2., 3.], [2., 1., 5.], [3., 3., 4.]]))
    with pytest.raises(ValueError):  # n must exceed len(regressors) + 1
        vif(tiny, 1, {2, 3})


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), a=st.floats(-50, 50), b=st.floats(-100, 100))
def test_vif_invariant_under_affine_rescaling(seed, a, b):
    if abs(a) < 1e-3:
        return
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(40, 4))
    fm = FeatureMatrix(names=("a", "b", "c", "d"), data=data)
    scaled = data.copy()
    scaled[:, 2] = a * scaled[:, 2] + b
    fs = FeatureMatrix(names=("a", "b", "c", "d"), data=scaled)
    for j in range(1, 5):
        others = set(range(1, 5)) - {j}
        v0, v1 = vif(fm, j, others), vif(fs, j, others)
        assert v1 == pytest.approx(v0, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(8, 60), m=st.integers(3, 6))
def test_r_squared_stays_in_unit_interval(seed, n, m):
    rng = np.random.default_rng(seed)
    fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(m)),
                       data=rng.normal(size=(n, m)))
    for j in range(1, m + 1):
        value = vif(fm, j, set(range(1, m + 1)) - {j})
        assert value >= 1.0 - 1e-9


# -------------------------------------------------------------- conflict sets

def test_conflict_sets_orthogonal_all_empty():
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    assert all(not ts for ts in conflict_sets(fm, lambda_mc=5.0).values())


def test_conflict_sets_sum_example():
    rng = np.random.default_rng(5)
    x1, x2 = rng.normal(size=200), rng.normal(size=200)
    fm = FeatureMatrix(names=("x1", "x2", "x3"),
                       data=np.column_stack([x1, x2, x1 + x2]))
    family = conflict_sets(fm, lambda_mc=5.0, k_top=2)
    assert 3 in family[1] and 3 in family[2]
    assert {1, 2} <= family[3]


def test_conflict_sets_consistency_invariant():
    rng = np.random.default_rng(17)
    base = rng.normal(size=(120, 3))
    extra = base @ rng.normal(size=(3, 3)) + 0.05 * rng.normal(size=(120, 3))
    fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(6)),
                       data=np.column_stack([base, extra]))
    family = conflict_sets(fm, lambda_mc=2.0, k_top=2)
    assert any(ts for ts in family.values())
    for v, ts in family.items():
        assert v not in ts
        for u in ts:
            assert v in family[u]


def test_conflict_sets_validation():
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    with pytest.raises(ValueError):
        conflict_sets(fm, lambda_mc=1.0)
    with pytest.raises(ValueError):
        conflict_sets(fm, lambda_mc=5.0, k_top=0)


@pytest.mark.parametrize("n, m", [(10, 30), (30, 30)])
def test_conflict_sets_rejects_underdetermined(n, m):
    # with n <= m every feature fits the others perfectly, so the screen
    # would flag all of them; i.i.d. noise must not look multicollinear
    rng = np.random.default_rng(n)
    fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(m)), data=rng.normal(size=(n, m)))
    with pytest.raises(ValueError, match=f"need n > {m} observations, got {n}"):
        conflict_sets(fm, lambda_mc=5.0)
    with pytest.raises(ValueError, match="need n >"):
        select_features(fm, lambda_c=0.9, lambda_mc=5.0, method="greedy")


def reference_conflict_sets(fm: FeatureMatrix, lambda_mc: float,
                            k_top: int = 3) -> dict[int, frozenset[int]]:
    """Reference: one ridge regression per feature on all the others."""
    raw: dict[int, set[int]] = {v: set() for v in range(1, fm.m + 1)}
    for v in range(1, fm.m + 1):
        others = tuple(u for u in range(1, fm.m + 1) if u != v)
        r2, coef = _fit_standardized(fm, v, others)
        factor = VIF_MAX if r2 >= 1.0 - 1e-12 else min(1.0 / (1.0 - r2), VIF_MAX)
        if factor > lambda_mc:
            magnitudes = np.abs(coef)
            floor = max(_COEF_FLOOR, 0.01 * float(magnitudes.max(initial=0.0)))
            ranked = sorted(((u, c) for u, c in zip(others, magnitudes) if c > floor),
                            key=lambda t: (-t[1], t[0]))
            raw[v] = {u for u, _ in ranked[:k_top]}
    for v in range(1, fm.m + 1):
        for u in raw[v].copy():
            raw[u].add(v)
    return {v: frozenset(raw[v]) for v in range(1, fm.m + 1)}


def _collinear_case(kind: str) -> FeatureMatrix:
    rng = np.random.default_rng(11)
    x1, x2, x3 = rng.normal(size=(3, 200))
    columns = {
        "duplicate": [x1, x1, x2, x3],
        "sum": [x1, x2, x3, x1 + x2],
        # VIF of the last column is about 2e10: below the cap, above 1e9
        "near-collinear": [x1, x2, x3, x1 + x2 + 1e-5 * rng.normal(size=200)],
    }[kind]
    return FeatureMatrix(names=("a", "b", "c", "d"), data=np.column_stack(columns))


@pytest.mark.parametrize("lambda_mc", [5.0, 1e9, 1e11])
@pytest.mark.parametrize("kind", ["duplicate", "sum", "near-collinear"])
def test_conflict_sets_match_reference_on_collinear_designs(kind, lambda_mc):
    fm = _collinear_case(kind)
    family = conflict_sets(fm, lambda_mc=lambda_mc, k_top=2)
    assert family == reference_conflict_sets(fm, lambda_mc=lambda_mc, k_top=2)
    # exact collinearity reaches the VIF_MAX cap, which clears even 1e11
    assert any(family.values()) == (kind != "near-collinear" or lambda_mc < 1e10)


def test_conflict_sets_match_reference_on_planted_blocks():
    fm = planted_block_matrix()
    for lambda_mc in (2.0, 5.0, 50.0):
        for k_top in (1, 3):
            family = conflict_sets(fm, lambda_mc=lambda_mc, k_top=k_top)
            assert family == reference_conflict_sets(fm, lambda_mc=lambda_mc, k_top=k_top)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), m=st.integers(2, 10), extra=st.integers(5, 60),
       mixing=st.floats(0.0, 3.0), lambda_mc=st.floats(1.5, 50.0), k_top=st.integers(1, 4))
def test_conflict_sets_match_reference_on_well_conditioned_designs(seed, m, extra, mixing,
                                                                   lambda_mc, k_top):
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(m + extra, m))
    data = latent + mixing * latent @ (rng.normal(size=(m, m)) * (rng.random((m, m)) < 0.3))
    fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(m)), data=data)
    assume(np.linalg.cond(pearson_matrix(fm)) < 1e6)
    assert conflict_sets(fm, lambda_mc, k_top) == reference_conflict_sets(fm, lambda_mc, k_top)


# ------------------------------------------------------------------ selection

def test_select_duplicate_feature_keeps_one(tmp_path):
    rng = np.random.default_rng(9)
    a = rng.normal(size=50)
    c = rng.normal(size=50)
    fm = FeatureMatrix(names=("a", "b", "c"), data=np.column_stack([a, a, c]))
    report = select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="exact")
    assert len({"a", "b"} & set(report.selected)) == 1
    assert "c" in report.selected
    assert report.witness_checked


def test_select_orthogonal_design_keeps_everything():
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    for method in ("exact", "greedy", "randomized"):
        report = select_features(fm, lambda_c=0.8, lambda_mc=5.0, method=method, seed=1)
        assert set(report.selected) == {"a", "b", "c"}
        assert report.method == method


def test_select_planted_blocks_small():
    fm = planted_block_matrix(n=200, n_blocks=2, block_size=3, n_indep=3, seed=77)
    report = select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="exact")
    chosen = set(report.selected)
    for b in range(2):
        assert sum(1 for i in range(3) if f"block{b}_{i}" in chosen) <= 1
    assert {"indep0", "indep1", "indep2"} <= chosen
    # deterministic: the derived instance and the selection repeat exactly
    again = select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="exact")
    assert report == again


def test_select_reports_instance_facts():
    fm = planted_block_matrix(n=150, n_blocks=1, block_size=3, n_indep=2, seed=3)
    inst = build_instance(fm, lambda_c=0.8, lambda_mc=5.0)
    report = select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="greedy")
    assert report.edge_count == len(inst.edges)
    assert report.conflict_max == max(len(ts) for ts in inst.conflicts.values())
    selected_vertices = {fm.names.index(name) + 1 for name in report.selected}
    assert is_nice(selected_vertices, inst)
    payload = report.to_dict()
    assert set(payload) == {"selected", "method", "lambda_c", "lambda_mc",
                            "edge_count", "conflict_stats", "witness_checked"}
    assert set(payload["conflict_stats"]) == {"max", "mean"}


def test_select_witness_check_rejects_non_nice_answer(monkeypatch):
    monkeypatch.setattr(features, "is_nice", lambda s, inst: False)
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    with pytest.raises(RuntimeError, match="non-nice"):
        select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="greedy")


def test_select_exact_budget_guard():
    rng = np.random.default_rng(0)
    fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(61)),
                       data=rng.normal(size=(70, 61)))
    with pytest.raises(BudgetError, match="greedy"):
        select_features(fm, lambda_c=0.9, lambda_mc=10.0, method="exact")
    with pytest.raises(ValueError):
        select_features(fm, lambda_c=0.9, lambda_mc=10.0, method="bogus")
