import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefret import retrieval
from beliefret.errors import ConfigError, DegenerateInputError, InputError
from beliefret.retrieval import (
    RecallReport,
    RetrievalTable,
    mean_recall,
    recall_at_k,
    similarity_matrix,
)
from beliefret.rng import child


def random_table(rng, max_images=10, captions_per_image=None, min_images=2):
    n_img = int(rng.integers(min_images, max_images + 1))
    cpi = captions_per_image or int(rng.integers(1, 6))
    sim = rng.normal(size=(n_img, n_img * cpi))
    if rng.random() < 0.3:  # tie-heavy variant
        sim = np.round(sim, 1)
    return RetrievalTable(sim, np.repeat(np.arange(n_img), cpi))


def ragged_table(rng, max_images=12):
    """Unequal, interleaved caption sets per image and heavily tied similarities."""
    n_img = int(rng.integers(2, max_images + 1))
    owner = np.concatenate([np.arange(n_img), rng.integers(0, n_img, size=int(rng.integers(0, 4 * n_img)))])
    owner = rng.permutation(owner)
    sim = np.round(rng.normal(size=(n_img, owner.size)), int(rng.integers(0, 2)))
    return RetrievalTable(sim, owner)


def oracle_recalls(table, direction):
    """Exhaustive reference for every K: full sort of each row/column, then a scan of the top K."""
    n_img, n_txt = table.sim.shape
    hits = []
    if direction == "i2t":
        for i in range(n_img):
            order = sorted(range(n_txt), key=lambda j: (-table.sim[i, j], j))
            hits.append([i in table.owner[order[:k]] for k in range(1, n_txt + 1)])
    else:
        for j in range(n_txt):
            order = sorted(range(n_img), key=lambda i: (-table.sim[i, j], i))
            hits.append([table.owner[j] in order[:k] for k in range(1, n_img + 1)])
    return [100.0 * sum(column) / len(hits) for column in zip(*hits)]


def oracle_recall(table, k, direction):
    return oracle_recalls(table, direction)[k - 1]


# -- similarity matrix ------------------------------------------------------------


def test_similarity_identical_unit_rows():
    v = np.tile([1.0, 0.0], (3, 1))
    npt.assert_allclose(similarity_matrix(v, v), np.ones((3, 3)))


def test_similarity_orthonormal_rows_identity():
    v = np.eye(4)
    npt.assert_allclose(similarity_matrix(v, v), np.eye(4))


def test_similarity_hand_case():
    out = similarity_matrix(np.array([[3.0, 4.0]]), np.array([[4.0, 3.0]]))
    npt.assert_allclose(out, [[24.0 / 25.0]])


def test_similarity_zero_norm_rejected():
    with pytest.raises(DegenerateInputError):
        similarity_matrix(np.zeros((1, 2)), np.ones((1, 2)))


def test_similarity_range():
    rng = child(0, "simrange")
    out = similarity_matrix(rng.normal(size=(5, 4)), rng.normal(size=(7, 4)))
    assert (out <= 1.0 + 1e-12).all() and (out >= -1.0 - 1e-12).all()


# -- recall@K -----------------------------------------------------------------------


def diag_table():
    sim = np.array([[0.9, 0.1], [0.2, 0.8]])
    return RetrievalTable(sim, [0, 1])


def test_recall_separable_diagonal():
    table = diag_table()
    assert recall_at_k(table, 1, "i2t") == 100.0
    assert recall_at_k(table, 1, "t2i") == 100.0


def test_recall_anti_diagonal_truth():
    sim = np.array([[0.9, 0.1], [0.2, 0.8]])
    table = RetrievalTable(sim, [1, 0])
    assert recall_at_k(table, 1, "i2t") == 0.0
    assert recall_at_k(table, 2, "i2t") == 100.0
    assert recall_at_k(table, 1, "t2i") == 0.0
    assert recall_at_k(table, 2, "t2i") == 100.0


def test_recall_single_image_all_captions_match():
    sim = child(1, "single").normal(size=(1, 5))
    table = RetrievalTable(sim, [0] * 5)
    assert recall_at_k(table, 1, "i2t") == 100.0


def test_recall_k_validation():
    table = diag_table()
    with pytest.raises(ConfigError):
        recall_at_k(table, 0, "i2t")
    with pytest.raises(ConfigError):
        recall_at_k(table, 3, "t2i")
    with pytest.raises(ConfigError):
        recall_at_k(table, 1, "sideways")


def test_recall_matches_exhaustive_oracle():
    for seed in range(500):
        rng = child(seed, "recall-oracle")
        table = random_table(rng)
        k = int(rng.integers(1, min(table.sim.shape) + 1))
        for direction in ("i2t", "t2i"):
            got = recall_at_k(table, k, direction)
            want = oracle_recall(table, k, direction)
            assert got == want, f"seed {seed} {direction} K={k}: {got} vs {want}"


def test_recall_ragged_ownership_every_k_matches_oracle():
    for seed in range(400):
        table = ragged_table(child(seed, "recall-ragged"))
        want = {d: oracle_recalls(table, d) for d in ("i2t", "t2i")}
        for direction, values in want.items():
            got = [recall_at_k(table, k, direction) for k in range(1, len(values) + 1)]
            assert got == values, f"seed {seed} {direction}: {got} vs {values}"
        if min(table.sim.shape) >= 10:
            report = list(RecallReport.from_table(table).to_dict().values())
            assert report[:6] == [want[d][k - 1] for d in want for k in (1, 5, 10)], f"seed {seed}"


def test_recall_monotone_in_k():
    for seed in range(50):
        rng = child(seed, "recall-mono")
        table = random_table(rng)
        for direction in ("i2t", "t2i"):
            limit = table.sim.shape[1] if direction == "i2t" else table.sim.shape[0]
            values = [recall_at_k(table, k, direction) for k in range(1, limit + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))


def test_recall_invariant_under_monotone_transform():
    for seed in range(50):
        rng = child(seed, "recall-inv")
        table = random_table(rng)
        transformed = RetrievalTable(np.exp(table.sim * 2.0) + 3.0, table.owner)
        for direction in ("i2t", "t2i"):
            assert recall_at_k(table, 2, direction) == recall_at_k(transformed, 2, direction)


def test_table_validation():
    # the finiteness check goes a block of rows at a time: a NaN in the last row
    # of a table spanning several blocks must be found too
    n_img = 3 * retrieval._RANK_BLOCK + 5
    nan_last = np.ones((n_img, 2 * n_img))
    nan_last[-1, -1] = np.nan
    cases = [  # (sim, owner, expected message)
        (np.ones((2, 3)), [0, 1], r"shape \(3,\)"),  # wrong length
        (np.ones((2, 3)), [0.0, 1.0, 1.0], "integer image indices"),  # non-integer dtype
        (np.ones((2, 3)), [0, 2, -1], r"caption 1 has image index 2 outside \[0, 2\)"),
        (np.ones((3, 3)), [0, 2, 2], "image 1 has no ground-truth captions"),
        (np.array([[np.nan, 1.0], [0.0, 1.0]]), [0, 1], "non-finite"),
        (nan_last, np.repeat(np.arange(n_img), 2), "non-finite"),
    ]
    for sim, owner, message in cases:
        with pytest.raises(InputError, match=message):
            RetrievalTable(sim, owner)


# -- mean recall -----------------------------------------------------------------------


def test_mean_recall_published_row():
    # six recall percentages whose mean is reported as 39.25
    values = [18.36, 42.04, 55.53, 13.36, 44.47, 61.73]
    assert abs(mean_recall(values) - 39.25) <= 0.005


def test_mean_recall_extremes():
    assert mean_recall([0.0] * 6) == 0.0
    assert mean_recall([100.0] * 6) == 100.0
    with pytest.raises(InputError):
        mean_recall([1.0, 2.0])


# -- recall report ------------------------------------------------------------------------


def test_report_from_table_and_round_trip():
    rng = child(2, "report")
    # R@10 needs at least ten candidates in each direction
    table = random_table(rng, max_images=15, captions_per_image=3, min_images=10)
    report = RecallReport.from_table(table)
    assert report.i2t_r1 <= report.i2t_r5 <= report.i2t_r10
    assert report.t2i_r1 <= report.t2i_r5 <= report.t2i_r10
    data = report.to_dict()
    assert list(data) == ["i2t_r1", "i2t_r5", "i2t_r10", "t2i_r1", "t2i_r5", "t2i_r10", "mr"]
    assert RecallReport(**data) == report


def test_report_rejects_inconsistent_values():
    with pytest.raises(InputError):
        RecallReport(50.0, 40.0, 60.0, 10.0, 20.0, 30.0, 35.0)
    with pytest.raises(InputError):
        RecallReport(50.0, 60.0, 120.0, 10.0, 20.0, 30.0, 48.3)


@st.composite
def ragged_rounded_tables(draw):
    """Unequal, interleaved caption sets per image; similarities on a half-step grid
    (ties are common) or rounded to one decimal."""
    n_img = draw(st.integers(2, 8))
    extra = draw(st.lists(st.integers(0, n_img - 1), max_size=3 * n_img))
    owner = draw(st.permutations(list(range(n_img)) + extra))
    value = st.one_of(
        st.integers(-4, 4).map(lambda v: v / 2.0),
        st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),
    )
    sim = np.array(draw(st.lists(value, min_size=n_img * len(owner), max_size=n_img * len(owner))))
    return RetrievalTable(sim.reshape(n_img, len(owner)), np.array(owner))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ragged_rounded_tables())
def test_property_recall_every_k_matches_sort_oracle(table):
    for direction in ("i2t", "t2i"):
        want = oracle_recalls(table, direction)
        got = [recall_at_k(table, k, direction) for k in range(1, len(want) + 1)]
        assert got == want, direction
