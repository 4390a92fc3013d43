import numpy as np
import pytest

from rejectopt.data import (
    NEGATIVE,
    POSITIVE,
    ScoredDataset,
    ScoresCsvError,
    SplitSpec,
    load_scored_csv,
    stratified_split,
    synth_two_gaussian,
    write_scored_csv,
)


def write_csv(path, rows):
    path.write_text("id,label,score\n" + "".join(f"{i},{l},{s}\n" for i, (l, s) in enumerate(rows, 1)))


class TestLoadScoredCsv:
    def test_basic_parse(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, [("+1", "0.9"), ("-1", "0.1")])
        data = load_scored_csv(f)
        assert data.n_pos == 1 and data.n_neg == 1
        assert data.scores.tolist() == [0.9, 0.1]
        assert data.labels.tolist() == [POSITIVE, NEGATIVE]

    def test_row_order_preserved(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, [("-1", "0.3"), ("+1", "0.2"), ("-1", "0.7")])
        data = load_scored_csv(f)
        assert list(data.scores) == [0.3, 0.2, 0.7]
        assert list(data.labels) == [NEGATIVE, POSITIVE, NEGATIVE]

    def test_malformed_score_names_line_1(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, [("+1", "abc")])
        with pytest.raises(ScoresCsvError, match="line 1"):
            load_scored_csv(f)

    def test_malformed_row_line_number(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("id,label,score\n1,+1,0.5\n2,+1\n")
        with pytest.raises(ScoresCsvError, match="line 2"):
            load_scored_csv(f)

    def test_bad_label(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, [("2", "0.5")])
        with pytest.raises(ScoresCsvError, match="label"):
            load_scored_csv(f)

    def test_nonfinite_score(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, [("+1", "inf")])
        with pytest.raises(ScoresCsvError, match="finite"):
            load_scored_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scored_csv(tmp_path / "nope.csv")

    def test_missing_header(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1,+1,0.5\n")
        with pytest.raises(ScoresCsvError, match="header"):
            load_scored_csv(f)

    def test_pima_shaped_counts(self, tmp_path):
        # 768 rows of which 268 are positive
        rows = [("+1", f"{0.5 + i * 1e-3}") for i in range(268)]
        rows += [("-1", f"{-0.5 - i * 1e-3}") for i in range(500)]
        f = tmp_path / "pima_shape.csv"
        write_csv(f, rows)
        data = load_scored_csv(f)
        assert data.n_pos == 268 and data.n_neg == 500 and len(data) == 768

    def test_round_trip_byte_identical(self, tmp_path):
        data = synth_two_gaussian(17, 23, 0.8, -0.3, 0.7, seed=5)
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        write_scored_csv(data, f1)
        write_scored_csv(load_scored_csv(f1), f2)
        assert f1.read_bytes() == f2.read_bytes()


class TestStratifiedSplit:
    def test_exact_fractions(self):
        data = synth_two_gaussian(50, 50, 1.0, -1.0, 1.0, seed=0)
        spec = SplitSpec(0.6, 0.2, 0.2, seed=7)
        train, valid, test = stratified_split(data, spec)
        assert (len(train), len(valid), len(test)) == (60, 20, 20)
        assert (train.n_pos, valid.n_pos, test.n_pos) == (30, 10, 10)

    def test_deterministic(self):
        data = synth_two_gaussian(40, 60, 1.0, -1.0, 1.0, seed=3)
        spec = SplitSpec(0.6, 0.2, 0.2, seed=7)
        a = stratified_split(data, spec)
        b = stratified_split(data, spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.scores, y.scores)
            assert np.array_equal(x.labels, y.labels)

    def test_small_balanced(self):
        data = synth_two_gaussian(5, 5, 1.0, -1.0, 1.0, seed=1)
        train, valid, test = stratified_split(data, SplitSpec(0.6, 0.2, 0.2, seed=0))
        assert (len(train), len(valid), len(test)) == (6, 2, 2)
        for part in (train, valid, test):
            assert part.n_pos >= 1 and part.n_neg >= 1
        assert (train.n_pos, valid.n_pos, test.n_pos) == (3, 1, 1)

    def test_union_is_input_multiset(self):
        rng = np.random.default_rng(11)
        for seed in range(8):
            n_pos = int(rng.integers(5, 40))
            n_neg = int(rng.integers(5, 40))
            data = synth_two_gaussian(n_pos, n_neg, 1.0, -1.0, 1.0, seed=seed)
            fr = rng.dirichlet([4, 4, 4])
            fr = fr * 0.8 + np.array([0.1, 0.05, 0.05])  # keep every fraction workable
            fr = fr / fr.sum()
            parts = stratified_split(data, SplitSpec(fr[0], fr[1], fr[2], seed=seed))
            combined = sorted(
                ex for part in parts for ex in zip(part.scores.tolist(), part.labels.tolist())
            )
            original = sorted(zip(data.scores.tolist(), data.labels.tolist()))
            assert combined == original

    def test_proportions_within_one_example(self):
        data = synth_two_gaussian(37, 91, 1.0, -1.0, 1.0, seed=2)
        parts = stratified_split(data, SplitSpec(0.5, 0.3, 0.2, seed=5))
        for part, frac in zip(parts, (0.5, 0.3, 0.2)):
            assert abs(part.n_pos - 37 * frac) <= 1
            assert abs(part.n_neg - 91 * frac) <= 1

    def test_class_too_small(self):
        data = ScoredDataset([0.1, 0.2, 0.9, 0.8, 0.7], [1, 1, -1, -1, -1])
        with pytest.raises(ValueError, match="at least 3"):
            stratified_split(data, SplitSpec(0.6, 0.2, 0.2, seed=0))

    def test_split_cell_would_be_empty(self):
        data = synth_two_gaussian(3, 100, 1.0, -1.0, 1.0, seed=0)
        with pytest.raises(ValueError, match="too small"):
            stratified_split(data, SplitSpec(0.9, 0.05, 0.05, seed=0))

    def test_fraction_sum_checked(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SplitSpec(0.6, 0.2, 0.1, seed=0)


class TestSynthTwoGaussian:
    def test_sample_mean_near_parameter(self):
        data = synth_two_gaussian(100, 100, 1.0, -1.0, 0.5, seed=1)
        pos_mean = data.scores[data.labels == POSITIVE].mean()
        assert abs(pos_mean - 1.0) < 0.2

    def test_counts(self):
        data = synth_two_gaussian(1, 1, 0.0, 0.0, 1.0, seed=1)
        assert data.n_pos == 1 and data.n_neg == 1

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            synth_two_gaussian(10, 10, 1.0, -1.0, 0.0, seed=1)

    def test_deterministic(self):
        a = synth_two_gaussian(20, 20, 1.0, -1.0, 1.0, seed=9)
        b = synth_two_gaussian(20, 20, 1.0, -1.0, 1.0, seed=9)
        assert np.array_equal(a.scores, b.scores)
