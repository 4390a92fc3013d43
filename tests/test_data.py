import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from rejectopt.cli import main
from rejectopt.data import (
    _BLOCK_CHARS,
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


def reference_load_scored_csv(path) -> ScoredDataset:
    """The row-by-row loader that ``load_scored_csv`` must agree with exactly."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "id,label,score":
        raise ScoresCsvError(f"expected header 'id,label,score' in {path}")
    scores: list[float] = []
    labels: list[int] = []
    for rownum, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != 3:
            raise ScoresCsvError(f"malformed row at line {rownum}: expected 3 fields")
        _, label_s, score_s = fields
        if label_s == "+1":
            labels.append(POSITIVE)
        elif label_s == "-1":
            labels.append(NEGATIVE)
        else:
            raise ScoresCsvError(f"malformed row at line {rownum}: label must be +1 or -1")
        try:
            score = float(score_s)
        except ValueError:
            raise ScoresCsvError(
                f"malformed row at line {rownum}: score is not a decimal literal"
            ) from None
        if not math.isfinite(score):
            raise ScoresCsvError(f"malformed row at line {rownum}: score is not finite")
        scores.append(score)
    return ScoredDataset(scores, labels)


def load_outcome(load, path):
    """Scores bits, labels and dtypes of a load, or its exception's type and message."""
    try:
        data = load(path)
    except ValueError as e:  # ScoresCsvError and UnicodeDecodeError
        return type(e), str(e)
    return data.scores.dtype, data.scores.tobytes(), data.labels.dtype, data.labels.tolist()


_ids = st.sampled_from(["1", "42", "", "x y", "\u00e9", "\r", "\u0661"])
_labels = st.sampled_from(["+1", "-1"])
_bad_labels = st.sampled_from(
    ["1", "+2", "*1", "", "+", "+1 ", "-1 ", "+10", "-1\r", " -1", "++1", "\u22121"]
)
_scores = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0.5", "-3", "1e-5", " 0.25 ", "0.5\r", "1_0", "\u00a00.5", "\u0661.\u0662"]),
)
_bad_scores = st.sampled_from([
    "", "abc", "nan", "-inf", "Infinity", "1e309", "-1e309", "1__0", "_1", "0x10", "1.5e",
    "0.5\x00", "\u0661\u066b\u0662", "0,5",
])
_rows = st.tuples(_ids, _labels, _scores).map(",".join)
_bad_rows = st.one_of(
    st.tuples(_ids, _bad_labels, _scores).map(",".join),
    st.tuples(_ids, _labels, _bad_scores).map(",".join),
    st.sampled_from(["", "1", "1,+1", "1,+1,0.5,x", ",,", ",,,", "1,+1,,"]),
    # two rows whose commas add up to two per row, each pair around a label
    st.sampled_from(["1,+1,2,-1,0.5\n3", "1\n2,+1,3,-1,0.5"]),
)


@st.composite
def scores_files(draw) -> bytes:
    """Scores-CSV bytes: mostly well formed, some with bad rows, headers or UTF-8."""
    rows = draw(st.lists(_rows, max_size=20))
    if rows and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            rows[draw(st.integers(0, len(rows) - 1))] = draw(_bad_rows)
    header = draw(st.sampled_from(
        ["id,label,score"] * 12 + ["\ufeffid,label,score", "id,label,score\r", "id,label", ""]
    ))
    end = draw(st.sampled_from(["\n", "", "\n\n"]))
    raw = ("\n".join([header, *rows]) + end).encode("utf-8")
    bad = draw(st.sampled_from([b""] * 12 + [b"\xff", b"\x80", b"\xc3", b"\xe2\x82"]))
    if bad:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + bad + raw[at:]
    return raw


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

    @seed(20261019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(raw=scores_files())
    @example(raw=b"id,label,score")
    @example(raw=b"id,label,score\n1,-1,0.5")
    @example(raw=b"id,label,score\n1,+1 ,0.5\n")
    @example(raw=b"id,label,score\n1,+1,nan\n")
    @example(raw=b"id,label,score\n1,*1,0.5\n")
    @example(raw=b"id,label,score\n1,-2,0.5\n")
    @example(raw=b"id,label,score\n1,+1,2,-1,0.5\n3\n")
    @example(raw=b"id,label,score\n1\n2,+1,3,-1,0.5\n")
    def test_matches_reference_loader(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(raw)
        assert load_outcome(load_scored_csv, path) == load_outcome(reference_load_scored_csv, path)


def multi_block_file(path, pad=0, edits=(), end="\n", crlf=False):
    """2 500 rows over several parse blocks: the first row's id is ``pad``
    characters long, ``edits`` maps row numbers to replacement rows, and the
    rows end in CR LF when ``crlf``. Row 7's id is two-byte UTF-8, so later
    character offsets differ from byte offsets."""
    rows = {i: f"{i},{'+1' if i % 3 else '-1'},{i / 7!r}" for i in range(1, 2501)}
    rows[1] = "x" * pad + ",-1,0.5"
    rows[7] = "\u00e9\u00e9,+1,0.25"
    rows.update(edits)
    text = "id,label,score\n" + ("\r\n" if crlf else "\n").join(rows.values()) + end
    assert len(text) > 3 * _BLOCK_CHARS
    path.write_bytes(text.encode("utf-8"))
    return path


class TestLoadScoredCsvInBlocks:
    """Files longer than one parse block load as the row-by-row reference does."""

    def test_every_alignment_of_a_crlf_row_at_a_block_edge(self, tmp_path):
        # a CRLF row is at most 28 characters, so padding the first id by 0..28
        # puts each character of the row that straddles an edge on the edge
        for pad in range(29):
            path = multi_block_file(tmp_path / f"pad{pad}.csv", pad=pad, crlf=True)
            outcome = load_outcome(load_scored_csv, path)
            assert outcome == load_outcome(reference_load_scored_csv, path)
            assert len(outcome[3]) == 2500

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({2400: "2400,+1"}, "line 2400: expected 3 fields"),
            ({2400: "2400,+1,abc"}, "line 2400: score is not a decimal literal"),
            ({2400: "2400,-1,inf"}, "line 2400: score is not finite"),
            ({2000: "2000,-1,1e309", 2400: "2400,+1"}, "line 2000: score is not finite"),
            ({2400: "2400,+1,\u0661.\u0662", 2401: "2401,-1,\u0663_\u0664"}, None),
        ],
        ids=["malformed", "not_a_literal", "not_finite", "first_bad_row", "non_ascii_digits"],
    )
    @pytest.mark.parametrize("end", ["\n", ""], ids=["final_lf", "no_final_lf"])
    def test_later_block_rows(self, tmp_path, edits, message, end):
        path = multi_block_file(tmp_path / "later.csv", edits=edits, end=end)
        outcome = load_outcome(load_scored_csv, path)
        assert outcome == load_outcome(reference_load_scored_csv, path)
        if message is None:
            assert load_scored_csv(path).scores[2399:2401].tolist() == [1.2, 34.0]
        else:
            assert outcome == (ScoresCsvError, f"malformed row at {message}")

    def test_memory_of_a_large_load(self, tmp_path):
        # the file's text and bytes, the row check's arrays and one block of
        # cells: about 10.4 MiB here, against 25.1 MiB when all cells were split at once
        path = tmp_path / "large.csv"
        write_scored_csv(synth_two_gaussian(50_000, 50_000, 1.0, -1.0, 1.0, seed=3), path)
        tracemalloc.start()
        try:
            data = load_scored_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) == 100_000
        assert peak <= 12 * 2**20


class TestBothClassesRequired:
    @pytest.mark.parametrize(
        "labels, counts",
        [([-1, -1, -1], "n_pos=0, n_neg=3"), ([1, 1], "n_pos=2, n_neg=0"), ([], "n_pos=0, n_neg=0")],
    )
    def test_construction_names_both_counts(self, labels, counts):
        with pytest.raises(ValueError) as raised:
            ScoredDataset([0.5] * len(labels), labels)
        assert str(raised.value) == f"dataset must contain both classes ({counts})"

    def test_loading_a_one_class_file(self, tmp_path):
        path = tmp_path / "one_class.csv"
        write_csv(path, [("+1", 0.5), ("+1", 0.25), ("+1", 0.75)])
        with pytest.raises(ValueError) as raised:
            load_scored_csv(path)
        assert str(raised.value) == "dataset must contain both classes (n_pos=3, n_neg=0)"


class TestScoresCsvThroughCli:
    ROWS = "1,+1,0.75\n2,-1,-0.5\n3,+1,0.25\n4,-1,0.125\n"

    def baseline(self, tmp_path, raw):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(raw)
        return main([
            "baseline", "--scores", str(scores), "--model", "ba", "--kmax", "0.5",
            "--out", str(tmp_path / "out"),
        ])

    def test_header_only_file(self, tmp_path, capsys):
        assert self.baseline(tmp_path, b"id,label,score\n") == 2
        assert "both classes (n_pos=0, n_neg=0)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_final_line_feed(self, tmp_path):
        with_lf, without_lf = tmp_path / "lf", tmp_path / "no_lf"
        with_lf.mkdir()
        without_lf.mkdir()
        body = "id,label,score\n" + self.ROWS
        assert self.baseline(with_lf, body.encode()) == 0
        assert self.baseline(without_lf, body[:-1].encode()) == 0
        result = (with_lf / "out" / "baseline.json").read_bytes()
        assert (without_lf / "out" / "baseline.json").read_bytes() == result
        assert len(json.loads(result)["solutions"]) == 1

    def test_extra_blank_last_line_is_row_n_plus_1(self, tmp_path, capsys):
        assert self.baseline(tmp_path, ("id,label,score\n" + self.ROWS + "\n").encode()) == 2
        err = capsys.readouterr().err
        assert "malformed row at line 5: expected 3 fields" in err
        assert not (tmp_path / "out").exists()

    def test_invalid_utf8_is_data_error(self, tmp_path, capsys):
        raw = ("id,label,score\n" + self.ROWS).encode().replace(b"0.25", b"0.2\xff")
        assert self.baseline(tmp_path, raw) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "utf-8" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


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
