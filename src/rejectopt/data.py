"""Scored-dataset ingestion, stratified splitting, and synthetic generation.

A scored dataset is the output of any external scoring classifier: one
positive-class confidence score per example plus the binary ground-truth
label. Scores are consumed as-is; no scorer is trained here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NoReturn

import numpy as np

POSITIVE = 1
NEGATIVE = -1

_CSV_HEADER = "id,label,score"
# Scores are parsed in blocks that end at the first LF at or after this many
# characters, so the loader holds one block's cells at a time, not the file's.
_BLOCK_CHARS = 1 << 14


class ScoresCsvError(ValueError):
    """Raised when a scores CSV file violates the expected format."""


class ScoredDataset:
    """Labeled examples, each carrying a positive-class confidence score.

    Backed by parallel numpy arrays (``scores`` float64, ``labels`` +1/-1
    int64) in original row order. Every confusion count is a lookup in one
    cached table, :attr:`cut_table`. A dataset holds at least one example of
    each class: construction raises ``ValueError`` naming both class counts
    otherwise, so every model can divide by ``n_pos`` and ``n_neg``.
    """

    def __init__(self, scores: Iterable[float], labels: Iterable[int]):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.scores.ndim != 1 or self.scores.shape != self.labels.shape:
            raise ValueError("scores and labels must be 1-d arrays of equal length")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")
        if not np.all((self.labels == POSITIVE) | (self.labels == NEGATIVE)):
            raise ValueError("labels must be +1 or -1")
        self.n_pos = int(np.sum(self.labels == POSITIVE))
        self.n_neg = int(np.sum(self.labels == NEGATIVE))
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValueError(
                f"dataset must contain both classes (n_pos={self.n_pos}, n_neg={self.n_neg})"
            )

    def __len__(self) -> int:
        return self.scores.shape[0]

    @cached_property
    def cut_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(distinct, pos_le, neg_le)``: the distinct scores ascending, each the
        first of its run in ``np.sort`` order, and per k the positives and
        negatives below ``distinct[k]``, then the class totals. These count at
        or below candidate cut k, and at or below any threshold t for
        ``k = distinct.searchsorted(t, side="right")``."""
        s = np.sort(self.scores)
        below = np.append(np.flatnonzero(np.append(True, s[1:] != s[:-1])), s.size)
        distinct = s[below[:-1]]
        pos = np.sort(self.scores[self.labels == POSITIVE])
        pos_le = np.append(pos.searchsorted(distinct), self.n_pos)
        return distinct, pos_le, below - pos_le

    def score_range(self) -> tuple[float, float]:
        return float(self.scores.min()), float(self.scores.max())


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the shuffle seed."""

    train_frac: float
    valid_frac: float
    test_frac: float
    seed: int

    def __post_init__(self) -> None:
        for name in ("train_frac", "valid_frac", "test_frac"):
            f = getattr(self, name)
            if not 0.0 < f < 1.0:
                raise ValueError(f"{name} must be in (0,1), got {f}")
        if abs(self.train_frac + self.valid_frac + self.test_frac - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def load_scored_csv(path) -> ScoredDataset:
    """Read a scores CSV (header ``id,label,score``; label +1/-1) into a dataset.

    The file is UTF-8 with LF line endings and no quoting. The header line
    is exactly ``id,label,score``. Every data row has exactly three fields;
    the id is any text without a comma, the label is exactly ``+1`` or
    ``-1``, and the score is any finite value Python's ``float()`` accepts,
    including surrounding whitespace, underscores between digits and
    non-ASCII digits. So a CR before the LF is allowed on a data row (it is
    whitespace around the score) but not on the header. The final LF is
    optional. Row order is preserved. Malformed rows are reported by
    data-row number (the header line is not counted). A well-formed file
    that lacks a class, or has no rows, raises :class:`ScoredDataset`'s
    two-class ``ValueError``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    if text.partition("\n")[0] != _CSV_HEADER:
        raise ScoresCsvError(f"expected header '{_CSV_HEADER}' in {path}")
    # Shape and labels are checked on the bytes: no byte of a multi-byte
    # UTF-8 character equals ',' or LF, so byte positions split rows and
    # fields exactly as the text does.
    labels = _bulk_labels(np.frombuffer(raw, dtype=np.uint8)[len(_CSV_HEADER) + 1 :])
    del raw
    if labels is not None:
        scores = np.empty(labels.size)
        row, start = 0, len(_CSV_HEADER) + 1
        try:
            while start < len(text):
                end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
                # A block holds whole id,label,score rows, so its scores are
                # every third cell from the third on.
                cells = text[start:end].replace("\n", ",").split(",")[2::3]
                scores[row : row + len(cells)] = np.fromiter(
                    map(float, cells), dtype=np.float64, count=len(cells)
                )
                row, start = row + len(cells), end
        except ValueError:
            pass  # reported below with its row number
        else:
            if np.isfinite(scores).all():
                return ScoredDataset(scores, labels)
    _raise_first_bad_row(text)


def _bulk_labels(body: np.ndarray) -> np.ndarray | None:
    """Labels of ``body``'s rows, or None unless every row is ``id,±1,score``."""
    ends = np.flatnonzero(body == ord("\n"))
    if body.size and body[-1] != ord("\n"):
        ends = np.append(ends, body.size)  # last row without its LF
    commas = np.flatnonzero(body == ord(","))
    if commas.size != 2 * ends.size:
        return None
    first, second = commas[0::2], commas[1::2]
    # With two commas per row in all, every row holds exactly two iff the
    # k-th pair of commas lies in row k.
    if not ((second < ends).all() and (first[1:] > ends[:-1]).all()):
        return None
    if not (second - first == 3).all():
        return None
    sign, one = body[first + 1], body[first + 2]
    if not ((one == ord("1")) & ((sign == ord("+")) | (sign == ord("-")))).all():
        return None
    return np.where(sign == ord("+"), POSITIVE, NEGATIVE)


def _raise_first_bad_row(text: str) -> NoReturn:
    """Raise the error for the first malformed data row of the file ``text``."""
    lines = text.split("\n")[1:]
    if lines and lines[-1] == "":
        lines.pop()
    for rownum, line in enumerate(lines, start=1):
        fields = line.split(",")
        if len(fields) != 3:
            raise ScoresCsvError(f"malformed row at line {rownum}: expected 3 fields")
        if fields[1] not in ("+1", "-1"):
            raise ScoresCsvError(f"malformed row at line {rownum}: label must be +1 or -1")
        try:
            score = float(fields[2])
        except ValueError:
            raise ScoresCsvError(
                f"malformed row at line {rownum}: score is not a decimal literal"
            ) from None
        if not math.isfinite(score):
            raise ScoresCsvError(f"malformed row at line {rownum}: score is not finite")
    raise RuntimeError("the bulk row check failed on rows that all parse")


def write_scored_csv(data: ScoredDataset, path) -> None:
    """Write the canonical scores CSV: sequential 1-based ids, LF endings.

    Round-trips byte-for-byte with :func:`load_scored_csv` for files it
    produced (scores serialized via ``repr``).
    """
    lines = [_CSV_HEADER]
    rows = zip(data.scores.tolist(), data.labels.tolist())
    for i, (score, label) in enumerate(rows, start=1):
        label_s = "+1" if label == POSITIVE else "-1"
        lines.append(f"{i},{label_s},{score!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _allocate(n: int, fracs: tuple[float, float, float]) -> list[int]:
    # Largest-remainder rounding; remainder ties go to the earlier split.
    raw = [n * f for f in fracs]
    counts = [int(math.floor(r)) for r in raw]
    order = sorted(range(3), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in range(n - sum(counts)):
        counts[order[i]] += 1
    return counts


def stratified_split(
    data: ScoredDataset, spec: SplitSpec
) -> tuple[ScoredDataset, ScoredDataset, ScoredDataset]:
    """Split into train/valid/test preserving class proportions per split.

    Deterministic for a fixed seed; the three splits are disjoint and
    exhaustive. Raises if either class cannot place at least one example
    into every split.
    """
    if data.n_pos < 3 or data.n_neg < 3:
        raise ValueError("each class needs at least 3 examples to populate every split")
    fracs = (spec.train_frac, spec.valid_frac, spec.test_frac)
    rng = np.random.default_rng(spec.seed)
    split_idx: list[list[int]] = [[], [], []]
    # Positive indices are shuffled first, then negative; documented draw order.
    for label in (POSITIVE, NEGATIVE):
        idx = np.flatnonzero(data.labels == label)
        counts = _allocate(idx.size, fracs)
        if min(counts) < 1:
            raise ValueError(
                f"class {label:+d} too small to populate every split "
                f"(allocation {counts} from {idx.size} examples)"
            )
        perm = rng.permutation(idx)
        start = 0
        for k, c in enumerate(counts):
            split_idx[k].extend(perm[start : start + c].tolist())
            start += c
    out = []
    for idx_list in split_idx:
        idx_arr = np.sort(np.asarray(idx_list, dtype=np.int64))  # keep original row order
        out.append(ScoredDataset(data.scores[idx_arr], data.labels[idx_arr]))
    return out[0], out[1], out[2]


def synth_two_gaussian(
    n_pos: int,
    n_neg: int,
    mu_pos: float,
    mu_neg: float,
    sigma: float,
    seed: int,
) -> ScoredDataset:
    """Generate scores from two equal-variance Gaussians, one per class.

    Positives are drawn first (Normal(mu_pos, sigma)), then negatives;
    deterministic per seed. A desk-scale stand-in for a real scorer.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n_pos < 1 or n_neg < 1:
        raise ValueError("class counts must be at least 1")
    rng = np.random.default_rng(seed)
    pos = rng.normal(mu_pos, sigma, n_pos)
    neg = rng.normal(mu_neg, sigma, n_neg)
    scores = np.concatenate([pos, neg])
    labels = np.concatenate(
        [np.full(n_pos, POSITIVE, dtype=np.int64), np.full(n_neg, NEGATIVE, dtype=np.int64)]
    )
    return ScoredDataset(scores, labels)
