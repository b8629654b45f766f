"""Datasets as validated columns, plus line-delimited file I/O.

A `Dataset` is built one way: from its `Columns` (ids, features, labels and
the two oracle columns), validated once. `synth.generate` and `load_dataset`
write each sample's values straight into its columns, with no Python object
per sample; `Sample` is only the row type of `Dataset.samples`.

A dataset file is line-delimited JSON. The first line is a header
{"format": "sciu-dataset", "n_classes": K, "dim": d}; every following line
is one sample record {"id", "features", "label", "true_label"?,
"quality_flag"?}. Floats are written with 17 significant digits, and a
negative zero as -0.0, so that save -> load -> save is byte-stable.

`true_label` and `quality_flag` are oracle fields for evaluation only.
Training code must never read them; they are only reachable through
`Dataset.oracle_columns`, whose readers are `metrics.pruning_quality`,
`metrics.correction_quality`, the true-label test metrics of
`pipeline.run_pipeline` and the summary of `sciu generate`.
"""

from __future__ import annotations

import hashlib
import json
import array
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import NumericError, ParseError, ValidationError

QUALITY_CLEAN = "clean"
QUALITY_LOW = "low_quality"
# Codes of the quality column; -1 marks a sample without a quality flag.
QUALITY_CODES = {None: -1, QUALITY_CLEAN: 0, QUALITY_LOW: 1}
# Rows that `Dataset._records` turns into Python values at once.
_BLOCK = 256


@dataclass(frozen=True)
class Sample:
    """One row of `Dataset.samples`, with None for an absent oracle field."""
    id: int
    features: np.ndarray
    label: int
    true_label: Optional[int] = None
    quality_flag: Optional[str] = None


@dataclass(frozen=True)
class CorrectionEvent:
    sample_id: int
    old_label: int
    new_label: int
    epoch: int

    def __post_init__(self):
        if self.old_label == self.new_label:
            raise ValidationError(
                f"correction for sample {self.sample_id} does not change the label"
            )


class Columns(NamedTuple):
    """The per-sample columns of a dataset, one entry per `Sample` field."""
    ids: np.ndarray  # int64
    features: np.ndarray  # (n, dim) float64
    labels: np.ndarray  # int64
    true_labels: np.ndarray  # int64, -1 where absent
    quality: np.ndarray  # int8 `QUALITY_CODES`, -1 where absent


_DTYPES = Columns(np.int64, np.float64, np.int64, np.int64, np.int8)
_QUALITY_NAMES = {code: name for name, code in QUALITY_CODES.items()}
_scan = json.JSONDecoder().scan_once  # json.loads' scanner: same settings, no wrappers


def _check_record(sid, label, true_label, flag, shape: tuple, dim: int) -> None:
    """Raise `ValidationError` for the first of a loaded record's values that its column
    could not hold as given, in the order id, label, true_label, quality_flag, feature
    shape: an id, label or true_label not of type `int` (JSON's exact type; an int64 column
    would truncate 0.5 to 0), a true_label of -1 (which the column reads as absent), a
    quality flag with no code and a feature vector of the wrong shape. Value ranges are
    left to `Dataset.validate`."""
    if type(sid) is not int:
        raise ValidationError(f"sample id {sid!r} is not an integer")
    if type(label) is not int:
        raise ValidationError(f"sample {sid}: label {label!r} is not an integer")
    if true_label is not None and (type(true_label) is not int or true_label == -1):
        raise ValidationError(f"sample {sid}: true_label {true_label!r} is not a class index")
    if not isinstance(flag, (str, type(None))) or flag not in QUALITY_CODES:
        raise ValidationError(f"sample {sid}: unknown quality_flag {flag!r}")
    if shape != (dim,):
        raise ValidationError(f"sample {sid}: feature dim {shape} != ({dim},)")


class Dataset:
    """Samples stored as read-only `Columns`: ids (n,), features (n, dim),
    labels (n,) and the two oracle columns (-1 where a sample has no oracle
    value).

    Built one way: from numpy `Columns`, given in order or by name, which it
    takes over, makes read-only and validates once. `subset` and
    `stratified_split` gather from columns that are already valid, and
    `with_labels` range-checks only the labels it writes, by position. The
    accessors return the columns without copying.
    """

    def __init__(self, *columns: np.ndarray, n_classes: int, dim: int, **named: np.ndarray):
        given = Columns(*columns, **named)
        loose = [name for name, c in given._asdict().items() if not isinstance(c, np.ndarray)]
        if loose:
            raise ValidationError(f"columns not given as numpy arrays: {', '.join(loose)}")
        self._set(n_classes, dim, given)
        self.validate()

    def _set(self, n_classes: int, dim: int, columns: Columns) -> None:
        for column in columns:
            column.flags.writeable = False
        self.n_classes, self.dim = n_classes, dim
        self._cols = columns
        self.id_array = columns.ids

    def _derive(self, **changed) -> "Dataset":
        """This dataset with the `changed` columns replaced (no validation)."""
        out = object.__new__(Dataset)
        out._set(self.n_classes, self.dim, self._cols._replace(**changed))
        return out

    def _take(self, index: np.ndarray) -> "Dataset":
        return self._derive(**{name: c[index] for name, c in self._cols._asdict().items()})

    def validate(self) -> None:
        """Column dtypes and shapes, distinct ids, labels in [0, n_classes),
        true labels in [-1, n_classes), quality codes in `QUALITY_CODES` and
        finite features."""
        c, k = self._cols, self.n_classes
        n = len(c.ids)
        layout = [(col.dtype, col.shape) for col in c]
        if layout != list(zip(_DTYPES, Columns((n,), (n, self.dim), (n,), (n,), (n,)))):
            raise ValidationError(f"column dtypes and shapes {layout} do not match")
        _, first = np.unique(c.ids, return_index=True)
        if len(first) < n:
            repeat = np.ones(n, dtype=bool)
            repeat[first] = False
            raise ValidationError(f"duplicate sample id {c.ids[repeat.argmax()]}")
        for name, column, bad, rule in (
            ("label", c.labels, (c.labels < 0) | (c.labels >= k), f"out of range [0, {k})"),
            ("true_label", c.true_labels, (c.true_labels < -1) | (c.true_labels >= k),
             "out of range"),
            ("quality code", c.quality, ~np.isin(c.quality, list(_QUALITY_NAMES)),
             f"not in {sorted(_QUALITY_NAMES)}"),
        ):
            if bad.any():
                i = bad.argmax()
                raise ValidationError(f"sample {c.ids[i]}: {name} {column[i]} {rule}")
        bad = ~np.isfinite(c.features).all(axis=1)
        if bad.any():
            raise ValidationError(f"sample {c.ids[bad.argmax()]}: non-finite features")

    def check_finite(self, values: np.ndarray, what: str, epoch: int) -> None:
        """Raise NumericError naming the samples whose `values`, one entry or row a
        sample in dataset order, are not all finite."""
        bad = ~np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
        if bad.any():
            raise NumericError(f"non-finite {what} at epoch {epoch}: {int(bad.sum())} samples, "
                               f"first sample ids {self.id_array[bad][:5].tolist()}")

    def __len__(self) -> int:
        return len(self.id_array)

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, n_classes={self.n_classes}, dim={self.dim})"

    @property
    def ids(self) -> list[int]:
        return self.id_array.tolist()

    def _records(self) -> Iterator[tuple]:
        """Each sample's record as `load_dataset` reads it from a line: Python values,
        features as a list, None for an absent oracle field."""
        for start in range(0, len(self), _BLOCK):
            block = (c[start:start + _BLOCK].tolist() for c in self._cols)
            for sid, features, label, true_label, code in zip(*block):
                true_label = None if true_label < 0 else true_label
                yield sid, features, label, true_label, _QUALITY_NAMES[code]

    @property
    def samples(self) -> list[Sample]:
        """The rows as `Sample`s, built on each access."""
        return [Sample(sid, np.array(features), *rest)
                for sid, features, *rest in self._records()]

    def features_matrix(self) -> np.ndarray:
        return self._cols.features

    def labels(self) -> np.ndarray:
        return self._cols.labels

    def fingerprint(self) -> str:
        """sha256 of what training reads: n_classes, dim, ids, labels and
        features. The oracle columns are left out; training never reads
        them."""
        h = hashlib.sha256(f"{self.n_classes},{self.dim},{len(self)};".encode())
        for column in (self.id_array, self._cols.labels, self._cols.features):
            h.update(np.ascontiguousarray(column))
        return h.hexdigest()

    def subset(self, keep_ids: Iterable[int]) -> "Dataset":
        """The samples whose id is in `keep_ids`, in this dataset's order."""
        ids = keep_ids if isinstance(keep_ids, np.ndarray) else np.fromiter(keep_ids, np.int64)
        return self._take(np.flatnonzero(np.isin(self.id_array, ids)))

    def with_labels(self, rows: np.ndarray, labels: np.ndarray) -> "Dataset":
        """New dataset with the labels at positions `rows` replaced by
        `labels`, whole numbers in [0, n_classes)."""
        labels = np.asarray(labels)
        bad = (labels < 0) | (labels >= self.n_classes) | (labels % 1 != 0)
        if bad.any():
            i = bad.argmax()
            raise ValidationError(f"sample {self.id_array[rows][i]}: label {labels[i]} "
                                  f"out of range [0, {self.n_classes})")
        new = self._cols.labels.copy()
        new[rows] = labels
        return self._derive(labels=new)

    def without_oracle_fields(self) -> "Dataset":
        absent = np.full(len(self), -1, dtype=np.int64)
        return self._derive(true_labels=absent, quality=absent.astype(np.int8))

    def oracle_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(true labels, quality codes), aligned with `id_array`; -1 marks
        an absent value. Evaluation only, never read on a training path."""
        return self._cols.true_labels, self._cols.quality


def save_dataset(dataset: Dataset, path) -> None:
    """Write `dataset` to `path`, a record a write. Pinned: the bytes. A compact
    header, one record a sample in order, fields in `Sample` order, oracle fields where
    present, each feature as `format(v, ".17g")` writes it (one `%` a record gives that
    text), but a negative zero as -0.0: JSON reads that "-0" as the integer 0."""
    header = {"format": "sciu-dataset", "n_classes": dataset.n_classes, "dim": dataset.dim}
    row, records = ",".join(["%.17g"] * dataset.dim), dataset._records()
    with open(path, "w") as f:
        f.write(json.dumps(header, separators=(",", ":")) + "\n")
        for start in range(0, len(dataset), _BLOCK):
            block = dataset.features_matrix()[start:start + _BLOCK]
            negative_zero = (np.signbit(block) & (block == 0)).any(axis=1).tolist()
            # zip asks `negative_zero` first, so it takes only this block's records.
            for minus0, (sid, feats, label, true_label, flag) in zip(negative_zero, records):
                true_label = "" if true_label is None else f',"true_label":{true_label}'
                flag = "" if flag is None else f',"quality_flag":"{flag}"'
                line = (f'{{"id":{sid},"features":[{row % tuple(feats)}],"label":{label}'
                        f"{true_label}{flag}}}\n")
                f.write(re.sub(r"(?<=[\[,])-0(?=[,\]])", "-0.0", line) if minus0 else line)


def read_lines(path) -> Iterator[str]:
    """The lines of the text file at `path`, as universal newlines read and end them ("\\n");
    a `ParseError` saying why it has no text, at `open` or at a line that does not decode."""
    try:
        with open(path) as f:
            yield from f
    except OSError as e:
        raise ParseError(f"{path}: cannot read: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not a text file: {e}") from e


def load_dataset(path) -> Dataset:
    """The validated dataset at `path`. Pinned: which error comes first. Line by line, in
    file order, a line's first fault: a `ParseError` naming `<path>:<line>` for the header,
    bad JSON, a non-object, non-number features, a missing field or an id, label or
    true_label that int64 cannot hold, or naming `<path>` for bytes that do not decode; or
    the record's `_check_record` error. After the last line, `validate`'s whole-column
    checks. Each record's values go straight into typed columns, its features as float64
    (as `np.stack` casts ints), so no per-record object outlives its line. A feature written
    as -0 (older saves wrote a negative zero so) loads as +0.0."""
    lines = (line.rstrip("\n") for line in read_lines(path))
    if (first := next(lines, None)) is None:
        raise ParseError(f"{path}: empty file, missing header")
    try:
        header = json.loads(first)
    except (ValueError, RecursionError) as e:  # too deep, or an int of > 4,300 digits
        raise ParseError(f"{path}:1: malformed header: {e}") from e
    if not isinstance(header, dict) or header.get("format") != "sciu-dataset":
        raise ParseError(f"{path}:1: not a sciu-dataset header")
    for key in ("n_classes", "dim"):
        if key not in header:
            raise ParseError(f"{path}:1: header has no {key!r}")
        if type(header[key]) is not int or header[key] < 0:
            raise ParseError(f"{path}:1: {key} {header[key]!r} is not a non-negative integer")
    n_classes, dim = header["n_classes"], header["dim"]
    # int64 ids, labels and true labels, int8 quality codes and float64 feature rows
    ids, labels, true_labels, quality, rows = (array.array(t) for t in "qqqbd")
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            rec, end = _scan(line, 0)  # what json.loads returns when it fills the line
        except (StopIteration, ValueError, RecursionError):
            end = None
        if end != len(line):  # json.loads itself: its value, or the error it words
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as e:
                raise ParseError(f"{path}:{lineno}: malformed record: {e}") from e
        if not isinstance(rec, dict):
            raise ParseError(f"{path}:{lineno}: record is not an object")
        try:
            features = np.asarray(rec["features"])
            if features.dtype.kind not in "iuf":  # "1.5" would parse as a number
                raise ValueError(repr(rec["features"])[:80])
            sid, label = rec["id"], rec["label"]
        except KeyError as e:
            raise ParseError(f"{path}:{lineno}: missing field {e}") from e
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"{path}:{lineno}: features are not numbers: {e}") from e
        true_label, flag = rec.get("true_label"), rec.get("quality_flag")
        _check_record(sid, label, true_label, flag, features.shape, dim)
        try:
            ids.append(sid)
            labels.append(label)
            true_labels.append(-1 if true_label is None else true_label)
        except OverflowError as e:
            field = next(f for f, v in (("id", sid), ("label", label), ("true_label", true_label))
                         if v is not None and not -(2**63) <= v < 2**63)
            raise ParseError(f"{path}:{lineno}: {field} out of the int64 range") from e
        quality.append(QUALITY_CODES[flag])
        rows.frombytes(features.astype(np.float64, copy=False).tobytes())
    try:  # with no record, a header dim numpy cannot hold is not checked by any row
        matrix = np.frombuffer(rows).reshape(len(ids), dim) if ids else np.zeros((0, dim))
    except (OverflowError, ValueError) as e:
        raise ValidationError(f"dim out of range: {e}") from e
    return Dataset(np.frombuffer(ids, np.int64), matrix, np.frombuffer(labels, np.int64),
                   np.frombuffer(true_labels, np.int64), np.frombuffer(quality, np.int8),
                   n_classes=n_classes, dim=dim)


def stratified_split(
    dataset: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Per-class split preserving class proportions within one sample.

    Classes are taken in ascending order, each as its samples in dataset
    order; both halves come out sorted by id.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValidationError("train_fraction must be in (0, 1)")
    labels = dataset.labels()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B117]))
    in_train = np.zeros(len(dataset), dtype=bool)
    for c in np.unique(labels).tolist():
        group = np.flatnonzero(labels == c)
        if len(group) < 2:
            raise ValidationError(f"class {c} has fewer than 2 samples, cannot split")
        order = rng.permutation(len(group))
        n_train = int(round(train_fraction * len(group)))
        n_train = min(max(n_train, 1), len(group) - 1)
        in_train[group[order[:n_train]]] = True
    by_id = np.argsort(dataset.id_array)
    return dataset._take(by_id[in_train[by_id]]), dataset._take(by_id[~in_train[by_id]])
