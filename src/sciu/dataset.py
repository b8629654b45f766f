"""Sample and dataset representation plus line-delimited file I/O.

A dataset file is line-delimited JSON. The first line is a header
{"format": "sciu-dataset", "n_classes": K, "dim": d}; every following line
is one sample record {"id", "features", "label", "true_label"?,
"quality_flag"?}. Floats are written with 17 significant digits so that
save -> load -> save is byte-stable.

`true_label` and `quality_flag` are oracle fields for evaluation only.
Training code must never read them; they are only reachable through
`Dataset.oracle_columns`, whose readers are `metrics.pruning_quality`,
`metrics.correction_quality`, the true-label test metrics of
`pipeline.run_pipeline` and the summary of `sciu generate`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import ParseError, ValidationError

QUALITY_CLEAN = "clean"
QUALITY_LOW = "low_quality"
# Codes of the quality column; -1 marks a sample without a quality flag.
QUALITY_CODES = {None: -1, QUALITY_CLEAN: 0, QUALITY_LOW: 1}


@dataclass(frozen=True)
class Sample:
    id: int
    features: np.ndarray
    label: int
    true_label: Optional[int] = None
    quality_flag: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(
            self, "features", np.asarray(self.features, dtype=np.float64)
        )


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

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "old_label": self.old_label,
            "new_label": self.new_label,
            "epoch": self.epoch,
        }


_QUALITY_NAMES = {code: name for name, code in QUALITY_CODES.items()}


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _columns(samples: list[Sample], dim: int) -> tuple[np.ndarray, ...]:
    """(ids, features, labels, true_labels, quality codes) of `samples`.

    Rejects what the columns could not hold as given: a non-integer id,
    label or true_label (an int64 column would truncate 0.5 to 0), a
    negative true_label (-1 marks an absent one), an unknown quality flag
    and a feature vector of the wrong shape.
    """
    for s in samples:
        if not _is_int(s.id):
            raise ValidationError(f"sample id {s.id!r} is not an integer")
        if not _is_int(s.label):
            raise ValidationError(f"sample {s.id}: label {s.label!r} is not an integer")
        if s.true_label is not None and not (_is_int(s.true_label) and s.true_label >= 0):
            raise ValidationError(
                f"sample {s.id}: true_label {s.true_label!r} is not a class index"
            )
        if not isinstance(s.quality_flag, (str, type(None))) or \
                s.quality_flag not in QUALITY_CODES:
            raise ValidationError(f"sample {s.id}: unknown quality_flag {s.quality_flag!r}")
        if s.features.shape != (dim,):
            raise ValidationError(
                f"sample {s.id}: feature dim {s.features.shape} != ({dim},)"
            )
    try:
        return (
            np.array([s.id for s in samples], dtype=np.int64),
            np.stack([s.features for s in samples]) if samples else np.zeros((0, dim)),
            np.array([s.label for s in samples], dtype=np.int64),
            np.array([-1 if s.true_label is None else s.true_label for s in samples],
                     dtype=np.int64),
            np.array([QUALITY_CODES[s.quality_flag] for s in samples], dtype=np.int8),
        )
    except (OverflowError, ValueError) as e:  # e.g. 2**63, or a dim too big for numpy
        raise ValidationError(f"sample id, label or dim out of range: {e}") from e


class Dataset:
    """Samples stored column-wise: ids (n,), features (n, dim), labels (n,)
    and the two oracle columns (-1 where a sample has no oracle value).

    Built from `Sample`s or from columns (`from_columns`) and validated
    once; `subset`, `with_labels` and `stratified_split` gather from
    columns that are already valid. The columns are read-only, so the
    accessors return them without copying.
    """

    def __init__(self, samples: Iterable[Sample], n_classes: int, dim: int):
        self._set_columns(n_classes, dim, *_columns(list(samples), dim))
        self.validate()

    @classmethod
    def from_columns(
        cls, ids, features, labels, true_labels, quality, n_classes: int, dim: int
    ) -> "Dataset":
        """A dataset that takes over (and makes read-only) ready columns:
        int64 ids, labels and true labels (-1 where absent), (n, dim) float64
        features, int8 `QUALITY_CODES`. Validated as `Sample`-built ones are."""
        out = object.__new__(cls)
        out._set_columns(n_classes, dim, ids, features, labels, true_labels, quality)
        out.validate()
        return out

    def _set_columns(self, n_classes, dim, ids, features, labels, true_labels, quality):
        self.n_classes, self.dim = n_classes, dim
        self.id_array = _readonly(ids)
        self._features = _readonly(features)
        self._labels = _readonly(labels)
        self._true_labels = _readonly(true_labels)
        self._quality = _readonly(quality)

    def _derive(self, ids, features, labels, true_labels, quality) -> "Dataset":
        """A dataset over columns gathered from this one (no validation)."""
        out = object.__new__(Dataset)
        out._set_columns(self.n_classes, self.dim, ids, features, labels, true_labels, quality)
        return out

    def _take(self, index: np.ndarray) -> "Dataset":
        return self._derive(
            self.id_array[index], self._features[index], self._labels[index],
            self._true_labels[index], self._quality[index],
        )

    def validate(self) -> None:
        """Column types and shapes, distinct ids, labels in [0, n_classes)
        and finite features."""
        ids = self.id_array
        columns = (ids, self._features, self._labels, self._true_labels, self._quality)
        layout = [(c.dtype, c.shape) for c in columns]
        n = len(ids)
        if layout != [(np.int64, (n,)), (np.float64, (n, self.dim)), (np.int64, (n,)),
                      (np.int64, (n,)), (np.int8, (n,))]:
            raise ValidationError(f"column dtypes and shapes {layout} do not match")
        _, first = np.unique(ids, return_index=True)
        if len(first) < len(ids):
            repeat = np.ones(len(ids), dtype=bool)
            repeat[first] = False
            raise ValidationError(f"duplicate sample id {ids[repeat.argmax()]}")
        bad = (self._labels < 0) | (self._labels >= self.n_classes)
        if bad.any():
            i = bad.argmax()
            raise ValidationError(
                f"sample {ids[i]}: label {self._labels[i]} out of range [0, {self.n_classes})"
            )
        bad = self._true_labels >= self.n_classes
        if bad.any():
            i = bad.argmax()
            raise ValidationError(
                f"sample {ids[i]}: true_label {self._true_labels[i]} out of range"
            )
        bad = ~np.isfinite(self._features).all(axis=1)
        if bad.any():
            raise ValidationError(f"sample {ids[bad.argmax()]}: non-finite features")

    def __len__(self) -> int:
        return len(self.id_array)

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, n_classes={self.n_classes}, dim={self.dim})"

    @property
    def ids(self) -> list[int]:
        return self.id_array.tolist()

    @property
    def samples(self) -> list[Sample]:
        """The rows as `Sample`s, built on each access."""
        return [
            Sample(i, f, lab, None if t < 0 else t, _QUALITY_NAMES[q])
            for i, f, lab, t, q in zip(
                self.ids, self._features, self._labels.tolist(),
                self._true_labels.tolist(), self._quality.tolist(),
            )
        ]

    def features_matrix(self) -> np.ndarray:
        return self._features

    def labels(self) -> np.ndarray:
        return self._labels

    def fingerprint(self) -> str:
        """sha256 of what training reads: n_classes, dim, ids, labels and
        features. The oracle columns are left out; training never reads
        them."""
        h = hashlib.sha256(f"{self.n_classes},{self.dim},{len(self)};".encode())
        for column in (self.id_array, self._labels, self._features):
            h.update(np.ascontiguousarray(column))
        return h.hexdigest()

    def subset(self, keep_ids: Iterable[int]) -> "Dataset":
        """The samples whose id is in `keep_ids`, in this dataset's order."""
        keep = np.isin(self.id_array, np.fromiter(keep_ids, dtype=np.int64))
        return self._take(np.flatnonzero(keep))

    def with_labels(self, new_labels: dict[int, int]) -> "Dataset":
        """New dataset with the given sample labels replaced."""
        for sid, lab in new_labels.items():
            if not (_is_int(lab) and 0 <= lab < self.n_classes):
                raise ValidationError(
                    f"sample {sid}: label {lab!r} out of range [0, {self.n_classes})"
                )
        hit = np.flatnonzero(np.isin(self.id_array, list(new_labels)))
        if len(hit) != len(new_labels):
            unknown = sorted(set(new_labels).difference(self.ids))
            raise ValidationError(f"sample ids {unknown} are not in the dataset")
        labels = self._labels.copy()
        labels[hit] = [new_labels[i] for i in self.id_array[hit].tolist()]
        return self._derive(
            self.id_array, self._features, labels, self._true_labels, self._quality
        )

    def without_oracle_fields(self) -> "Dataset":
        absent = _readonly(np.full(len(self), -1, dtype=np.int64))
        return self._derive(
            self.id_array, self._features, self._labels, absent, absent.astype(np.int8)
        )

    def oracle_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(true labels, quality codes), aligned with `id_array`; -1 marks
        an absent value. Evaluation only, never read on a training path."""
        return self._true_labels, self._quality


def save_dataset(dataset: Dataset, path) -> None:
    lines = [
        json.dumps(
            {
                "format": "sciu-dataset",
                "n_classes": dataset.n_classes,
                "dim": dataset.dim,
            },
            separators=(",", ":"),
        )
    ]
    for sid, row, label, true_label, code in zip(
        dataset.ids, dataset._features.tolist(), dataset._labels.tolist(),
        dataset._true_labels.tolist(), dataset._quality.tolist(),
    ):
        feats = ",".join(format(v, ".17g") for v in row)
        parts = [f'"id":{sid}', f'"features":[{feats}]', f'"label":{label}']
        if true_label >= 0:
            parts.append(f'"true_label":{true_label}')
        if code >= 0:
            parts.append(f'"quality_flag":"{_QUALITY_NAMES[code]}"')
        lines.append("{" + ",".join(parts) + "}")
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")


def load_dataset(path) -> Dataset:
    try:
        with open(path) as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        raise ParseError(f"{path}: cannot read: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not a text file: {e}") from e
    if not raw_lines:
        raise ParseError(f"{path}: empty file, missing header")
    try:
        header = json.loads(raw_lines[0])
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:1: malformed header: {e}") from e
    if not isinstance(header, dict) or header.get("format") != "sciu-dataset":
        raise ParseError(f"{path}:1: not a sciu-dataset header")
    for key in ("n_classes", "dim"):
        if key not in header:
            raise ParseError(f"{path}:1: header has no {key!r}")
        if not _is_int(header[key]) or header[key] < 0:
            raise ParseError(f"{path}:1: {key} {header[key]!r} is not a non-negative integer")
    samples = []
    for lineno, line in enumerate(raw_lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{lineno}: malformed record: {e}") from e
        if not isinstance(rec, dict):
            raise ParseError(f"{path}:{lineno}: record is not an object")
        try:
            features = np.asarray(rec["features"])
            if features.dtype.kind not in "iuf":  # "1.5" would parse as a number
                raise ValueError(repr(rec["features"])[:80])
            samples.append(
                Sample(
                    id=rec["id"],
                    features=features,
                    label=rec["label"],
                    true_label=rec.get("true_label"),
                    quality_flag=rec.get("quality_flag"),
                )
            )
        except KeyError as e:
            raise ParseError(f"{path}:{lineno}: missing field {e}") from e
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"{path}:{lineno}: features are not numbers: {e}") from e
    return Dataset(samples, n_classes=header["n_classes"], dim=header["dim"])


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
