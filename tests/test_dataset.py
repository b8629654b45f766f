import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sciu
from sciu.cli import main
from sciu.dataset import (
    _BLOCK,
    QUALITY_CODES,
    CorrectionEvent,
    Dataset,
    Sample,
    load_dataset,
    save_dataset,
    stratified_split,
)
from sciu.errors import NumericError, ParseError, SciuError, ValidationError
from sciu.synth import SynthConfig, generate


def columns(n=3, dim=2, **changed):
    """The columns of n samples with zero features, label 0 and no oracle
    values, with the `changed` ones replaced."""
    return {"ids": np.arange(n, dtype=np.int64), "features": np.zeros((n, dim)),
            "labels": np.zeros(n, dtype=np.int64),
            "true_labels": np.full(n, -1, dtype=np.int64),
            "quality": np.full(n, -1, dtype=np.int8), **changed}


def make_dataset(n, n_classes=3, dim=4, seed=0):
    """n clean samples with random features, labelled i % n_classes."""
    labels = np.arange(n, dtype=np.int64) % n_classes
    return Dataset(**columns(n, dim, features=np.random.default_rng(seed).standard_normal((n, dim)),
                             labels=labels, true_labels=labels.copy(),
                             quality=np.zeros(n, dtype=np.int8)),
                   n_classes=n_classes, dim=dim)


def from_rows(rows, n_classes, dim):
    """A dataset built from `Sample` rows one row at a time: the reference
    for the gathers, which never look at rows."""
    n = len(rows)
    return Dataset(
        np.array([s.id for s in rows], dtype=np.int64),
        np.array([s.features for s in rows], dtype=np.float64).reshape(n, dim),
        np.array([s.label for s in rows], dtype=np.int64),
        np.array([-1 if s.true_label is None else s.true_label for s in rows], dtype=np.int64),
        np.array([QUALITY_CODES[s.quality_flag] for s in rows], dtype=np.int8),
        n_classes=n_classes, dim=dim)


class TestDataset:
    def test_three_records(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"format":"sciu-dataset","n_classes":2,"dim":2}\n'
            '{"id":0,"features":[1.0,0.0],"label":0}\n'
            '{"id":1,"features":[0.0,1.0],"label":1}\n'
            '{"id":2,"features":[1.0,1.0],"label":0}\n'
        )
        ds = load_dataset(path)
        assert len(ds) == 3
        assert ds.ids == [0, 1, 2]

    def test_label_out_of_range_names_id(self):
        with pytest.raises(ValidationError, match="sample 7: label 2"):
            Dataset(**columns(1, ids=np.array([7]), labels=np.array([2])), n_classes=2, dim=2)

    def test_duplicate_id(self):
        with pytest.raises(ValidationError, match="duplicate sample id 4"):
            Dataset(**columns(2, ids=np.array([4, 4])), n_classes=3, dim=2)

    def test_wrong_dim(self):
        with pytest.raises(ValidationError):
            Dataset(**columns(1, dim=3), n_classes=2, dim=2)

    def test_round_trip(self, tmp_path):
        ds = make_dataset(10)
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.n_classes == ds.n_classes and back.dim == ds.dim
        for a, b in zip(ds.samples, back.samples):
            assert a.id == b.id and a.label == b.label
            assert a.true_label == b.true_label
            assert a.quality_flag == b.quality_flag
            np.testing.assert_array_equal(a.features, b.features)

    def test_save_load_save_byte_identical(self, tmp_path):
        ds = make_dataset(20)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset_header_only(self, tmp_path):
        ds = Dataset(**columns(0), n_classes=2, dim=2)
        path = tmp_path / "e.jsonl"
        save_dataset(ds, path)
        assert path.read_text().count("\n") == 1
        assert len(load_dataset(path)) == 0

    def test_optional_fields_serialized(self, tmp_path):
        ds = Dataset(**columns(1, labels=np.array([1]), true_labels=np.array([0]),
                               quality=np.array([QUALITY_CODES["low_quality"]], dtype=np.int8)),
                     n_classes=2, dim=2)
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        text = path.read_text()
        assert '"true_label":0' in text and '"quality_flag":"low_quality"' in text

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":0,"features":[0.0],"label":0}\n')
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_malformed_record_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format":"sciu-dataset","n_classes":2,"dim":1}\n{oops\n'
        )
        with pytest.raises(ParseError, match=":2:"):
            load_dataset(path)

    def test_subset_and_with_labels(self):
        ds = make_dataset(6)
        sub = ds.subset([1, 3])
        assert sub.ids == [1, 3]
        relabeled = ds.with_labels(np.array([0]), np.array([2]))
        assert relabeled.samples[0].label == 2
        assert ds.samples[0].label == 0  # original untouched

    def test_without_oracle_fields(self):
        ds = make_dataset(3)
        stripped = ds.without_oracle_fields()
        assert all(s.true_label is None for s in stripped.samples)
        assert all(s.quality_flag is None for s in stripped.samples)
        np.testing.assert_array_equal(
            stripped.features_matrix(), ds.features_matrix()
        )

    @pytest.mark.parametrize("shape", [(8,), (8, 3)])
    def test_check_finite_names_the_samples(self, shape):
        ds = Dataset(**columns(7, ids=np.arange(1, 8)), n_classes=3, dim=2)
        values = np.zeros(shape)[1:]
        ds.check_finite(values, "score", 4)
        values.reshape(7, -1)[[1, 4, 5], -1] = [np.nan, np.inf, -np.inf]
        with pytest.raises(NumericError, match=re.escape(
                "non-finite score at epoch 4: 3 samples, first sample ids [2, 5, 6]")):
            ds.check_finite(values, "score", 4)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_check_finite_of_no_samples(self, shape):
        make_dataset(0).check_finite(np.zeros(shape), "test probabilities", 0)


class TestCorrectionEvent:
    def test_no_op_rejected(self):
        with pytest.raises(ValidationError):
            CorrectionEvent(0, 1, 1, epoch=5)


class TestStratifiedSplit:
    def _dataset(self, per_class=100, n_classes=3):
        n = per_class * n_classes
        features = np.random.default_rng(1).standard_normal((n, 2))
        labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
        return Dataset(**columns(n, features=features, labels=labels),
                       n_classes=n_classes, dim=2)

    def test_80_20_counts(self):
        ds = self._dataset()
        train, test = stratified_split(ds, 0.8, seed=0)
        for c in range(3):
            assert sum(1 for s in train.samples if s.label == c) == 80
            assert sum(1 for s in test.samples if s.label == c) == 20

    def test_same_seed_identical(self):
        ds = self._dataset()
        t1, e1 = stratified_split(ds, 0.8, seed=5)
        t2, e2 = stratified_split(ds, 0.8, seed=5)
        assert t1.ids == t2.ids and e1.ids == e2.ids

    def test_per_class_fraction_within_one(self):
        ds = self._dataset(per_class=37)
        train, _ = stratified_split(ds, 0.7, seed=2)
        target = 0.7 * 37
        for c in range(3):
            n = sum(1 for s in train.samples if s.label == c)
            assert abs(n - target) <= 1

    def test_disjoint_and_complete(self):
        ds = self._dataset(per_class=10)
        train, test = stratified_split(ds, 0.8, seed=0)
        assert set(train.ids) | set(test.ids) == set(ds.ids)
        assert not set(train.ids) & set(test.ids)

    def test_bad_fraction(self):
        ds = self._dataset(per_class=5)
        with pytest.raises(ValidationError):
            stratified_split(ds, 1.0, seed=0)

    def test_class_of_one_sample(self):
        ds = self._dataset(per_class=5).subset(range(11))  # class 2 keeps sample 10 only
        with pytest.raises(ValidationError, match="^class 2 has fewer than 2 samples"):
            stratified_split(ds, 0.8, seed=0)


HEADER = '{"format":"sciu-dataset","n_classes":2,"dim":2}\n'
RECORD = '{"id":0,"features":[1.0,0.0],"label":0}\n'


def run_cli(*argv):
    """Run the CLI in a fresh interpreter; (exit code, stderr)."""
    src = Path(sciu.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "sciu.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stderr


class TestLoadErrors:
    @pytest.mark.parametrize("key", ["n_classes", "dim"])
    def test_header_missing_field(self, tmp_path, key):
        header = {"format": "sciu-dataset", "n_classes": 2, "dim": 2}
        del header[key]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(header) + "\n" + RECORD)
        with pytest.raises(ParseError, match=rf":1: .*{key}"):
            load_dataset(path)

    def test_header_not_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        path.write_text("{oops\n" + RECORD)
        with pytest.raises(ParseError, match=":1: malformed header: "):
            load_dataset(path)
        assert main(["run", "--dataset", str(path), "--mode", "baseline"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:1: malformed header: ")

    def test_header_dim_not_an_integer(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"format":"sciu-dataset","n_classes":2,"dim":"2"}\n' + RECORD)
        with pytest.raises(ParseError, match=":1: dim"):
            load_dataset(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(HEADER + RECORD + '{"id":1,"features":[1.0,"x"],"label":0}\n')
        with pytest.raises(ParseError, match=":3: "):
            load_dataset(path)

    @pytest.mark.parametrize("features", ['["1.5","2"]', '[1.0,"2"]', "[true,false]", "null"])
    def test_quoted_or_non_number_features(self, tmp_path, features):
        path = tmp_path / "d.jsonl"
        path.write_text(HEADER + RECORD + f'{{"id":1,"features":{features},"label":0}}\n')
        with pytest.raises(ParseError, match=":3: features are not numbers"):
            load_dataset(path)

    def test_integer_features_load_as_floats(self, tmp_path):
        # JSON reads -0 as the integer 0, so a file that holds it loads +0.0.
        path = tmp_path / "d.jsonl"
        path.write_text(HEADER + '{"id":0,"features":[1,-2],"label":0}\n'
                        '{"id":1,"features":[-0,3],"label":0}\n')
        features = load_dataset(path).features_matrix()
        assert features.tolist() == [[1.0, -2.0], [0.0, 3.0]] and not np.signbit(features[1, 0])

    def test_absurd_n_classes_exits_2_without_traceback(self, tmp_path):
        for n_classes, n in [("1180591620717411303424", 20), ("1" + "0" * 4000, 8)]:
            path = tmp_path / "d.jsonl"
            records = "".join(
                f'{{"id":{i},"features":[{i}.5],"label":{i % 2}}}\n' for i in range(n)
            )
            path.write_text(
                '{"format":"sciu-dataset","n_classes":' + n_classes + ',"dim":1}\n' + records
            )
            code, err = run_cli("run", "--dataset", str(path), "--mode", "baseline",
                                "--out-dir", str(tmp_path / "run"))
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err
            assert len(err) < 300  # the class count is cut, not echoed in full

    @pytest.mark.parametrize("field", ["id", "label", "true_label"])
    def test_value_int64_cannot_hold_exits_2_naming_the_line(self, tmp_path, field):
        # JSON parses a 4,001-digit integer, but no int64 column holds it.
        record = {"id": 5, "features": [1.0, 0.0], "label": 0, "true_label": 1}
        path = tmp_path / "d.jsonl"
        path.write_text(HEADER + RECORD + "\n" + json.dumps(record).replace(
            f'"{field}": {record[field]}', f'"{field}": {"9" * 4001}') + "\n" + RECORD)
        code, err = run_cli("run", "--dataset", str(path), "--mode", "baseline")
        assert code == 2
        assert err == f"error: {path}:4: {field} out of the int64 range\n"

    def test_value_int64_cannot_hold_after_type_errors(self, tmp_path):
        # An overflow is a fault of its own line: it comes before a later line's type error.
        path = tmp_path / "d.jsonl"
        path.write_text(HEADER + '{"id":' + str(2**63) + ',"features":[1.0,0.0],"label":0}\n'
                        + '{"id":1,"features":[1.0,0.0],"label":0.5}\n')
        with pytest.raises(ParseError, match=r":2: id out of the int64 range$"):
            load_dataset(path)
        path.write_text(HEADER + '{"id":1,"features":[1.0,0.0],"label":0}\n'
                        + '{"id":' + str(-(2**63) - 1) + ',"features":[1.0,0.0],"label":0}\n')
        with pytest.raises(ParseError, match=r":3: id out of the int64 range$"):
            load_dataset(path)
        path.write_text(HEADER + '{"id":0,"features":[1.0,0.0],"label":' + str(2**64) + "}\n")
        with pytest.raises(ParseError, match=r":2: label out of the int64 range$"):
            load_dataset(path)

    def test_unknown_quality_flag_names_the_sample(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(HEADER + RECORD + '{"id":7,"features":[1.0,0.0],"label":0,'
                        '"quality_flag":"dirty"}\n')
        with pytest.raises(ValidationError, match="sample 7: unknown quality_flag 'dirty'"):
            load_dataset(path)

    def test_two_faults_name_the_first_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        for third, fifth, error, match in [
            ('{"id":1,"features":[1.0,"x"],"label":0}', '{"id":3,"features":[1.0,0.0]}',
             ParseError, ":3: features are not numbers"),
            # A record's type fault comes before malformed JSON on a later line.
            ('{"id":1,"features":[1.0],"label":0.5}', '{"id":2 "features":[1.0,0.0],"label":0}',
             ValidationError, "^sample 1: label 0.5 is not an integer$"),
            ('{"id":1,"features":[1.0,0.0],"label":0,"quality_flag":0}', "{oops",
             ValidationError, "^sample 1: unknown quality_flag 0$"),
        ]:
            path.write_text(HEADER + RECORD + third + "\n" + RECORD + fifth + "\n")
            with pytest.raises(error, match=match):
                load_dataset(path)

    def test_builds_no_sample(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        save_dataset(make_dataset(6), path)

        def refuse(self):
            raise AssertionError("load_dataset built a Sample")

        monkeypatch.setattr(Sample, "__post_init__", refuse)
        assert load_dataset(path).ids == list(range(6))

    def test_record_not_an_object(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(HEADER + "[0, 1]\n")
        with pytest.raises(ParseError, match=":2: "):
            load_dataset(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"format":"sciu-dataset","dim":2}\n' + RECORD,
            HEADER + '{"id":0,"features":[1.0,"x"],"label":0}\n',
        ],
        ids=["missing-n_classes", "non-numeric-feature"],
    )
    def test_cli_exit_2_without_traceback(self, tmp_path, text):
        path = tmp_path / "d.jsonl"
        path.write_text(text)
        code, err = run_cli("run", "--dataset", str(path), "--mode", "baseline")
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text,line",
        [
            ('{"format":"sciu-dataset","n_classes":' + "7" * 5000 + ',"dim":2}\n' + RECORD, 1),
            (HEADER + '{"id":' + "7" * 5000 + ',"features":[1.0,0.0],"label":0}\n', 2),
            ("[" * 100000 + "]" * 100000 + "\n" + RECORD, 1),
            (HEADER + RECORD + "[" * 100000 + "]" * 100000 + "\n", 3),
        ],
        ids=["header-5000-digits", "id-5000-digits", "header-too-deep", "record-too-deep"],
    )
    def test_json_beyond_the_decoder_exits_2_naming_the_line(self, tmp_path, text, line):
        # json.loads raises ValueError past 4,300 digits and RecursionError
        # on deep nesting, not JSONDecodeError.
        path = tmp_path / "d.jsonl"
        path.write_text(text)
        code, err = run_cli("run", "--dataset", str(path), "--mode", "baseline")
        assert code == 2
        assert err.startswith(f"error: {path}:{line}: malformed ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestIntegerFields:
    @pytest.mark.parametrize(
        "fields,error",
        [
            ('"id":0,"label":0.5', "sample 0: label 0.5 is not an integer"),
            ('"id":0,"label":1.0', "sample 0: label 1.0 is not an integer"),
            ('"id":0,"label":true', "sample 0: label True is not an integer"),
            ('"id":0.5,"label":0', "sample id 0.5 is not an integer"),
            ('"id":0,"label":0,"true_label":0.5', "sample 0: true_label 0.5 is not a class index"),
            ('"id":0,"label":0,"true_label":-1', "sample 0: true_label -1 is not a class index"),
        ],
        ids=["label-half", "label-float", "label-bool", "id-half", "true-half",
             "true-negative"],
    )
    def test_rejected(self, tmp_path, fields, error):
        # An int64 column would truncate 0.5 to 0, and reads -1 as absent.
        path = tmp_path / "d.jsonl"
        path.write_text(HEADER + '{"features":[0.0,0.0],' + fields + "}\n")
        with pytest.raises(ValidationError, match=f"^{error}$"):
            load_dataset(path)

    def test_numpy_integers_accepted(self):
        ds = Dataset(**columns(1, ids=np.array([3])), n_classes=2, dim=2)
        relabeled = ds.with_labels(np.array([0], np.int32), np.array([1], np.int32))
        assert relabeled.ids == [3] and relabeled.labels().tolist() == [1]

    def test_float_label_in_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(HEADER + '{"id":0,"features":[1.0,0.0],"label":0.5}\n')
        with pytest.raises(ValidationError, match="not an integer"):
            load_dataset(path)


class TestFileLevel:
    """Faults of a file as a whole, and what a line is: what universal newlines
    read, ended by "\\n", "\\r\\n" or a lone "\\r"."""

    def test_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        path.write_bytes(HEADER.encode() + b'{"id":0,"features":[1.0,0.0],"label":0,"x":"\xe9"}\n')
        assert main(["run", "--dataset", str(path), "--mode", "baseline"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a text file: ") and err.count("\n") == 1

    def test_not_utf8_report_exits_2(self, tmp_path, capsys):
        path = tmp_path / "report.struct"
        path.write_bytes(b'{"mode":"\xff"}\n')
        assert main(["report", "--report", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a text file: ") and err.count("\n") == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: empty file, missing"):
            load_dataset(path)

    @pytest.mark.parametrize("end,last", [("\r\n", "\r\n"), ("\r", "\r"), ("\n", ""),
                                          ("\r\n", "")],
                             ids=["crlf", "cr", "lf-no-final", "crlf-no-final"])
    def test_line_ends_load_as_lf(self, tmp_path, end, last):
        lines = [HEADER, RECORD, '{"id":1,"features":[0.5,-0.0],"label":1}\n']
        lf, other = tmp_path / "lf.jsonl", tmp_path / "other.jsonl"
        lf.write_bytes("".join(lines).encode())
        other.write_bytes((end.join(line.rstrip("\n") for line in lines) + last).encode())
        assert outcome(load_dataset, other) == outcome(load_dataset, lf)
        lines.append("{oops")
        other.write_bytes((end.join(line.rstrip("\n") for line in lines) + last).encode())
        with pytest.raises(ParseError, match=":4: malformed record"):
            load_dataset(other)

    def test_form_feed_is_not_a_line_end(self, tmp_path, capsys):
        # str.splitlines would end line 2 at the "\f"; JSON rejects it inside the
        # line, and the lines after it keep their numbers.
        path = tmp_path / "d.jsonl"
        path.write_bytes((HEADER + '{"id":0,"features":[1.0,0.0],\f"label":0}\n{oops\n').encode())
        assert main(["run", "--dataset", str(path), "--mode", "baseline"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: malformed record: ") and err.count("\n") == 1
        path.write_bytes((HEADER + "\f\n{oops\n").encode())  # a blank line 2, not two
        with pytest.raises(ParseError, match=":3: malformed record"):
            load_dataset(path)

    def test_line_separator_stays_in_its_string(self, tmp_path, capsys):
        # U+2028 is a line end to str.splitlines, but a character of a JSON string.
        path = tmp_path / "d.jsonl"
        path.write_bytes((HEADER + '{"id":0,"features":[1.0,0.0],"label":0,'
                          '"quality_flag":"low\u2028quality"}\n').encode())
        assert main(["run", "--dataset", str(path), "--mode", "baseline"]) == 2
        assert capsys.readouterr().err == (
            "error: sample 0: unknown quality_flag 'low\\u2028quality'\n")


class TestFromColumns:
    """The one constructor: columns in order or by name, validated once."""

    def test_matches_dataset_from_samples(self):
        # The rows of a dataset are the samples its columns were made from,
        # whether the columns are given in order or by name.
        rng = np.random.default_rng(0)
        samples = [Sample(i, rng.standard_normal(4), i % 3, true_label=(i + 1) % 3 if i else None,
                          quality_flag=[None, "clean", "low_quality"][i % 3]) for i in range(5)]
        by_name = from_rows(samples, n_classes=3, dim=4)
        in_order = Dataset(*by_name._cols, n_classes=3, dim=4)
        assert_same_columns(in_order, by_name)
        for got, want in zip(in_order.samples, samples):
            assert (got.id, got.label, got.true_label, got.quality_flag) == \
                (want.id, want.label, want.true_label, want.quality_flag)
            assert got.features.tobytes() == want.features.tobytes()

    @pytest.mark.parametrize("name,value", [
        ("ids", np.arange(3.0)), ("ids", np.zeros(3, dtype=np.int64)),
        ("features", np.zeros((3, 1))), ("features", np.full((3, 2), np.inf)),
        ("labels", np.full(3, 2, dtype=np.int64)), ("labels", np.zeros(2, dtype=np.int64)),
        ("true_labels", np.full(3, 2, dtype=np.int64)),
        ("quality", np.full(3, -1, dtype=np.int64)),
        ("true_labels", np.array([-5, 0, 0], dtype=np.int64)),
        ("quality", np.array([7, 0, 0], dtype=np.int8)),
        ("ids", [0, 1, 2]),
    ])
    def test_rejected(self, name, value):
        with pytest.raises(ValidationError):
            Dataset(**{**columns(), name: value}, n_classes=2, dim=2)


def assert_same_columns(a, b):
    assert a.ids == b.ids
    assert a.labels().tolist() == b.labels().tolist()
    assert a.features_matrix().tobytes() == b.features_matrix().tobytes()
    for col_a, col_b in zip(a.oracle_columns(), b.oracle_columns()):
        assert col_a.dtype == col_b.dtype and col_a.tolist() == col_b.tolist()


class TestGathers:
    """`subset` and `with_labels` gather without validating again; they must
    still give what a dataset built and validated from the same samples
    gives."""

    def _dataset(self, seed):
        rng = np.random.default_rng(seed)
        true_labels = rng.integers(4, size=40)
        return Dataset(rng.permutation(200)[:40].astype(np.int64), rng.standard_normal((40, 3)),
                       rng.integers(4, size=40).astype(np.int64),
                       np.where(rng.uniform(size=40) < 0.7, true_labels, -1).astype(np.int64),
                       rng.integers(-1, 2, size=40).astype(np.int8), n_classes=4, dim=3)

    @pytest.mark.parametrize("seed", range(5))
    def test_subset_matches_fresh_dataset(self, seed):
        ds = self._dataset(seed)
        rng = np.random.default_rng(100 + seed)
        keep = set(rng.choice(ds.ids, size=15, replace=False).tolist())
        fresh = from_rows([s for s in ds.samples if s.id in keep], 4, 3)
        assert_same_columns(ds.subset(keep), fresh)

    @pytest.mark.parametrize("seed", range(5))
    def test_with_labels_matches_fresh_dataset(self, seed):
        ds = self._dataset(seed)
        rng = np.random.default_rng(200 + seed)
        rows = rng.choice(len(ds), size=10, replace=False)
        labels = rng.integers(4, size=10)
        new = dict(zip(ds.id_array[rows].tolist(), labels.tolist()))
        fresh = from_rows([replace(s, label=new.get(s.id, s.label)) for s in ds.samples], 4, 3)
        before = ds.labels().copy()
        assert_same_columns(ds.with_labels(rows, labels), fresh)
        np.testing.assert_array_equal(ds.labels(), before)

    @pytest.mark.parametrize("label", [4, -1, 0.5])
    def test_with_labels_rejects_bad_label(self, label):
        ds = self._dataset(0)
        with pytest.raises(ValidationError, match=f"^sample {ds.ids[3]}: label "):
            ds.with_labels(np.array([2, 3]), np.array([1, label]))

    def test_subset_takes_any_iterable_of_ids(self):
        ds = self._dataset(2)
        keep = ds.ids[3:20:2]
        want = ds.subset(keep)
        for ids in (set(keep), iter(keep), np.array(keep), np.array(keep[::-1], dtype=np.int32)):
            assert_same_columns(ds.subset(ids), want)
        assert ds.subset([]).ids == [] and ds.subset(np.array([], dtype=np.int64)).ids == []

    def test_gathers_do_not_validate(self, monkeypatch):
        ds = self._dataset(0)
        calls = []
        monkeypatch.setattr(Dataset, "validate", lambda self: calls.append(len(self)))
        ds.subset(ds.ids[:5]).with_labels(np.array([0]), np.array([1]))
        stratified_split(ds, 0.5, seed=0)
        assert calls == []

    def test_columns_are_read_only(self):
        ds = self._dataset(0)
        with pytest.raises(ValueError):
            ds.labels()[0] = 1
        with pytest.raises(ValueError):
            ds.features_matrix()[0, 0] = 1.0

    def test_split_halves_sorted_by_id(self):
        ds = self._dataset(1)
        train, test = stratified_split(ds, 0.5, seed=0)
        assert train.ids == sorted(train.ids) and test.ids == sorted(test.ids)
        assert sorted(train.ids + test.ids) == sorted(ds.ids)


def reference_save(dataset):
    """The file text `save_dataset` writes, built one `Sample` at a time."""
    lines = [json.dumps({"format": "sciu-dataset", "n_classes": dataset.n_classes,
                         "dim": dataset.dim}, separators=(",", ":"))]
    for s in dataset.samples:
        feats = ",".join("-0.0" if v == 0 and np.signbit(v) else format(float(v), ".17g")
                         for v in s.features.tolist())
        parts = [f'"id":{s.id}', f'"features":[{feats}]', f'"label":{s.label}']
        if s.true_label is not None:
            parts.append(f'"true_label":{s.true_label}')
        if s.quality_flag is not None:
            parts.append(f'"quality_flag":"{s.quality_flag}"')
        lines.append("{" + ",".join(parts) + "}")
    return "\n".join(lines) + "\n"


def test_save_crosses_blocks(tmp_path):
    # More than two blocks, with -0.0 in the first and last row of each.
    n = 2 * _BLOCK + 3
    rng = np.random.default_rng(0)
    features = rng.standard_normal((n, 3))
    features[[0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, n - 1], 1] = -0.0
    ids, labels = rng.permutation(10 * n)[:n], rng.integers(0, 3, n)
    true_labels, quality = rng.integers(-1, 3, n), rng.integers(-1, 2, n).astype(np.int8)
    dataset = Dataset(ids, features, labels, true_labels, quality, n_classes=3, dim=3)
    path = tmp_path / "d.jsonl"
    save_dataset(dataset, path)
    assert path.read_text() == reference_save(dataset)
    names = {code: name for name, code in QUALITY_CODES.items()}
    assert [(s.id, s.features.tobytes(), s.label, s.true_label, s.quality_flag)
            for s in dataset.samples] == [
        (ids[i], features[i].tobytes(), labels[i], None if true_labels[i] < 0 else true_labels[i],
         names[quality[i]]) for i in range(n)]
    loaded = load_dataset(path)
    np.testing.assert_array_equal(np.signbit(loaded.features_matrix()), np.signbit(features))
    assert loaded.fingerprint() == dataset.fingerprint()


def test_save_and_load_memory_is_bounded_by_a_block(tmp_path):
    # The default dataset (4,900 x 16, a 0.6 MiB feature matrix, a 1.7 MB
    # file), measured after a first `generate`, so one-time imports are left
    # out. Holding the whole file as Python values and text, as the
    # file-at-once save and load did, peaks at 5.9 and 5.8 MiB. Keeping a
    # numpy array and a tuple per record until the end of the file peaks at
    # 3.65 MiB, and a tuple of draws per generated sample at 1.37 MiB; with
    # typed columns they peak at 0.92 (load) and 0.95 MiB (generate).
    dataset, path = generate(SynthConfig(seed=0)), tmp_path / "d.jsonl"
    peaks = {}
    for name, call in (("generate", lambda: generate(SynthConfig(seed=0))),
                       ("save", lambda: save_dataset(dataset, path)),
                       ("load", lambda: load_dataset(path))):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert peaks["generate"] < 1.1 and peaks["save"] < 1.0 and peaks["load"] < 1.1, peaks


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308,
                               -1e308, 1.7976931348623157e308, 0.1, 1e16, 3.0])


@st.composite
def datasets(draw):
    n_classes, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), unique=True, max_size=6))
    n = len(ids)
    feature = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))

    def column(values, dtype, size=n):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype)

    return Dataset(
        np.array(ids, dtype=np.int64),
        column(feature, np.float64, n * dim).reshape(n, dim),
        column(st.integers(0, n_classes - 1), np.int64),
        column(st.integers(-1, n_classes - 1), np.int64),  # -1: no true label
        column(st.sampled_from(list(QUALITY_CODES.values())), np.int8),
        n_classes=n_classes, dim=dim,
    )


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hypothesis")


@settings(max_examples=150, deadline=None)
@given(dataset=datasets())
@example(dataset=Dataset(**columns(7, 1, features=np.array(
    [[-0.0], [5e-324], [2.2250738585072014e-308], [1.7976931348623157e308], [0.1], [1e16], [3.0]]),
    quality=np.zeros(7, dtype=np.int8)), n_classes=1, dim=1))
def test_save_matches_per_sample_writer(scratch_dir, dataset):
    path = scratch_dir / "d.jsonl"
    save_dataset(dataset, path)
    assert path.read_text() == reference_save(dataset)


@settings(max_examples=100, deadline=None)
@given(dataset=datasets())
@example(dataset=Dataset(**columns(1, 2, features=np.array([[-0.0, 1.5]])), n_classes=1, dim=2))
def test_save_load_save_keeps_bytes_and_signs(scratch_dir, dataset):
    # "%.17g" writes -0.0 as -0, which JSON reads back as the integer 0.
    first, second = scratch_dir / "first.jsonl", scratch_dir / "second.jsonl"
    save_dataset(dataset, first)
    loaded = load_dataset(first)
    save_dataset(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    np.testing.assert_array_equal(np.signbit(loaded.features_matrix()),
                                  np.signbit(dataset.features_matrix()))
    assert loaded.fingerprint() == dataset.fingerprint()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


# Integers past what an int64 column, a float64 or an array shape can hold.
HUGE_INTS = st.sampled_from([2**62, 2**63, -(2**63) - 1, 10**400])


def field(plausible):
    """A value that may load, one out of range, or any JSON value."""
    return st.one_of(plausible, HUGE_INTS, JSON_VALUES)


HEADERS = st.one_of(
    st.fixed_dictionaries(
        {"format": st.just("sciu-dataset")},
        optional={"n_classes": field(st.integers(0, 3)), "dim": field(st.integers(0, 3))},
    ),
    JSON_VALUES,
)
RECORDS = st.one_of(
    st.fixed_dictionaries(
        {"id": field(st.integers(0, 3)),
         "features": field(st.lists(st.floats() | st.integers() | HUGE_INTS, max_size=3)),
         "label": field(st.integers(0, 3))},
        optional={"true_label": field(st.integers(0, 3)),
                  "quality_flag": field(st.sampled_from(["clean", "low_quality"]))},
    ),
    JSON_VALUES,
)


@settings(max_examples=300, deadline=None)
@given(header=HEADERS, records=st.lists(RECORDS, max_size=3))
def test_any_file_loads_or_raises_sciu_error(scratch_dir, header, records):
    path = scratch_dir / "fuzz.jsonl"
    path.write_text("".join(json.dumps(v) + "\n" for v in [header, *records]))
    try:
        load_dataset(path)
    except SciuError:
        pass


def reference_load(path, n_classes, dim):
    """`load_dataset`'s records read one at a time, each record's features
    through `np.asarray` and each record checked in full before the next
    line; the header is taken as valid."""
    is_int = lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool)  # noqa: E731
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines()[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as e:
            raise ParseError(f"{path}:{lineno}: malformed record: {e}") from e
        if not isinstance(rec, dict):
            raise ParseError(f"{path}:{lineno}: record is not an object")
        try:
            features = np.asarray(rec["features"])
            if features.dtype.kind not in "iuf":
                raise ValueError(repr(rec["features"])[:80])
            sid, label = rec["id"], rec["label"]
        except KeyError as e:
            raise ParseError(f"{path}:{lineno}: missing field {e}") from e
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"{path}:{lineno}: features are not numbers: {e}") from e
        true_label, flag = rec.get("true_label"), rec.get("quality_flag")
        if not is_int(sid):
            raise ValidationError(f"sample id {sid!r} is not an integer")
        if not is_int(label):
            raise ValidationError(f"sample {sid}: label {label!r} is not an integer")
        if true_label is not None and not (is_int(true_label) and true_label != -1):
            raise ValidationError(f"sample {sid}: true_label {true_label!r} is not a class index")
        if not isinstance(flag, (str, type(None))) or flag not in ("clean", "low_quality", None):
            raise ValidationError(f"sample {sid}: unknown quality_flag {flag!r}")
        if features.shape != (dim,):
            raise ValidationError(f"sample {sid}: feature dim {features.shape} != ({dim},)")
        for field, value in (("id", sid), ("label", label), ("true_label", true_label)):
            if value is not None and not -(2**63) <= value < 2**63:
                raise ParseError(f"{path}:{lineno}: {field} out of the int64 range")
        records.append((sid, features, label, true_label, flag))
    codes = {None: -1, "clean": 0, "low_quality": 1}
    return Dataset(
        np.array([r[0] for r in records], dtype=np.int64),
        np.stack([r[1] for r in records], dtype=np.float64) if records else np.zeros((0, dim)),
        np.array([r[2] for r in records], dtype=np.int64),
        np.array([-1 if r[3] is None else r[3] for r in records], dtype=np.int64),
        np.array([codes[r[4]] for r in records], dtype=np.int8),
        n_classes=n_classes, dim=dim)


def outcome(load, *args):
    """The columns' bytes and dtypes a load gives, or its error's type and text."""
    try:
        return [(c.dtype.str, c.shape, c.tobytes()) for c in load(*args)._cols]
    except SciuError as e:
        return type(e), str(e)


RECORD_LINES = st.one_of(
    RECORDS.map(json.dumps),
    st.sampled_from(["", "  ", "{oops", "[" * 5, '{"id": 1.0e400}', '{"id": 0} {}', "{} x",
                     ' {"id":0,"features":[],"label":0}', '{"id":1,"features":[],"label":0}\t',
                     '\ufeff{"id":2,"features":[],"label":0}', '{"id":3,"features":[NaN],"label":0}']),
    st.fixed_dictionaries({"id": st.integers(0, 9), "label": st.integers(0, 2),
                           "features": st.lists(st.floats(), min_size=2, max_size=2)},
                          optional={"true_label": st.integers(-1, 2),
                                    "quality_flag": st.sampled_from(
                                        ["clean", "low_quality", "dirty", None, 0, []])},
                          ).map(json.dumps),
)


@settings(max_examples=300, deadline=None)
@given(n_classes=st.integers(1, 3), dim=st.integers(0, 3),
       lines=st.lists(RECORD_LINES, max_size=5))
def test_load_matches_per_record_reference(scratch_dir, n_classes, dim, lines):
    path = scratch_dir / "ref.jsonl"
    header = {"format": "sciu-dataset", "n_classes": n_classes, "dim": dim}
    path.write_text("".join(line + "\n" for line in [json.dumps(header), *lines]))
    assert outcome(load_dataset, path) == outcome(reference_load, path, n_classes, dim)
