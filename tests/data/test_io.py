"""Relation persistence: CSV/JSONL round-trips."""

import pytest

from repro.data.io import (
    load_tuples,
    load_tuples_csv,
    load_tuples_jsonl,
    save_tuples,
    save_tuples_csv,
    save_tuples_jsonl,
)
from repro.core.tuples import UncertainTuple

from ..conftest import make_random_database


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        db = make_random_database(100, 3, seed=1)
        path = tmp_path / "rel.csv"
        save_tuples_csv(path, db)
        assert load_tuples_csv(path) == db

    def test_custom_attribute_names(self, tmp_path):
        db = make_random_database(5, 2, seed=2)
        path = tmp_path / "rel.csv"
        save_tuples_csv(path, db, attribute_names=["price", "distance"])
        header = path.read_text().splitlines()[0]
        assert header == "key,price,distance,probability"
        assert load_tuples_csv(path) == db

    def test_attribute_name_count_checked(self, tmp_path):
        db = make_random_database(5, 2, seed=3)
        with pytest.raises(ValueError, match="attribute names"):
            save_tuples_csv(tmp_path / "rel.csv", db, attribute_names=["only_one"])

    def test_empty_relation(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("")
        assert load_tuples_csv(path) == []

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("key,a,probability\n1,0.5,0.5\n2,broken,0.5\n")
        with pytest.raises(ValueError, match=":3"):
            load_tuples_csv(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("key,probability\n")
        with pytest.raises(ValueError, match="at least"):
            load_tuples_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("key,a,probability\n1,0.5\n")
        with pytest.raises(ValueError, match="expected 3 cells"):
            load_tuples_csv(path)


class TestJsonl:
    def test_roundtrip_exact(self, tmp_path):
        db = make_random_database(80, 4, seed=4)
        path = tmp_path / "rel.jsonl"
        save_tuples_jsonl(path, db)
        assert load_tuples_jsonl(path) == db

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "rel.jsonl"
        path.write_text(
            '{"key": 1, "values": [0.5], "probability": 0.5}\n\n'
            '{"key": 2, "values": [0.7], "probability": 0.7}\n'
        )
        assert len(load_tuples_jsonl(path)) == 2

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "rel.jsonl"
        path.write_text('{"key": 1, "values": [0.5], "probability": 0.5}\n{"nope": 1}\n')
        with pytest.raises(ValueError, match=":2"):
            load_tuples_jsonl(path)

    def test_wire_format_compatible(self, tmp_path):
        from repro.net.message import encode_tuple
        import json

        t = UncertainTuple(9, (1.5, 2.5), 0.25)
        path = tmp_path / "rel.jsonl"
        path.write_text(json.dumps(encode_tuple(t)) + "\n")
        assert load_tuples_jsonl(path) == [t]


class TestDispatch:
    @pytest.mark.parametrize("name", ["rel.csv", "rel.jsonl", "rel.ndjson"])
    def test_suffix_dispatch(self, tmp_path, name):
        db = make_random_database(10, 2, seed=5)
        path = tmp_path / name
        save_tuples(path, db)
        assert load_tuples(path) == db

    def test_unknown_suffix(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            save_tuples(tmp_path / "rel.parquet", [])
        with pytest.raises(ValueError, match="unsupported"):
            load_tuples(tmp_path / "rel.parquet")

    def test_duplicate_keys_rejected_on_load(self, tmp_path):
        path = tmp_path / "rel.csv"
        path.write_text("key,a,probability\n1,0.5,0.5\n1,0.7,0.5\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_tuples_csv(path)

