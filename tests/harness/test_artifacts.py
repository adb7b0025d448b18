"""Unit tests for experiment artifact save/load."""

import pytest

from repro.harness import load_artifact, save_artifact


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        payload = {"queue": {"PMEM-Spec": 1.4, "DPO": 0.9}}
        path = save_artifact(str(tmp_path), "fig9", payload,
                             meta={"scale": 0.5})
        loaded = load_artifact(path)
        assert loaded["experiment"] == "fig9"
        assert loaded["data"]["queue"]["PMEM-Spec"] == 1.4
        assert loaded["meta"]["scale"] == 0.5

    def test_non_string_keys_normalised(self, tmp_path):
        path = save_artifact(str(tmp_path), "fig11", {1: 0.9, 16: 1.0})
        loaded = load_artifact(path)
        assert loaded["data"] == {"1": 0.9, "16": 1.0}

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_artifact(str(path))

    def test_failed_dump_leaves_no_staging_file(self, tmp_path):
        # A set is not JSON-serialisable: the dump fails mid-write.
        with pytest.raises(TypeError):
            save_artifact(str(tmp_path), "x", {"a": {1, 2}})
        assert list(tmp_path.iterdir()) == []


class TestCLISave:
    def test_fig9_save_flag(self, tmp_path, capsys):
        from repro.harness.__main__ import main
        assert main(["fig9", "--scale", "0.1", "--threads", "2",
                     "--seed", "3", "--save", str(tmp_path)]) == 0
        saved = list(tmp_path.glob("fig9.json"))
        assert len(saved) == 1
        loaded = load_artifact(str(saved[0]))
        assert "queue" in loaded["data"]
