"""Every output file is written whole or not at all."""

import json

import pytest

from tiltedbh.tables import write_json, write_table


def _rows_that_fail_mid_file():
    yield (1, 0.5)
    yield (2, 0.25)
    raise RuntimeError("killed mid-file")


def _unserializable(path):
    write_json(path, {"value": object()})


@pytest.mark.parametrize("write", [
    lambda path: write_table(path, ["i", "p"], _rows_that_fail_mid_file(),
                             {"seed": 1}),
    _unserializable,
], ids=["table", "json"])
@pytest.mark.parametrize("existing", [b"# seed=0\ni,p\n0,1.0\n", None],
                         ids=["over_a_file", "new_file"])
def test_a_failed_write_leaves_the_old_file_and_no_temporary(tmp_path, write,
                                                             existing):
    path = tmp_path / "out.csv"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises((RuntimeError, TypeError)):
        write(path)
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert path.read_bytes() == existing
        assert list(tmp_path.iterdir()) == [path]


def test_a_write_replaces_the_old_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old")
    write_json(path, {"a": 1}, {"seed": 2})
    assert json.loads(path.read_text()) == {"a": 1, "seed": 2}
    write_table(path, ["a"], [(0.1,), (2,)], {"seed": 2})
    assert path.read_text() == "# seed=2\na\n0.1\n2\n"
    assert list(tmp_path.iterdir()) == [path]
