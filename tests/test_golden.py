import difflib

import pytest

import golden


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_cli_output_matches_the_golden_corpus(tmp_path, name):
    want = golden.read_case(name)
    got = golden.run_case(golden.CASES[name], tmp_path)
    diffs = []
    for rel in sorted(want.keys() | got.keys()):
        if want.get(rel) != got.get(rel):
            diffs.extend(difflib.unified_diff(
                want.get(rel, b"").decode().splitlines(keepends=True),
                got.get(rel, b"").decode().splitlines(keepends=True),
                f"golden/{name}/{rel}", f"now/{name}/{rel}",
            ))
    assert not diffs, "".join(diffs)
