import difflib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import golden

README = Path(__file__).resolve().parents[1] / "README.md"


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


def _command(argv: list[str]) -> tuple[str, ...]:
    """The command and, where it has one, the subcommand that ``argv`` names."""
    return tuple(argv[:2]) if len(argv) > 1 and not argv[1].startswith("-") else tuple(argv[:1])


def test_the_corpus_covers_every_cli_block_in_the_readme():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    readme = {
        _command(argv[1:])
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if (argv := shlex.split(line, comments=True))[:1] == ["oneclean"]
    }
    covered = {_command(argv) for steps in golden.CASES.values() for argv in steps}
    assert readme and not readme - covered, sorted(readme - covered)


def test_verify_quick_prints_its_golden_bytes_on_another_blas_kernel():
    # A DYNAMIC_ARCH OpenBLAS reads OPENBLAS_CORETYPE when it loads, so only a fresh process
    # switches kernel (another build ignores the variable). Haswell's roundoff differs from
    # the corpus's in the last bits, which a passing check's detail line must not print.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_CORETYPE": "Haswell"}
    code = "import sys; from oneclean import cli; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *golden.CASES["readme-verify-quick"][0]],
                          env=env, capture_output=True, check=True)
    assert proc.stdout == golden.read_case("readme-verify-quick")["0.stdout"]
