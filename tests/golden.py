"""The golden corpus: `run`, `transform`, `classical`, `gen` and `verify`
commands with their bytes.

Each case is a list of `oneclean` argv lists run in order, in process, from
the directory `work/` of a fresh scratch root whose sibling `data/` holds a
copy of the fixtures in `tests/data`. Paths in an argv are
relative to `work/`, so the `config` echo of a path is the same on every
run. `tests/data/golden/<case>/` holds:

- `steps.json`: each step's argv and exit code;
- `<i>.stdout`: what step i wrote on stdout;
- `files/...`: every file the steps left in `work/`.

`tests/test_golden.py` reruns every case and compares these bytes. To
rewrite the corpus after a deliberate change of report bytes, run

    PYTHONPATH=src python tests/golden.py

from the repository root, and list each changed file and the reason for
the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import helpers  # registers the fixtures' matrix_table generator
from oneclean import cli

CORPUS = helpers.DATA / "golden"

README_PASSES = ["--pass", "k1", "--pass", "sq-measure", "--pass", "trace-form", "--pass", "unclock"]
# the fixtures' player inputs: a one-bit Alice input for the two-clean ones,
# none for the hand-built trace forms, whose pieces are all explicit
_FIXTURE_RUNS = {
    "two_clean_v2": ["--inputs", '{"0":"1","1":""}'],
    "two_clean_v3": ["--inputs", '{"0":"0","1":""}', "--backend", "ensemble"],
    "trace_form_v1": ["--backend", "trace"],
    "unclocked_v1": ["--backend", "trace"],
    "unclocked_v2": ["--backend", "trace"],
    "unclocked_v3": [],
}

CASES: dict[str, list[list[str]]] = {
    "readme-run-ip2-all-inputs": [["run", "--protocol", "ip2-one-clean", "--n", "2", "--all-inputs"]],
    "readme-run-middle": [["run", "--protocol", "middle", "--n", "4", "--x", "1100", "--y", "1010"]],
    "readme-run-abc": [["run", "--protocol", "abc", "--n", "4", "--label", "-1", "--seed", "7"]],
    "readme-transform-then-run-descriptor": [
        ["transform", "--protocol", "ip2-clocked", "--n", "1", *README_PASSES, "--out-dir", "out/"],
        ["run", "--descriptor", "out/protocol.json", "--backend", "trace", "--inputs", '{"0":"1","1":"1"}'],
    ],
    "transform-middle-lemma1": [
        ["transform", "--protocol", "middle", "--n", "2", "--pass", "lemma1", "--out-dir", "out"],
    ],
    "run-csv-out": [
        ["run", "--protocol", "ip2-one-clean", "--n", "1", "--all-inputs", "--csv", "--out", "report.csv"],
    ],
    "run-json-out-clocked": [
        ["run", "--protocol", "ip2-clocked", "--n", "2", "--x", "11", "--y", "01", "--out", "report.json"],
    ],
    "run-middle-one-clean-seed": [
        ["run", "--protocol", "middle-one-clean", "--n", "2", "--x", "01", "--y", "11", "--seed", "3"],
    ],
    "run-ensemble-samples": [
        ["run", "--protocol", "ip2-one-clean", "--n", "2", "--x", "10", "--y", "11",
         "--backend", "ensemble", "--samples", "3", "--seed", "5"],
    ],
    "run-ensemble-all-csv": [
        ["run", "--protocol", "ip2-one-clean", "--n", "1", "--all-inputs", "--backend", "ensemble",
         "--seed", "7", "--csv"],
    ],
    **{
        f"run-descriptor-{stem}": [["run", "--descriptor", f"../data/{stem}.json", *extra]]
        for stem, extra in _FIXTURE_RUNS.items()
    },
    "gen-abc-instance-then-run": [
        ["gen", "abc-instance", "--n", "2", "--label", "-1", "--seed", "3", "--out-dir", "inst/"],
        ["run", "--protocol", "abc", "--instance", "inst/", "--out", "run.json"],
    ],
    "readme-gen-abc-instance": [
        ["gen", "abc-instance", "--n", "8", "--label", "-1", "--seed", "3", "--out-dir", "inst/"],
    ],
    "readme-gen-razborov": [["gen", "razborov", "--n", "14", "--which", "mu1", "--count", "100", "--seed", "1"]],
    "gen-razborov-pad-out": [
        ["gen", "razborov", "--n", "14", "--which", "mu0", "--count", "5", "--pad", "--seed", "2",
         "--out", "pairs.csv"],
    ],
    "readme-gen-middle-pad": [["gen", "middle-pad", "--n", "14", "--x", "00000101", "--y", "00100010"]],
    "readme-classical-caps": [["classical", "caps", "--n", "4", "--k", "1", "--samples", "100000", "--seed", "1"]],
    "readme-classical-abc": [["classical", "abc", "--n", "16", "--k", "2", "--trials", "100", "--seed", "7"]],
    "readme-classical-knr": [["classical", "knr", "--n", "32", "--eps", "0.05", "--trials", "1000", "--seed", "1"]],
    "readme-classical-disc-out": [
        ["classical", "disc", "--matrix", "../data/eq2.csv", "--seed", "1", "--out", "disc.json"],
    ],
    "readme-verify-quick": [["verify", "--quick"]],
}


def run_case(steps: list[list[str]], root: Path) -> dict[str, bytes]:
    """Run ``steps`` from ``root/work`` and return the corpus files they make."""
    work = root / "work"
    work.mkdir(parents=True)
    shutil.copytree(helpers.DATA, root / "data", ignore=shutil.ignore_patterns("golden"))
    got, record = {}, []
    here = os.getcwd()
    os.chdir(work)
    try:
        for i, argv in enumerate(steps):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            record.append({"argv": argv, "exit": code})
            got[f"{i}.stdout"] = out.getvalue().encode()
    finally:
        os.chdir(here)
    got["steps.json"] = (json.dumps(record, indent=1) + "\n").encode()
    for path in sorted(work.rglob("*")):
        if path.is_file():
            got[f"files/{path.relative_to(work).as_posix()}"] = path.read_bytes()
    return got


def read_case(name: str) -> dict[str, bytes]:
    """The committed corpus files of case ``name``."""
    root = CORPUS / name
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def main(scratch: Path) -> None:
    if CORPUS.exists():
        shutil.rmtree(CORPUS)
    for name, steps in CASES.items():
        for rel, data in run_case(steps, scratch / name).items():
            path = CORPUS / name / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        print(f"wrote {CORPUS / name}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
