"""Byte digests of the outputs a refactor must leave unchanged.

Run from the repository root:

    PYTHONPATH=src python -m tests.digests [--c5]

and compare the printed sha256 prefixes before and after a change.  It
prints, one line each: criterion 1's report file, 300 Haar n = 4
`sm_residual` JSONs, 10 Haar n = 5 `sm_residual` JSONs at one restart and
no sweep (their m = 4 leaves run the nested level-3 linear programs), the
CSVs of `batch --family haar --n 3..4 --samples 100 --seed 7` and
`batch --family wclass --n 3..6 --samples 20 --seed 7` (in-process,
`--jobs 1`), the `tangle` JSON of ten state files with the manifest's
`command` and `input` blanked, four single-reduction `tangle --partners`
JSONs, blanked alike (a closed form, a rank-2 linear program, an m = 4
certified zero and the rank-4 search of `haar_random_state(5, 3)`), and
with `--c5` criterion 5's record file.  Nothing is timed.  The file is
not collected by pytest.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from monotangle import cli
from monotangle.monogamy import sm_residual
from monotangle.qstate import haar_random_state, ket_from_basis_terms, save_state
from monotangle.roof import RoofConfig
from monotangle.wclass import wclass_random, wclass_state

from .test_acceptance import (
    run_criterion1,
    run_criterion5,
    serialize_records,
    serialize_reports,
)

HAAR_CFG = RoofConfig(restarts=2, max_sweeps=1)
HAAR5_CFG = RoofConfig(restarts=1, max_sweeps=0)
# (state file, --partners) of the single-reduction lines
PARTNERS = (("haar4", "2"), ("haar4", "2,3"), ("wclass5", "2,3,4"),
            ("haar5", "2,3"))
BATCHES = {
    "batch haar": ["--family", "haar", "--n", "3..4", "--samples", "100"],
    "batch wclass": ["--family", "wclass", "--n", "3..6", "--samples", "20"],
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def tangle_states() -> dict:
    states = {"bell": ket_from_basis_terms(2, [("00", 2 ** -0.5),
                                               ("11", 2 ** -0.5)])}
    for n in (2, 3, 4):
        states[f"haar{n}"] = haar_random_state(n, 3)
    states["wclass5"] = wclass_state(wclass_random(5, 3))
    return states


def invoke(args) -> str:
    result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    if result.exit_code != 0:
        raise SystemExit(f"{' '.join(args)} exited {result.exit_code}: "
                         f"{result.stderr}")
    return result.stdout


def tangle_digest(path: Path, *args) -> str:
    payload = json.loads(invoke(["tangle", str(path), *args]))
    payload["manifest"]["command"] = None
    payload["manifest"]["input"] = None
    return digest(json.dumps(payload, indent=2, sort_keys=True).encode())


def main(argv) -> None:
    print(f"C1: {digest(serialize_reports(run_criterion1()))}")
    haar = [sm_residual(haar_random_state(4, s), 1, HAAR_CFG).to_json_dict()
            for s in range(300)]
    print(f"Haar n = 4: {digest(json.dumps(haar, sort_keys=True).encode())}")
    haar5 = [sm_residual(haar_random_state(5, s), 1, HAAR5_CFG).to_json_dict()
             for s in range(10)]
    print(f"Haar n = 5: {digest(json.dumps(haar5, sort_keys=True).encode())}")
    for name, args in BATCHES.items():
        csv = invoke(["batch", *args, "--seed", "7", "--jobs", "1"])
        print(f"{name}: {digest(csv.encode())}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, state in tangle_states().items():
            path = Path(tmp) / f"{name}.json"
            save_state(state, path)
            for focus in (1, 2):
                line = tangle_digest(path, "--focus", str(focus))
                print(f"tangle {name} hub {focus}: {line}")
        save_state(haar_random_state(5, 3), Path(tmp) / "haar5.json")
        for name, partners in PARTNERS:
            line = tangle_digest(Path(tmp) / f"{name}.json",
                                 "--partners", partners)
            print(f"tangle {name} --partners {partners}: {line}")
    if "--c5" in argv:
        print(f"C5: {digest(serialize_records(run_criterion5()))}")


if __name__ == "__main__":
    main(sys.argv[1:])
