"""CLI golden transcripts: SHA-256 of stdout, stderr and every file each command writes.

The commands run in order, in process, through ``cli.main`` inside one fresh
directory, so later commands read the files that earlier ones wrote (encaps
reads keygen's key, the fixed-key campaign reads a weak key).  Paths are
relative, so no digest depends on where the directory lies.  ``dfr`` runs
with ``--no-timestamp``, and each record's ``wall_time_s`` is set to 0
before its stdout or file is hashed.

The digests live in ``tests/golden_cli.json``.  Only an explicit

    PYTHONPATH=src python tests/test_golden_cli.py --pin

rewrites that file; pytest only compares.  A digest that changes is a
behaviour change.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from bikelab import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

L1 = ["--level", "1"]
R1259 = ["--r", "1259", "--w", "42", "--t", "30"]
TOY = ["--r", "613", "--w", "30", "--t", "14"]
DFR = ["dfr", "--no-timestamp"]

# (name, argv); names are the golden file's keys, in run order
CASES = [
    ("eta-type1", ["eta", *L1, "--type", "1", "--param-range", "5:40:5"]),
    ("eta-type2", ["eta", *L1, "--type", "2", "--param-range", "5,10", "--s", "3"]),
    ("eta-type3", ["eta", *L1, "--type", "3", "--param-range", "1:20:3",
                   "--out", "eta3.csv"]),
    ("keygen-l1", ["keygen", *L1, "--seed", "42", "--key-out", "key.json"]),
    ("keygen-l1-check", ["keygen", *L1, "--seed", "5", "--check", "--key-out",
                         "checked.json"]),
    ("weakkey-gen-type1", ["weakkey", "gen", *L1, "--type", "1", "--f", "40", "--seed", "3",
                           "--key-out", "weak1.json", "--spectrum-csv", "spec1.csv"]),
    ("weakkey-gen-type3", ["weakkey", "gen", *L1, "--type", "3", "--m", "20", "--seed", "4",
                           "--key-out", "weak3.json", "--spectrum-csv", "spec3.csv"]),
    ("keycheck-weak", ["keycheck", "--key", "weak1.json"]),
    ("keycheck-normal", ["keycheck", "--key", "key.json", "--out", "verdict.json"]),
    ("encaps", ["encaps", "--key", "key.json", "--seed", "7", "--ct-out", "ct.json",
                "--ss-out", "ss.json"]),
    ("decaps", ["decaps", "--key", "key.json", "--ct", "ct.json", "--ss-out", "ss2.json",
                "--diagnostics", "--trace-csv", "trace.csv"]),
    ("dfr-sweep", [*DFR, "--r", "523", "--w", "30", "--t", "18", "--rs", "523,613",
                   "--max-trials", "300", "--min-failures", "100000",
                   "--extrapolate-to", "12323", "--eta-from", "type1:f=5",
                   "--queries", "8"]),
    ("dfr-l1-weak-csv", [*DFR, *L1, "--key-class", "weak:type1:f=35", "--max-trials", "5",
                         "--format", "csv", "--out", "dfr-l1.csv"]),
    ("weakkey-gen-r1259", ["weakkey", "gen", *R1259, "--type", "1", "--f", "10",
                           "--seed", "3", "--key-out", "k1259.json"]),
    ("dfr-r1259-fixed-psi", [*DFR, *R1259, "--key-class", "fixed:k1259.json",
                             "--error-source", "psi:1", "--max-trials", "200",
                             "--out", "probe.json"]),
    ("exit2-partial-params", ["keygen", "--r", "613", "--key-out", "never.json"]),
    ("exit2-queries-zero", [*DFR, *TOY, "--extrapolate-to", "12323",
                            "--eta-from", "type1:f=5", "--queries", "0"]),
    ("exit3-missing-key", ["keycheck", "--key", "missing.json"]),
    ("exit3-not-a-key", ["encaps", "--key", "trace.csv", "--ct-out", "never.json",
                         "--ss-out", "never2.json"]),
    ("exit4-check-budget", ["keygen", *TOY, "--seed", "1", "--check", "--check-threshold",
                            "1", "--check-budget", "3", "--key-out", "never.json"]),
    # behaviour changes: each of these once ran on, or failed only late
    ("exit2-check-budget-zero", ["keygen", *TOY, "--check", "--check-budget", "0",
                                 "--key-out", "never.json"]),
    ("exit2-repeated-weak-param", [*DFR, *TOY, "--key-class", "weak:type1:f=10,f=5",
                                   "--max-trials", "10"]),
    ("exit2-eta-s-without-type2", ["eta", *L1, "--type", "1", "--param-range", "5",
                                   "--s", "5"]),
    ("exit2-fixed-key-mismatch", [*DFR, "--r", "1259", "--w", "142", "--t", "30",
                                  "--key-class", "fixed:k1259.json", "--max-trials", "20"]),
    ("exit2-fixed-key-rs", [*DFR, *R1259, "--rs", "1259,1283", "--key-class",
                            "fixed:k1259.json", "--max-trials", "20"]),
    ("exit2-l-without-custom", ["keygen", *L1, "--l", "128", "--key-out", "never.json"]),
    ("exit2-level-with-custom", ["keygen", "--level", "3", *TOY, "--key-out", "never.json"]),
    ("exit2-psi-unplaceable", [*DFR, "--r", "9", "--w", "2", "--t", "8", "--error-source",
                               "psi:3", "--max-trials", "3"]),
    ("exit2-type1-too-few-images", ["weakkey", "gen", "--r", "15", "--w", "10", "--t", "4",
                                    "--type", "1", "--f", "4", "--d", "5",
                                    "--key-out", "never.json"]),
    ("exit2-type2-chain-fills-cycle", [*DFR, "--r", "19", "--w", "14", "--t", "4",
                                       "--rs", "19,21", "--key-class", "weak:type2:m=6,d=3",
                                       "--max-trials", "2"]),
    ("exit2-type2-fill-beyond-capacity", ["weakkey", "gen", "--r", "15", "--w", "14", "--t",
                                          "4", "--type", "2", "--m", "1", "--d", "5",
                                          "--key-out", "never.json"]),
    ("exit2-psi-unplaceable-rs", [*DFR, "--r", "23", "--w", "2", "--t", "22", "--rs", "23,25",
                                  "--error-source", "psi:5", "--max-trials", "300"]),
    # the verdict's cross-block reason and the extrapolation's dropped list, both reasons
    ("keycheck-type3", ["keycheck", "--key", "weak3.json"]),
    ("dfr-dropped", [*DFR, "--r", "523", "--w", "30", "--t", "18", "--rs", "523,541,547,1019",
                     "--max-trials", "64", "--min-failures", "1000000", "--seed", "13",
                     "--extrapolate-to", "12323"]),
    ("weakkey-gen-type2", ["weakkey", "gen", *L1, "--type", "2", "--m", "5", "--d", "3",
                           "--seed", "6", "--key-out", "weak2.json"]),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _masked(data: bytes) -> bytes:
    """A dfr JSON document with every record's wall_time_s set to 0; other bytes as they are."""
    try:
        blob = json.loads(data)
    except ValueError:
        return data
    if not isinstance(blob, dict) or "records" not in blob:
        return data
    for rec in blob["records"]:
        rec["wall_time_s"] = 0
    return (json.dumps(blob, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _snapshot(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()}


def run_case(argv: list[str], workdir: Path) -> dict:
    """Exit code and digests of one in-process command run inside workdir."""
    before = _snapshot(workdir)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    after = _snapshot(workdir)
    written = {name: _digest(_masked(data)) for name, data in sorted(after.items())
               if before.get(name) != data}
    return {"exit": code, "stdout": _digest(_masked(out.getvalue().encode())),
            "stderr": _digest(err.getvalue().encode()), "files": written}


def transcripts(workdir: Path) -> dict[str, dict]:
    return {name: run_case(argv, workdir) for name, argv in CASES}


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return transcripts(tmp_path_factory.mktemp("golden_cli"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert list(golden) == [name for name, _ in CASES]


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_transcript(name, observed, golden):
    assert observed[name] == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit(f"usage: {sys.argv[0]} --pin   (rewrites {GOLDEN.name})")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(transcripts(Path(tmp)), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
