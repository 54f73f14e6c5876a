import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from bikelab import (HonestErrors, NormalKeys, NotInvertibleError, SchemaError, StopRule,
                     cli, confidence_interval, count_type1, count_type3_upper,
                     custom_params, decoder, extrapolate, files, run_dfr)
from bikelab.cli import build_parser, main
from bikelab.kem import expand_u64_seed
from bikelab.ring import DensePoly
from bikelab.weakkeys import WeakKeySpec, log2_density, spectrum

from ring_oracle import invert_oracle

TOY_ARGS = ["--r", "613", "--w", "30", "--t", "14"]
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """The environment with this checkout's src first on PYTHONPATH, for child processes."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def keyfile(tmp_path, capsys):
    path = str(tmp_path / "key.json")
    code, _, _ = run_cli(capsys, "keygen", *TOY_ARGS, "--seed", "42", "--key-out", path)
    assert code == 0
    return path


class TestKeygen:
    def test_writes_expected_schema(self, keyfile):
        blob = read_json(keyfile)
        assert set(blob) == {"params", "h0_support", "h1_support", "sigma_hex", "h_hex"}
        assert blob["params"]["standard"] is False
        assert len(blob["h0_support"]) == 15

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run_cli(capsys, "keygen", *TOY_ARGS, "--seed", "7", "--key-out", a)
        run_cli(capsys, "keygen", *TOY_ARGS, "--seed", "7", "--key-out", b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_check_with_maximal_threshold_accepts_first(self, tmp_path, capsys):
        path = str(tmp_path / "k.json")
        code, out, _ = run_cli(capsys, "keygen", *TOY_ARGS, "--seed", "1",
                               "--key-out", path, "--check", "--check-threshold", "15")
        assert code == 0
        assert json.loads(out)["rejected"] == 0

    def test_check_t1_budget_exhausted(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "keygen", *TOY_ARGS, "--seed", "1",
                               "--key-out", str(tmp_path / "k.json"),
                               "--check", "--check-threshold", "1",
                               "--check-budget", "10")
        assert code == 4
        assert "budget" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_check_budget_below_one_rejected(self, tmp_path, capsys, budget):
        path = tmp_path / "k.json"
        code, out, err = run_cli(capsys, "keygen", *TOY_ARGS, "--key-out", str(path),
                                 "--check", "--check-budget", budget)
        assert code == 2
        assert err == f"parameter error: check budget must be >= 1, got {budget}\n"
        assert out == "" and not path.exists()

    def test_partial_custom_params_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "keygen", "--r", "613", "--seed", "1",
                               "--key-out", str(tmp_path / "k.json"))
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (["--level", "1", "--l", "128"], "--l is read only with --r, --w, --t"),
        (["--l", "128"], "--l is read only with --r, --w, --t"),
        (["--level", "3", *TOY_ARGS], "--level does not combine with --r, --w, --t"),
        (["--level", "1", "--r", "613"], "--level does not combine with --r, --w, --t"),
    ], ids=["level-and-l", "l-alone", "level-and-custom", "level-and-partial"])
    def test_parameter_flag_that_is_not_read_rejected(self, tmp_path, capsys, argv, message):
        path = tmp_path / "k.json"
        code, out, err = run_cli(capsys, "keygen", *argv, "--key-out", str(path))
        assert code == 2
        assert err == f"parameter error: {message}\n"
        assert out == "" and not path.exists()

    def test_parameter_defaults(self, tmp_path, capsys):
        # no parameter flag gives L1; a custom set without --l has l = 256
        runs = {"none": [], "L1": ["--level", "1"], "toy": TOY_ARGS,
                "toy-l128": [*TOY_ARGS, "--l", "128"]}
        for name, argv in runs.items():
            code, _, _ = run_cli(capsys, "keygen", *argv, "--key-out", str(tmp_path / name))
            assert code == 0
        assert (tmp_path / "none").read_bytes() == (tmp_path / "L1").read_bytes()
        assert read_json(tmp_path / "none")["params"]["level"] == "L1"
        assert read_json(tmp_path / "toy")["params"]["l"] == 256
        assert read_json(tmp_path / "toy-l128")["params"]["l"] == 128

    def test_uninvertible_h0_budget_exhausted(self, tmp_path, capsys, monkeypatch):
        def never_invertible(self):
            raise NotInvertibleError("forced")
        monkeypatch.setattr(DensePoly, "invert", never_invertible)
        code, _, err = run_cli(capsys, "keygen", *TOY_ARGS, "--seed", "1",
                               "--key-out", str(tmp_path / "k.json"))
        assert code == 4
        assert "budget exhausted" in err


def edited_copy(path, tmp_path, **fields):
    """Copy of a JSON file with fields replaced, transformed (callable) or deleted (None)."""
    blob = read_json(path)
    for name, value in fields.items():
        if value is None:
            del blob[name]
        else:
            blob[name] = value(blob[name]) if callable(value) else value
    out = str(tmp_path / "edited.json")
    with open(out, "w") as fh:
        json.dump(blob, fh)
    return out


class TestInputSchema:
    @pytest.mark.parametrize("fields,message", [
        (dict(h0_support=lambda s: [i + 0.7 for i in s]), "h0_support must be a list of integers"),
        (dict(h1_support=lambda s: [str(i) for i in s]), "h1_support must be a list of integers"),
        (dict(h0_support=3), "h0_support must be a list of integers"),
        (dict(params=lambda p: {**p, "t": True}), "params field 't' must be an integer"),
        (dict(params=lambda p: {**p, "w": 30.0}), "params field 'w' must be an integer"),
        (dict(params=lambda p: {k: v for k, v in p.items() if k != "r"}), "params missing 'r'"),
        (dict(params=None), "missing field 'params'"),
        (dict(params=5), "params must be a JSON object"),
        (dict(params=lambda p: {**p, "r": 614}), "invalid params (r must be odd"),
        (dict(h_hex="zz"), "malformed key material"),
        (dict(h0_support=lambda s: s[:-1], h1_support=lambda s: s[:-1]),
         "inconsistent key material"),
        (dict(sigma_hex="00"), "inconsistent key material"),
    ], ids=["float-support", "string-support", "scalar-support", "bool-param",
            "float-param", "missing-param", "missing-params", "scalar-params", "even-r",
            "bad-h-hex", "short-supports", "short-sigma"])
    def test_malformed_key_file(self, tmp_path, capsys, keyfile, fields, message):
        code, out, err = run_cli(capsys, "keycheck", "--key",
                                 edited_copy(keyfile, tmp_path, **fields))
        assert code == 3
        assert out == ""
        assert message in err

    def test_non_object_json(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "keycheck", "--key", str(path))
        assert code == 3
        assert "expected a JSON object" in err

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run_cli(capsys, "keycheck", "--key", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"input error: {path}: not valid JSON (")

    @pytest.mark.parametrize("h_hex", ["zz", 5])
    def test_encaps_malformed_h_hex(self, tmp_path, capsys, keyfile, h_hex):
        code, _, err = run_cli(capsys, "encaps", "--key",
                               edited_copy(keyfile, tmp_path, h_hex=h_hex),
                               "--ct-out", str(tmp_path / "ct.json"),
                               "--ss-out", str(tmp_path / "ss.json"))
        assert code == 3
        assert "malformed h_hex" in err

    @pytest.mark.parametrize("fields,message", [
        (dict(c1_hex="00"), "inconsistent ciphertext"),
        (dict(c0_hex=5), "malformed c0_hex"),
        (dict(c1_hex=5), "malformed c1_hex"),
    ], ids=["short-c1", "scalar-c0", "scalar-c1"])
    def test_malformed_ciphertext(self, tmp_path, capsys, keyfile, fields, message):
        ct = str(tmp_path / "ct.json")
        run_cli(capsys, "encaps", "--key", keyfile, "--seed", "5",
                "--ct-out", ct, "--ss-out", str(tmp_path / "ss.json"))
        code, _, err = run_cli(capsys, "decaps", "--key", keyfile,
                               "--ct", edited_copy(ct, tmp_path, **fields),
                               "--ss-out", str(tmp_path / "ss2.json"))
        assert code == 3
        assert message in err


class TestKemRoundTrip:
    def test_encaps_decaps_files_match(self, tmp_path, capsys, keyfile):
        ct = str(tmp_path / "ct.json")
        ss = str(tmp_path / "ss.json")
        ss2 = str(tmp_path / "ss2.json")
        code, _, _ = run_cli(capsys, "encaps", "--key", keyfile, "--seed", "5",
                             "--ct-out", ct, "--ss-out", ss)
        assert code == 0
        assert set(read_json(ct)) == {"c0_hex", "c1_hex"}
        code, out, _ = run_cli(capsys, "decaps", "--key", keyfile, "--ct", ct,
                               "--ss-out", ss2, "--diagnostics")
        assert code == 0
        assert json.loads(out)["decoder_success"] is True
        assert read_json(ss) == read_json(ss2)

    def test_tampered_c1_changes_key_but_exits_zero(self, tmp_path, capsys, keyfile):
        ct = str(tmp_path / "ct.json")
        ss = str(tmp_path / "ss.json")
        ss2 = str(tmp_path / "ss2.json")
        run_cli(capsys, "encaps", "--key", keyfile, "--seed", "5",
                "--ct-out", ct, "--ss-out", ss)
        blob = read_json(ct)
        c1 = bytearray.fromhex(blob["c1_hex"])
        c1[0] ^= 1
        blob["c1_hex"] = c1.hex()
        with open(ct, "w") as fh:
            json.dump(blob, fh)
        code, _, _ = run_cli(capsys, "decaps", "--key", keyfile, "--ct", ct,
                             "--ss-out", ss2)
        assert code == 0  # implicit rejection never signals failure
        assert read_json(ss) != read_json(ss2)

    def test_truncated_ciphertext_schema_error(self, tmp_path, capsys, keyfile):
        ct = str(tmp_path / "ct.json")
        ss = str(tmp_path / "ss.json")
        run_cli(capsys, "encaps", "--key", keyfile, "--seed", "5",
                "--ct-out", ct, "--ss-out", ss)
        blob = read_json(ct)
        del blob["c1_hex"]
        with open(ct, "w") as fh:
            json.dump(blob, fh)
        code, _, err = run_cli(capsys, "decaps", "--key", keyfile, "--ct", ct,
                               "--ss-out", str(tmp_path / "ss2.json"))
        assert code == 3
        assert "c1_hex" in err

    def test_short_c0_names_field(self, tmp_path, capsys, keyfile):
        ct = str(tmp_path / "ct.json")
        with open(ct, "w") as fh:
            fh.write('{"c0_hex": "00", "c1_hex": "00"}')
        code, _, err = run_cli(capsys, "decaps", "--key", keyfile, "--ct", ct,
                               "--ss-out", str(tmp_path / "ss.json"))
        assert code == 3
        assert "c0_hex" in err

    def test_malformed_json_schema_error(self, tmp_path, capsys, keyfile):
        ct = str(tmp_path / "ct.json")
        with open(ct, "w") as fh:
            fh.write("{not json")
        code, _, _ = run_cli(capsys, "decaps", "--key", keyfile, "--ct", ct,
                             "--ss-out", str(tmp_path / "ss.json"))
        assert code == 3

    def test_missing_file_io_error(self, tmp_path, capsys, keyfile):
        code, _, _ = run_cli(capsys, "decaps", "--key", keyfile,
                             "--ct", str(tmp_path / "absent.json"),
                             "--ss-out", str(tmp_path / "ss.json"))
        assert code == 3

    def test_flipped_public_key_bit_schema_error(self, tmp_path, capsys, keyfile):
        # h_hex must satisfy h * h0 = h1; one flipped bit breaks the identity
        blob = read_json(keyfile)
        h = bytearray.fromhex(blob["h_hex"])
        h[0] ^= 1
        blob["h_hex"] = h.hex()
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(blob, fh)
        with pytest.raises(SchemaError):
            files.read_key(bad)
        code, _, err = run_cli(capsys, "keycheck", "--key", bad)
        assert code == 3
        assert "h_hex" in err

    def test_diagnostics_decode_once(self, tmp_path, capsys, keyfile, monkeypatch):
        calls = []
        real = decoder.bgf_decode

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(decoder, "bgf_decode", counting)
        ct = str(tmp_path / "ct.json")
        trace = str(tmp_path / "trace.csv")
        run_cli(capsys, "encaps", "--key", keyfile, "--seed", "5",
                "--ct-out", ct, "--ss-out", str(tmp_path / "ss.json"))
        code, out, _ = run_cli(capsys, "decaps", "--key", keyfile, "--ct", ct,
                               "--ss-out", str(tmp_path / "ss2.json"),
                               "--diagnostics", "--trace-csv", trace)
        assert code == 0
        assert len(calls) == 1
        rows = open(trace).read().strip().splitlines()[1:]
        assert len(rows) == json.loads(out)["iterations"]
        assert read_json(str(tmp_path / "ss.json")) == read_json(str(tmp_path / "ss2.json"))

    def test_trace_csv(self, tmp_path, capsys, keyfile):
        ct = str(tmp_path / "ct.json")
        trace = str(tmp_path / "trace.csv")
        run_cli(capsys, "encaps", "--key", keyfile, "--seed", "5",
                "--ct-out", ct, "--ss-out", str(tmp_path / "ss.json"))
        code, _, _ = run_cli(capsys, "decaps", "--key", keyfile, "--ct", ct,
                             "--ss-out", str(tmp_path / "ss2.json"),
                             "--diagnostics", "--trace-csv", trace)
        assert code == 0
        lines = open(trace).read().strip().splitlines()
        assert lines[0] == "iter,syndrome_weight,threshold,flips,black,gray"
        assert len(lines) >= 2

    def test_trace_csv_without_diagnostics(self, tmp_path, capsys, keyfile):
        ct = str(tmp_path / "ct.json")
        trace = str(tmp_path / "trace.csv")
        run_cli(capsys, "encaps", "--key", keyfile, "--seed", "5",
                "--ct-out", ct, "--ss-out", str(tmp_path / "ss.json"))
        code, out, _ = run_cli(capsys, "decaps", "--key", keyfile, "--ct", ct,
                               "--ss-out", str(tmp_path / "ss2.json"),
                               "--trace-csv", trace)
        assert code == 0
        assert set(json.loads(out)) == {"shared_key_file"}
        lines = open(trace).read().strip().splitlines()
        assert lines[0] == "iter,syndrome_weight,threshold,flips,black,gray"
        assert len(lines) >= 2


class TestWeakkeyAndKeycheck:
    def test_weak_key_flagged(self, tmp_path, capsys):
        wkey = str(tmp_path / "wkey.json")
        code, _, _ = run_cli(capsys, "weakkey", "gen", "--type", "1", "--f", "12",
                             "--d", "2", "--r", "1019", "--w", "42", "--t", "30",
                             "--seed", "3", "--key-out", wkey)
        assert code == 0
        code, out, _ = run_cli(capsys, "keycheck", "--key", wkey, "--threshold", "10")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["verdict"] == "Weak"
        assert verdict["T"] == 10

    def test_normal_key_verdict(self, capsys, keyfile):
        code, out, _ = run_cli(capsys, "keycheck", "--key", keyfile, "--threshold", "10")
        assert code == 0
        assert json.loads(out)["verdict"] == "Normal"

    def test_spectrum_csv_matches_library(self, tmp_path, capsys):
        wkey = str(tmp_path / "wkey.json")
        csv_path = str(tmp_path / "spec.csv")
        run_cli(capsys, "weakkey", "gen", "--type", "2", "--d", "3", "--m", "9",
                "--r", "1019", "--w", "42", "--t", "30", "--seed", "4",
                "--key-out", wkey, "--spectrum-csv", csv_path)
        _, sk, _ = files.read_key(wkey)
        spec = spectrum(sk.h0)
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "d,multiplicity"
        assert len(lines) == 1 + 1019 // 2
        for row in lines[1:5]:
            d, m = (int(x) for x in row.split(","))
            assert spec.mult[d] == m

    def test_weak_key_file_supports_encaps(self, tmp_path, capsys):
        wkey = str(tmp_path / "wkey.json")
        run_cli(capsys, "weakkey", "gen", "--type", "3", "--m", "9", *TOY_ARGS,
                "--seed", "5", "--key-out", wkey)
        code, _, _ = run_cli(capsys, "encaps", "--key", wkey, "--seed", "6",
                             "--ct-out", str(tmp_path / "ct.json"),
                             "--ss-out", str(tmp_path / "ss.json"))
        assert code == 0


    @pytest.mark.parametrize("argv,descriptor", [
        (["--type", "1", "--f", "4", "--r", "105", "--seed", "0"], "type1:f=4"),
        (["--type", "3", "--m", "3", "--r", "127", "--seed", "3"], "type3:m=3"),
    ], ids=["type1-r105", "type3-r127"])
    def test_non_invertible_h0_is_a_parameter_error(self, tmp_path, capsys, argv, descriptor):
        params = custom_params(r=int(argv[5]), w=14, t=4)
        h0 = WeakKeySpec.parse(descriptor).sample(params, expand_u64_seed(int(argv[7]))).h0
        with pytest.raises(NotInvertibleError):
            invert_oracle(h0.to_dense())  # the Euclid oracle agrees: h0 has no inverse
        path = tmp_path / "k.json"
        code, _, err = run_cli(capsys, "weakkey", "gen", *argv, "--w", "14", "--t", "4",
                               "--key-out", str(path))
        assert code == 2
        assert err == (f"parameter error: h0 is not invertible at r={argv[5]}; try another "
                       "--seed, or a KEM-grade r (prime, with 2 primitive mod r)\n")
        assert not path.exists()

    @pytest.mark.parametrize("descriptor,flags", [
        ("type1:f=5,d=2,shift=3", ["--type", "1", "--f", "5", "--d", "2", "--shift", "3"]),
        ("type1:f=5", ["--type", "1", "--f", "5"]),
        ("type2:m=3,d=4", ["--type", "2", "--m", "3", "--d", "4"]),
        ("type3:m=3", ["--type", "3", "--m", "3"]),
    ])
    def test_weak_spec_matches_the_descriptor(self, tmp_path, capsys, descriptor, flags):
        code, out, _ = run_cli(capsys, "weakkey", "gen", *flags, *TOY_ARGS, "--seed", "4",
                               "--key-out", str(tmp_path / "k.json"))
        assert code == 0
        assert json.loads(out)["weak_spec"] == asdict(WeakKeySpec.parse(descriptor))

    @pytest.mark.parametrize("flags", [
        ["--type", "3", "--m", "3", "--f", "9"],
        ["--type", "3", "--m", "3", "--d", "1"],
        ["--type", "3", "--m", "3", "--shift", "4"],
        ["--type", "2", "--m", "3", "--f", "4"],
        ["--type", "1", "--f", "4", "--m", "2"],
    ])
    def test_parameter_the_family_does_not_read_rejected(self, tmp_path, capsys, flags):
        code, _, err = run_cli(capsys, "weakkey", "gen", *flags, *TOY_ARGS,
                               "--key-out", str(tmp_path / "k.json"))
        assert code == 2
        assert f"type {flags[1]} takes no {flags[4][2:]}" in err

    @pytest.mark.parametrize("flags,message", [
        (["--type", "3", "--m", "1", "--r", "11", "--w", "14", "--t", "4"],
         "type 3 needs r >= w - m = 13, got r=11"),
        (["--type", "2", "--m", "2", "--d", "1", "--r", "11", "--w", "30", "--t", "4"],
         "w/2 must be at most r, got w=30 and r=11"),
        (["--type", "1", "--f", "4", "--d", "5", "--r", "15", "--w", "10", "--t", "4"],
         "type 1 needs w/2 <= r/gcd(r, d) = 3, got w/2=5 at d=5"),
        (["--type", "2", "--m", "2", "--d", "5", "--r", "15", "--w", "10", "--t", "4"],
         "type 2 needs m + 1 < r/gcd(r, d) = 3, got m=2 at d=5"),
        (["--type", "2", "--m", "6", "--d", "3", "--r", "21", "--w", "14", "--t", "4"],
         "type 2 needs m + 1 < r/gcd(r, d) = 7, got m=6 at d=3"),
        (["--type", "2", "--m", "1", "--d", "1", "--r", "11", "--w", "18", "--t", "4"],
         "type 2 fits at most 6 positions with exactly m=1 pairs at d=1 in r=11, got w/2=9"),
        (["--type", "2", "--m", "1", "--d", "5", "--r", "15", "--w", "14", "--t", "4"],
         "type 2 fits at most 6 positions with exactly m=1 pairs at d=5 in r=15, got w/2=7"),
    ], ids=["type3-fill-short", "type2-w2-above-r", "type1-too-few-images",
            "type2-chain-overflows-cycle", "type2-chain-fills-cycle",
            "type2-fill-beyond-capacity-d1", "type2-fill-beyond-capacity-d5"])
    def test_unfillable_weak_key_rejected(self, tmp_path, flags, message):
        # in a child process with a timeout: a fill loop that cannot finish
        # would hang the suite instead of failing this test
        proc = subprocess.run([sys.executable, "-m", "bikelab.cli", "weakkey", "gen", *flags,
                               "--key-out", str(tmp_path / "k.json")],
                              capture_output=True, text=True, timeout=60, env=src_env())
        assert proc.returncode == 2
        assert message in proc.stderr
        assert not (tmp_path / "k.json").exists()


class TestDfrCommand:
    def test_records_and_csv(self, tmp_path, capsys):
        args = ["dfr", "--r", "523", "--w", "30", "--t", "18",
                "--key-class", "normal", "--max-trials", "64", "--min-failures", "5",
                "--seed", "11", "--no-timestamp"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        blob = json.loads(out)
        assert len(blob["records"]) == 1
        rec = blob["records"][0]
        assert rec["params"]["r"] == 523
        assert rec["timestamp"] == ""

        code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        lines = out_csv.strip().splitlines()
        assert lines[0] == "r,trials,failures,dfr,ci_low,ci_high"
        assert lines[1].split(",")[0] == "523"

    def test_library_and_cli_write_one_record(self, capsys):
        code, out, _ = run_cli(capsys, "dfr", "--r", "523", "--w", "30", "--t", "18",
                               "--rs", "523,541", "--max-trials", "64",
                               "--min-failures", "1000000", "--seed", "13",
                               "--no-timestamp", "--extrapolate-to", "12323")
        assert code == 0
        blob = json.loads(out)
        stop = StopRule(min_trials=0, min_failures=1000000, max_trials=64)
        records = [run_dfr(custom_params(r=r, w=30, t=18), NormalKeys(), HonestErrors(),
                           stop, master_seed=13) for r in (523, 541)]
        for rec in records + blob["records"]:
            rec["wall_time_s"] = None
        assert records == blob["records"]
        extra = extrapolate(*[(rec["params"]["r"], math.log2(rec["dfr_point"]))
                              for rec in records], 12323)
        assert {**extra, "dropped": []} == blob["extrapolation"]

    def test_timestamp_stamped_unless_disabled(self, capsys):
        args = ["dfr", *TOY_ARGS, "--max-trials", "4", "--min-failures", "1000000"]
        _, out, _ = run_cli(capsys, *args)
        assert json.loads(out)["records"][0]["timestamp"].endswith("+00:00")

    def test_deterministic_across_threads(self, tmp_path, capsys):
        args = ["dfr", "--r", "523", "--w", "30", "--t", "18", "--max-trials", "64",
                "--min-failures", "1000000", "--seed", "12", "--no-timestamp"]
        _, out1, _ = run_cli(capsys, *args, "--threads", "1")
        _, out2, _ = run_cli(capsys, *args, "--threads", "2")
        def strip_wall(text):
            blob = json.loads(text)
            for rec in blob["records"]:
                rec["wall_time_s"] = None
            return blob
        assert strip_wall(out1) == strip_wall(out2)

    def test_single_thread_run_loads_no_pool(self):
        script = ("import sys\n"
                  "from bikelab import cli\n"
                  "cli.main(['dfr', '--r', '523', '--w', '30', '--t', '18', '--max-trials', '4',"
                  " '--threads', '1'])\n"
                  "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
                  " & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("key_class,message", [
        ("weak:type1:f=4,d=5", "type 1 needs w/2 <= r/gcd(r, d) = 3, got w/2=5 at d=5"),
        ("weak:type2:m=2,d=5", "type 2 needs m + 1 < r/gcd(r, d) = 3, got m=2 at d=5"),
    ], ids=["type1", "type2"])
    def test_unplantable_weak_class_refused_before_any_campaign(self, capsys, monkeypatch,
                                                                key_class, message):
        campaigns = []
        monkeypatch.setattr("bikelab.dfr.run_dfr",
                            lambda params, *args, **kwargs: campaigns.append(params))
        # both classes pass the check at r=13; only the sweep's second r, 15, refuses them
        code, out, err = run_cli(capsys, "dfr", "--r", "13", "--w", "10", "--t", "4",
                                 "--rs", "13,15", "--key-class", key_class,
                                 "--max-trials", "2")
        assert (code, out) == (2, "")
        assert message in err
        assert campaigns == []

    def test_unplaceable_psi_r_refused_before_any_campaign(self, capsys, monkeypatch):
        campaigns = []
        monkeypatch.setattr("bikelab.dfr.run_dfr",
                            lambda params, *args, **kwargs: campaigns.append(params))
        # 11 pairs at distance 5 fit at r=23, but only 10 at r=25
        code, out, err = run_cli(capsys, "dfr", "--r", "23", "--w", "2", "--t", "22",
                                 "--rs", "23,25", "--error-source", "psi:5",
                                 "--max-trials", "300", "--verbose")
        assert (code, out) == (2, "")
        assert err == ("parameter error: at most 10 disjoint pairs at distance 5 fit in "
                       "r=25; t=22 needs 11\n")
        assert campaigns == []

    @pytest.mark.parametrize("key_class", ["normal", "weak:type1:f=4", "weak:type2:m=2",
                                           "weak:type3:m=2", "fixed:KEY"])
    def test_every_key_class_is_a_campaign_part(self, keyfile, key_class):
        part = cli._parse_key_class(key_class.replace("KEY", keyfile))
        params = custom_params(r=613, w=30, t=14)
        part.check_params(params)
        assert part.sample(params, expand_u64_seed(1)).h0.weight() == params.w2
        assert part.describe()["kind"] == key_class.split(":")[0]

    @pytest.mark.parametrize("error_source", ["honest", "psi:3"])
    def test_every_error_source_is_a_campaign_part(self, error_source):
        part = cli._parse_error_source(error_source)
        params = custom_params(r=613, w=30, t=14)
        part.check_params(params)
        err = part.sample(params, expand_u64_seed(1))
        assert err.e0.weight() + err.e1.weight() == params.t
        assert part.describe()["kind"] == error_source.split(":")[0]

    def test_verbose_reports_running_dfr_interval_and_eta(self, capsys):
        args = ["dfr", "--r", "523", "--w", "30", "--t", "18", "--max-trials", "80",
                "--min-failures", "1000000", "--seed", "12", "--no-timestamp",
                "--format", "csv"]
        code, quiet_out, quiet_err = run_cli(capsys, *args)
        assert code == 0 and quiet_err == ""
        code, out, err = run_cli(capsys, *args, "--verbose")
        assert code == 0
        assert out == quiet_out  # the CSV summary carries no wall time
        line = re.compile(r"r=523: (\d+) trials, (\d+) failures, dfr (\S+) "
                          r"\[(\S+), (\S+)\], eta (\d+\.\d) s to 80 trials")
        rows = [line.fullmatch(x) for x in err.splitlines()]
        assert all(rows) and len(rows) == 1  # one default-size batch covers 80 trials
        trials, failures = int(rows[-1][1]), int(rows[-1][2])
        assert trials == 80 and f"{trials},{failures}," in out
        low, high = confidence_interval(failures, trials)
        assert rows[-1].groups()[2:] == (f"{failures / trials:.4g}", f"{low:.4g}",
                                         f"{high:.4g}", "0.0")

    def test_verbose_line_per_batch(self, capsys):
        args = ["dfr", "--r", "101", "--w", "14", "--t", "6", "--max-trials", "600",
                "--min-failures", "1000000", "--seed", "12", "--no-timestamp"]
        code, out, err = run_cli(capsys, *args, "--verbose")
        assert code == 0
        counts = [int(x.split(" trials,")[0].split(": ")[1]) for x in err.splitlines()]
        assert counts == [256, 512, 600]
        etas = [float(x.split("eta ")[1].split(" s")[0]) for x in err.splitlines()]
        assert etas[-1] == 0.0 and min(etas) >= 0.0
        _, quiet, _ = run_cli(capsys, *args)
        blobs = [json.loads(text) for text in (out, quiet)]
        for blob in blobs:
            blob["records"][0]["wall_time_s"] = None
        assert blobs[0] == blobs[1]

    def test_verbose_eta_runs_to_the_failure_minimum(self, capsys):
        # the first 256-trial batch already meets --min-failures 20
        args = ["dfr", "--r", "523", "--w", "30", "--t", "18", "--min-failures", "20",
                "--seed", "3", "--no-timestamp"]
        code, out, err = run_cli(capsys, *args, "--verbose")
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert (rec["trials"], rec["failures"]) == (256, 113)
        assert err.splitlines() == [
            "r=523: 256 trials, 113 failures, dfr 0.4414 [0.3796, 0.5046], "
            "eta 0.0 s to 256 trials"]

    def test_expected_stop_is_the_earlier_of_cap_and_failure_minimum(self):
        stop = StopRule(min_trials=300, min_failures=50, max_trials=1000)
        assert stop.expected_stop(100, 0) == 1000    # no rate yet: the cap
        assert stop.expected_stop(100, 10) == 500    # 50 failures at 10/100
        assert stop.expected_stop(100, 30) == 300    # the trial minimum
        assert stop.expected_stop(100, 3) == 1000    # the cap comes first
        assert stop.expected_stop(300, 60) == 300    # already met: stops here
        assert StopRule(min_trials=300, min_failures=0).expected_stop(100, 0) == 300

    def test_two_campaigns_in_one_process_see_a_late_wrapper(self, capsys, monkeypatch):
        args = ["dfr", "--r", "523", "--w", "30", "--t", "18", "--max-trials", "40",
                "--min-failures", "1000000", "--seed", "14", "--no-timestamp"]
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        calls = []
        original = cli.cmd_dfr

        def wrapper(parsed):
            calls.append(parsed.seed)
            return original(parsed)
        monkeypatch.setattr(cli, "cmd_dfr", wrapper)
        code, second, _ = run_cli(capsys, *args)
        assert code == 0 and calls == [14]
        records = [json.loads(text)["records"] for text in (first, second)]
        for recs in records:
            for rec in recs:
                rec["wall_time_s"] = None
        assert records[0] == records[1]

    def test_rs_sweep_with_extrapolation_and_eta(self, capsys):
        code, out, _ = run_cli(
            capsys, "dfr", "--r", "523", "--w", "30", "--t", "18",
            "--key-class", "weak:type1:f=10", "--rs", "523,541",
            "--max-trials", "96", "--min-failures", "1000000",
            "--extrapolate-to", "12323", "--eta-from", "type1:f=10",
            "--seed", "13", "--no-timestamp")
        assert code == 0
        blob = json.loads(out)
        assert len(blob["records"]) == 2
        assert blob["extrapolation"]["r_target"] == 12323
        assert "log2_pw" in blob["pw"]

    def test_budget_with_queries_for_type1_and_type3(self, capsys):
        args = ["dfr", "--r", "523", "--w", "30", "--t", "18", "--rs", "523,613",
                "--max-trials", "256", "--min-failures", "1000000", "--seed", "5",
                "--no-timestamp", "--extrapolate-to", "12323", "--queries", "1024"]
        target = custom_params(r=12323, w=30, t=18)
        for eta_from, count in (("type1:f=10", count_type1(target, 10)),
                                ("type3:m=6", count_type3_upper(target, 6))):
            log2_eta = log2_density(target, count)
            code, out, _ = run_cli(capsys, *args, "--eta-from", eta_from)
            assert code == 0
            blob = json.loads(out)
            log2_pw = log2_eta + blob["extrapolation"]["log2_dfr_at_target"]
            assert blob["pw"] == {"log2_pw": log2_pw, "satisfies": log2_pw <= -128,
                                  "log2_q_delta": 10 + log2_pw}

    @pytest.mark.parametrize("argv,needed", [
        (["--eta-from", "type1:f=10"], "--extrapolate-to"),
        (["--extrapolate-to", "12323", "--queries", "8"], "--eta-from"),
    ], ids=["eta-from", "queries"])
    def test_flag_without_the_flag_that_reads_it_rejected(self, capsys, argv, needed):
        code, out, err = run_cli(capsys, "dfr", "--r", "523", "--w", "30", "--t", "18",
                                 "--max-trials", "8", *argv)
        assert code == 2
        assert out == ""
        assert needed in err

    @pytest.mark.parametrize("eta_from", ["type2:m=3", "type1:m=3", "type4:f=1"])
    def test_bad_eta_from_rejected_before_any_campaign(self, capsys, monkeypatch, eta_from):
        monkeypatch.setattr(cli.dfrlab, "run_dfr",
                            lambda *args, **kwargs: pytest.fail("a campaign ran"))
        code, out, _ = run_cli(capsys, "dfr", "--r", "523", "--w", "30", "--t", "18",
                               "--max-trials", "8", "--extrapolate-to", "12323",
                               "--eta-from", eta_from)
        assert code == 2
        assert out == ""

    def test_bad_queries_rejected_before_any_campaign(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.dfrlab, "run_dfr",
                            lambda *args, **kwargs: pytest.fail("a campaign ran"))
        code, out, err = run_cli(capsys, "dfr", "--r", "523", "--w", "30", "--t", "18",
                                 "--rs", "523,613", "--max-trials", "256",
                                 "--extrapolate-to", "12323", "--eta-from", "type1:f=5",
                                 "--queries", "0")
        assert code == 2
        assert out == ""
        assert "--queries must be >= 1" in err

    @pytest.mark.parametrize("argv,message", [
        (["--rs", "523,614"], "r must be odd and >= 3, got 614"),
        (["--rs", "523,613", "--extrapolate-to", "600"], "at least two --rs values, all below"),
        (["--rs", "523,541,1019", "--extrapolate-to", "900"], "all below"),
        (["--rs", "523,613", "--extrapolate-to", "613"], "all below"),
        (["--extrapolate-to", "12323"], "at least two --rs values"),
    ], ids=["even-r", "target-inside", "target-below-largest", "target-at-largest",
            "single-r"])
    def test_bad_sweep_rejected_before_any_campaign(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(cli.dfrlab, "run_dfr",
                            lambda *args, **kwargs: pytest.fail("a campaign ran"))
        code, out, err = run_cli(capsys, "dfr", "--r", "523", "--w", "30", "--t", "18",
                                 "--max-trials", "8", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_repeated_weak_parameter_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.dfrlab, "run_dfr",
                            lambda *args, **kwargs: pytest.fail("a campaign ran"))
        code, out, err = run_cli(capsys, "dfr", *TOY_ARGS, "--max-trials", "8",
                                 "--key-class", "weak:type1:f=10,f=20")
        assert code == 2
        assert out == ""
        assert "f given twice" in err

    @pytest.fixture
    def key1259(self, tmp_path, capsys):
        path = str(tmp_path / "k1259.json")
        code, _, _ = run_cli(capsys, "keygen", "--r", "1259", "--w", "42", "--t", "30",
                             "--seed", "3", "--key-out", path)
        assert code == 0
        return path

    @pytest.mark.parametrize("argv,campaign", [
        (["--r", "1259", "--w", "142", "--t", "30"], "r=1259, w=142"),
        (["--r", "1259", "--w", "42", "--t", "30", "--rs", "1259,1283"], "r=1283, w=42"),
    ], ids=["w", "rs"])
    def test_fixed_key_that_does_not_fit_rejected_before_any_campaign(
            self, capsys, monkeypatch, key1259, argv, campaign):
        monkeypatch.setattr(cli.dfrlab, "run_dfr",
                            lambda *args, **kwargs: pytest.fail("a campaign ran"))
        code, out, err = run_cli(capsys, "dfr", *argv, "--max-trials", "20",
                                 "--key-class", f"fixed:{key1259}")
        assert code == 2
        assert out == ""
        assert err == (f"parameter error: fixed key {key1259} has r=1259, w=42; the campaign "
                       f"has {campaign} (private key does not match parameters)\n")

    def test_extrapolation_lists_dropped_r(self, capsys):
        # normal keys at t=18: r=523, 541 and 547 fail, r=1019 does not in 64 trials
        args = ["dfr", "--r", "523", "--w", "30", "--t", "18", "--rs", "523,541,547,1019",
                "--max-trials", "64", "--min-failures", "1000000", "--seed", "13",
                "--no-timestamp"]
        code, out, _ = run_cli(capsys, *args, "--extrapolate-to", "12323")
        assert code == 0
        blob = json.loads(out)
        assert [rec["failures"] > 0 for rec in blob["records"]] == [True, True, True, False]
        extra = blob["extrapolation"]
        assert [p[0] for p in extra["points"]] == [541, 547]
        assert extra["dropped"] == [
            {"r": 523, "reason": "the line runs through the two largest r with failures"},
            {"r": 1019, "reason": "0 failures in 64 trials, so log2 DFR is -inf"}]

        code, _, err = run_cli(capsys, *args[:8], "523,1019", *args[9:],
                               "--extrapolate-to", "12323")
        assert code == 2
        assert "1019" in err

    def test_equal_rs_rejected(self, capsys):
        code, _, err = run_cli(capsys, "dfr", "--rs", "100,100", "--max-trials", "8")
        assert code == 2
        assert "distinct" in err

    def test_psi_source(self, capsys):
        code, out, _ = run_cli(capsys, "dfr", "--r", "523", "--w", "30", "--t", "18",
                               "--error-source", "psi:4", "--max-trials", "32",
                               "--min-failures", "1000000", "--seed", "14",
                               "--no-timestamp")
        assert code == 0
        assert json.loads(out)["records"][0]["error_source"] == {"kind": "psi", "d": 4}

    def test_fixed_key_class(self, tmp_path, capsys, keyfile):
        code, out, _ = run_cli(capsys, "dfr", *TOY_ARGS,
                               "--key-class", f"fixed:{keyfile}",
                               "--max-trials", "16", "--min-failures", "1000000",
                               "--seed", "15", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["records"][0]["key_class"]["kind"] == "fixed"

    def test_unknown_key_class(self, capsys):
        code, _, _ = run_cli(capsys, "dfr", "--key-class", "bogus", "--max-trials", "8")
        assert code == 2

    def test_non_integer_rs_rejected(self, capsys):
        code, _, err = run_cli(capsys, "dfr", "--r", "523", "--w", "30", "--t", "18",
                               "--rs", "523,abc", "--max-trials", "8")
        assert code == 2
        assert "'abc'" in err

    def test_non_integer_psi_distance_rejected(self, capsys):
        code, _, err = run_cli(capsys, "dfr", "--r", "523", "--w", "30", "--t", "18",
                               "--error-source", "psi:x", "--max-trials", "8")
        assert code == 2
        assert "psi:x" in err


class TestEtaCommand:
    def test_type1_table_column(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--type", "1", "--level", "1",
                               "--param-range", "5:40:5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,param,s,log2_count,log2_eta"
        got = {int(row.split(",")[1]): float(row.split(",")[4]) for row in lines[1:]}
        expected = {5: -10.225, 10: -48.168, 15: -86.6952, 20: -125.8586,
                    25: -165.7205, 30: -206.3566, 35: -247.8609, 40: -290.3535}
        for f, val in expected.items():
            assert got[f] == pytest.approx(val, abs=0.01)

    def test_type3_m_max_value(self, capsys):
        import math
        code, out, _ = run_cli(capsys, "eta", "--type", "3", "--level", "1",
                               "--param-range", "71,71")
        lines = out.strip().splitlines()
        log2_eta = float(lines[1].split(",")[4])
        expected = math.log2(12323) - math.log2(math.comb(12323, 71))
        assert log2_eta == pytest.approx(expected, abs=1e-6)

    def test_type2_column_with_s(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--type", "2", "--r", "31", "--w", "10",
                               "--t", "4", "--param-range", "3,4", "--s", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split(",")[2] == "3"

    def test_type2_s_defaults_to_2(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--type", "2", "--r", "31", "--w", "10",
                               "--t", "4", "--param-range", "3")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[2] == "2"

    @pytest.mark.parametrize("family", ["1", "3"])
    def test_s_without_type2_rejected(self, capsys, family):
        code, out, err = run_cli(capsys, "eta", "--type", family, "--level", "1",
                                 "--param-range", "5", "--s", "5")
        assert code == 2
        assert out == ""
        assert err == f"parameter error: --s is read only with --type 2, not --type {family}\n"

    @pytest.mark.parametrize("argv,values", [
        (["--type", "1", "--level", "1", "--param-range", "0:3"],
         ["27.18", "19.74", "12.28", "4.80"]),
        (["--type", "3", "--level", "1", "--param-range", "0,1,2"],
         ["13.59", "12.30", "9.97"]),
    ], ids=["type1", "type3"])
    def test_rows_above_one_get_a_note(self, capsys, argv, values):
        code, out, err = run_cli(capsys, "eta", *argv)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        notes = err.splitlines()
        assert len(notes) == len(rows) == len(values)
        for row, note, value in zip(rows, notes, values):
            family, param = row.split(",")[:2]
            assert note == (f"note: type {family} param {param}: log2_eta {value} > 0, "
                            "the count bound exceeds the key space, so this row is not "
                            "a density")

    def test_density_rows_have_no_note(self, capsys):
        code, _, err = run_cli(capsys, "eta", "--type", "1", "--level", "1",
                               "--param-range", "5:40:5")
        assert code == 0 and err == ""

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "eta", "--type", "1", "--param-range", "x:y")
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        path = str(tmp_path / "eta.csv")
        argv = ["eta", "--type", "1", "--level", "1", "--param-range", "5,10"]
        _, expected, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--out", path)
        assert code == 0
        assert out == ""
        assert open(path).read().startswith("family,param")
        assert open(path, "rb").read() == expected.encode()


PARAMS = {"--level", "--r", "--w", "--t", "--l"}
ACCEPTED = {
    "keygen": PARAMS | {"--seed", "--key-out", "--check", "--check-threshold",
                        "--check-budget"},
    "encaps": {"--seed", "--key", "--ct-out", "--ss-out"},
    "decaps": {"--key", "--ct", "--ss-out", "--diagnostics", "--trace-csv"},
    "weakkey gen": PARAMS | {"--seed", "--type", "--f", "--d", "--shift", "--m",
                             "--key-out", "--spectrum-csv"},
    "keycheck": {"--key", "--threshold", "--out"},
    "dfr": PARAMS | {"--seed", "--key-class", "--error-source", "--min-trials",
                     "--min-failures", "--max-trials", "--rs", "--extrapolate-to",
                     "--eta-from", "--queries", "--no-timestamp", "--threads", "--verbose",
                     "--format", "--out"},
    "eta": PARAMS | {"--type", "--param-range", "--s", "--out"},
}
# each subcommand with its required arguments, so a parse error names the extra flag
MINIMAL_ARGV = {
    "keygen": ["keygen", "--key-out", "k.json"],
    "encaps": ["encaps", "--key", "k.json", "--ct-out", "c.json", "--ss-out", "s.json"],
    "decaps": ["decaps", "--key", "k.json", "--ct", "c.json", "--ss-out", "s.json"],
    "weakkey gen": ["weakkey", "gen", "--type", "1", "--key-out", "k.json"],
    "keycheck": ["keycheck", "--key", "k.json"],
    "eta": ["eta", "--type", "1", "--param-range", "5"],
}
# flags each handler does not read, so each is a usage error
REMOVED = {
    "keygen": ["--out", "--format", "--threads", "--verbose", "--no-check"],
    "encaps": [*sorted(PARAMS), "--out", "--format", "--threads", "--verbose"],
    "decaps": [*sorted(PARAMS), "--seed", "--out", "--format", "--threads", "--verbose"],
    "weakkey gen": ["--out", "--format", "--threads", "--verbose"],
    "keycheck": [*sorted(PARAMS), "--seed", "--format", "--threads", "--verbose"],
    "eta": ["--seed", "--format", "--threads", "--verbose"],
}
FLAG_VALUE = {"--level": ["3"], "--format": ["csv"], "--verbose": [], "--no-check": []}


def accepted_flags(parser, prefix=""):
    flags = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                flags.update(accepted_flags(child, f"{prefix} {name}".strip()))
    own = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
    if own:
        flags[prefix] = own
    return flags


class TestOptionSurface:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        assert accepted_flags(build_parser()) == ACCEPTED
        assert sum(len(f) for f in ACCEPTED.values()) == 64

    @pytest.mark.parametrize("command,flag",
                             [(c, f) for c, flags in REMOVED.items() for f in flags])
    def test_removed_flag_is_a_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*MINIMAL_ARGV[command], flag, *FLAG_VALUE.get(flag, ["5"])])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["keycheck", "--key", "KEY"],
        ["dfr", "--r", "523", "--w", "30", "--t", "18", "--max-trials", "32",
         "--min-failures", "1000000", "--seed", "11", "--format", "csv"],
    ], ids=["keycheck", "dfr"])
    def test_out_file_matches_stdout(self, tmp_path, capsys, keyfile, argv):
        argv = [keyfile if a == "KEY" else a for a in argv]
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "out"
        code, out, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_bytes() == expected.encode()
