import argparse
import json
import re

import pytest

from bikelab import NotInvertibleError, SchemaError, confidence_interval, decoder, files
from bikelab.cli import build_parser, main
from bikelab.ring import DensePoly
from bikelab.weakkeys import spectrum

TOY_ARGS = ["--r", "613", "--w", "30", "--t", "14"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_partial_custom_params_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "keygen", "--r", "613", "--seed", "1",
                               "--key-out", str(tmp_path / "k.json"))
        assert code == 2

    def test_uninvertible_h0_budget_exhausted(self, tmp_path, capsys, monkeypatch):
        def never_invertible(self):
            raise NotInvertibleError("forced")
        monkeypatch.setattr(DensePoly, "invert", never_invertible)
        code, _, err = run_cli(capsys, "keygen", *TOY_ARGS, "--seed", "1",
                               "--key-out", str(tmp_path / "k.json"))
        assert code == 4
        assert "budget exhausted" in err


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
