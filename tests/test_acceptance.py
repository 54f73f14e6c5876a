"""The acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a summary line; the terminal summary block (see conftest)
repeats one PASS/FAIL line per criterion.  The whole module takes about
40-55 s on a 2-vCPU VM; criterion 4's 1000 level-1 KEM round trips take
18-25 s of it.
"""

import json
import random
import time

import pytest

from bikelab import (FixedKey, HonestErrors, KeyCheckConfig,
                     PsiErrors, StopRule, confidence_interval, custom_params,
                     decaps_with_diagnostics, encaps, extrapolate, gen_type1, gen_type2,
                     gen_type3, invert_counted, key_check, keygen,
                     level_params, pw_check, run_dfr, sample_private_key, spectrum)
from bikelab.cli import main as cli_main
from bikelab.decoder import compute_upc
from bikelab.errors import NotInvertibleError
from bikelab.kem import expand_u64_seed
from bikelab.ring import DensePoly, RingParams, SparsePoly
from bikelab.weakkeys import WeakKeySpec

from ring_oracle import invert_oracle, shift, star

L1 = level_params(1)

TABLE_ETA = {5: -10.225, 10: -48.168, 15: -86.6952, 20: -125.8586,
             25: -165.7205, 30: -206.3566, 35: -247.8609, 40: -290.3535}
TABLE_DFR = {5: -96.28, 10: -93.34, 15: -79.99, 20: -72.14, 25: -60.91,
             30: -18.99, 35: -0.32, 40: 0.0}
TABLE_PW = {5: -106.50, 10: -141.51, 15: -166.69, 20: -198.00, 25: -226.63,
            30: -225.35, 35: -248.18, 40: -290.35}


def test_criterion_1_weak_key_density_table(capsys):
    """Type-1 densities at level 1 reproduce the reference column to 0.01."""
    started = time.monotonic()
    code = cli_main(["eta", "--type", "1", "--level", "1", "--param-range", "5:40:5"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().splitlines()[1:]
    got = {int(r.split(",")[1]): float(r.split(",")[4]) for r in rows}
    for f, expected in TABLE_ETA.items():
        assert got[f] == pytest.approx(expected, abs=0.01), f"f={f}"
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\n[AC1] eta table reproduced for f=5..40 (max err "
              f"{max(abs(got[f] - TABLE_ETA[f]) for f in TABLE_ETA):.4f}, "
              f"{elapsed * 1000:.0f} ms)")


def test_criterion_2_security_budget_arithmetic(capsys):
    """eta * DFR reproduces the reference products; only f=5 violates 2^-128."""
    started = time.monotonic()
    violations = []
    for f in sorted(TABLE_ETA):
        res = pw_check(TABLE_ETA[f], TABLE_DFR[f], L1.security_bits)
        assert res["log2_pw"] == pytest.approx(TABLE_PW[f], abs=0.02), f"f={f}"
        if not res["satisfies"]:
            violations.append(f)
    elapsed = time.monotonic() - started
    assert violations == [5]
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"[AC2] budget column reproduced; violations at f={violations} "
              f"({elapsed * 1000:.1f} ms)")


def test_criterion_3_high_dfr_weak_keys(capsys):
    """f=40 keys fail >= 90% of 200 decodings; f=35 lands in [0.6, 0.95] of 500."""
    stop200 = StopRule(min_trials=0, min_failures=10**9, max_trials=200)
    res40 = run_dfr(L1, WeakKeySpec(1, f=40, d=1), HonestErrors(),
                    stop200, master_seed=31415)
    assert res40["failures"] >= 0.90 * res40["trials"]

    stop500 = StopRule(min_trials=0, min_failures=10**9, max_trials=500)
    res35 = run_dfr(L1, WeakKeySpec(1, f=35, d=1), HonestErrors(),
                    stop500, master_seed=27182)
    frac = res35["failures"] / res35["trials"]
    assert 0.6 <= frac <= 0.95
    with capsys.disabled():
        print(f"[AC3] f=40: {res40['failures']}/{res40['trials']} failures; "
              f"f=35: {res35['failures']}/{res35['trials']} = {frac:.3f} in [0.60, 0.95]")


def test_criterion_4_kem_round_trips(capsys):
    """1000 full-parameter round trips: every shared key matches, zero failures."""
    started = time.monotonic()
    matches = decode_failures = 0
    n = 1000
    for i in range(n):
        sk, pk = keygen(L1, expand_u64_seed(500_000 + i))
        c, k = encaps(pk, L1, expand_u64_seed(900_000 + i))
        k2, outcome = decaps_with_diagnostics(sk, c, L1)
        if not outcome.success:
            decode_failures += 1
        if k2 == k:
            matches += 1
    elapsed = time.monotonic() - started
    assert matches == n
    assert decode_failures == 0
    assert elapsed < 600.0
    with capsys.disabled():
        print(f"[AC4] {matches}/{n} shared-key matches, {decode_failures} decoder "
              f"failures ({elapsed:.0f} s)")


def test_criterion_5_extrapolation_and_reduced_r_trend(capsys):
    """(a) exact line arithmetic; (b) log2 DFR strictly falls across three r."""
    # (a) synthetic collinear points reproduce the line exactly
    a, b = 5.5, -0.015625  # exact binary floats
    res = extrapolate((1019, a + b * 1019), (1259, a + b * 1259), 12323)
    assert res["log2_dfr_at_target"] == a + b * 12323

    # (b) fixed weak class, scaled-down code: three increasing block sizes
    import math
    rs = (1019, 1259, 1523)
    stop = StopRule(min_trials=0, min_failures=10**9, max_trials=600)
    points = []
    for r in rs:
        params = custom_params(r=r, w=42, t=30)
        out = run_dfr(params, WeakKeySpec(1, f=10, d=1), HonestErrors(),
                      stop, master_seed=20255)
        points.append((r, out["failures"], out["trials"], out["ci_low"], out["ci_high"]))
    fractions = [f / t for _, f, t, _, _ in points]
    assert fractions[0] > fractions[1] > fractions[2] > 0
    log2_dfr = [math.log2(x) for x in fractions]
    assert log2_dfr[0] > log2_dfr[1] > log2_dfr[2]
    # endpoint confidence intervals must not overlap
    assert points[0][3] > points[2][4]
    with capsys.disabled():
        print(f"[AC5] extrapolation exact; reduced-r log2 DFR "
              f"{[round(v, 2) for v in log2_dfr]} strictly decreasing, "
              f"endpoint CIs disjoint")


def test_criterion_6_oracle_equivalences(capsys):
    checked = {}

    # (a) inverse vs extended Euclid, 100 random invertible elements per ring
    for r in (13, 10009):
        ring = RingParams(r)
        rng = random.Random(60_000 + r)
        done = 0
        while done < 100:
            v = rng.getrandbits(r) & ring.mask
            if v.bit_count() % 2 == 0 or v == ring.mask:
                continue
            a = DensePoly(ring, v)
            try:
                fast, _ = invert_counted(a)
            except NotInvertibleError:
                continue
            assert fast.bits == invert_oracle(a).bits
            done += 1
        checked[f"invert r={r}"] = done

    # (b) product vs schoolbook double loop at r=7
    ring7 = RingParams(7)
    rng = random.Random(61)
    for _ in range(500):
        a = DensePoly(ring7, rng.getrandbits(7))
        b = DensePoly(ring7, rng.getrandbits(7))
        out = 0
        for i in range(7):
            acc = 0
            for j in range(7):
                acc ^= ((a.bits >> j) & 1) & ((b.bits >> ((i - j) % 7)) & 1)
            out |= acc << i
        assert (a * b).bits == out
    checked["mul r=7"] = 500

    # (c) unsatisfied-check counts vs explicit matrix at r=13
    ring13 = RingParams(13)
    rng = random.Random(62)
    for _ in range(50):
        h0 = SparsePoly(ring13, tuple(sorted(rng.sample(range(13), 3))))
        h1 = SparsePoly(ring13, tuple(sorted(rng.sample(range(13), 3))))
        s = DensePoly(ring13, rng.getrandbits(13))
        cols = ([shift(h0.to_dense(), k) for k in range(13)] +
                [shift(h1.to_dense(), k) for k in range(13)])
        expected = [sum(((s.bits >> j) & 1) & ((col.bits >> j) & 1)
                        for j in range(13)) for col in cols]
        assert compute_upc(s, h0, h1).tolist() == expected
    checked["upc r=13"] = 50

    # (d) spectrum vs dense rotate-and-intersect counting at r=31
    ring31 = RingParams(31)
    rng = random.Random(63)
    for _ in range(50):
        h = SparsePoly(ring31, tuple(sorted(rng.sample(range(31), 7))))
        dense = h.to_dense()
        expected = {d: star(dense, shift(dense, d)).weight() for d in range(1, 16)}
        assert spectrum(h).mult == expected
    checked["spectrum r=31"] = 50

    with capsys.disabled():
        print(f"[AC6] oracle equivalences exact: {checked}")


def test_criterion_7_key_check_soundness(capsys):
    cfg = KeyCheckConfig(threshold_T=10)

    weak_specs = {
        "type1 f=12": lambda i: gen_type1(L1, 12, 1 + i % 50, i % L1.r, expand_u64_seed(70_000 + i)),
        "type2 m=12": lambda i: gen_type2(L1, 1 + i % 50, 12, expand_u64_seed(71_000 + i)),
        "type3 m=12": lambda i: gen_type3(L1, 12, expand_u64_seed(72_000 + i)),
    }
    for label, gen in weak_specs.items():
        weak_count = 0
        for i in range(100):
            key = gen(i)
            if key_check(key.h0, key.h1, cfg).is_weak:
                weak_count += 1
        assert weak_count == 100, f"{label}: {weak_count}/100 flagged"

    normal_flagged = 0
    for i in range(1000):
        key = sample_private_key(L1, expand_u64_seed(73_000 + i))
        if key_check(key.h0, key.h1, cfg).is_weak:
            normal_flagged += 1
    normal_rate = (1000 - normal_flagged) / 1000
    assert normal_rate >= 0.95
    with capsys.disabled():
        print(f"[AC7] 300/300 crafted keys flagged Weak; normal keys Normal at "
              f"{normal_rate:.3f} (>= 0.95)")


def test_criterion_8_distance_probe_direction(capsys):
    """Crafted-pair failures are rarer when the probed distance is in D(h0)."""
    params = custom_params(r=1259, w=42, t=30)
    key = sample_private_key(params, expand_u64_seed(2024))
    spec = spectrum(key.h0)
    in_spectrum = sorted(spec.existing())[:8]
    out_spectrum = [d for d in range(1, 301) if d not in spec.existing()][:8]
    assert len(in_spectrum) == 8 and len(out_spectrum) == 8

    def class_rate(distances, seed_base):
        fails = trials = 0
        per_d = 1250  # 8 distances -> 10000 trials per class
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=per_d)
        for j, d in enumerate(distances):
            res = run_dfr(params, FixedKey(key), PsiErrors(d), stop,
                          master_seed=seed_base + j)
            fails += res["failures"]
            trials += res["trials"]
        return fails, trials

    f_in, n_in = class_rate(in_spectrum, 80_000)
    f_out, n_out = class_rate(out_spectrum, 81_000)
    assert n_in == n_out == 10_000
    assert f_in / n_in < f_out / n_out
    with capsys.disabled():
        print(f"[AC8] probe failure rate {f_in / n_in:.4f} (d in spectrum) < "
              f"{f_out / n_out:.4f} (d not in spectrum), 10000 trials each")


def test_criterion_9_parallel_reproducibility(capsys):
    """Thread count never changes counts or serialized records."""
    args = ["dfr", "--r", "523", "--w", "30", "--t", "18", "--key-class", "normal",
            "--max-trials", "256", "--min-failures", "1000000",
            "--seed", "424242", "--no-timestamp"]

    import io
    from contextlib import redirect_stdout

    outputs = []
    for threads in ("1", "8"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(args + ["--threads", threads])
        assert code == 0
        outputs.append(buf.getvalue())

    def masked(text):
        blob = json.loads(text)
        for rec in blob["records"]:
            rec["wall_time_s"] = None  # wall clock is provenance, like timestamp
        return json.dumps(blob, sort_keys=True)

    assert masked(outputs[0]) == masked(outputs[1])
    failures = [json.loads(o)["records"][0]["failures"] for o in outputs]
    assert failures[0] == failures[1]
    with capsys.disabled():
        print(f"[AC9] --threads 1 vs 8: identical records, {failures[0]} failures both")
