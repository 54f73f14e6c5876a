import concurrent.futures
import json
import os

import pytest
from scipy import stats

from bikelab import (DecoderConfig, FixedKey, HonestErrors, NormalKeys, ParameterError,
                     PsiErrors, StopRule, avg_dfr_decompose,
                     confidence_interval, custom_params, extrapolate, level_params,
                     pw_check, run_dfr, sample_private_key)
from bikelab import bgf_decode, dfr, files
from bikelab.dfr import SUMMARY_CSV_HEADER, run_trial, summary_csv_row, trial_seeds
from bikelab.kem import expand_u64_seed
from bikelab.ring import mul_sparse
from bikelab.weakkeys import WeakKeySpec

TOY = custom_params(r=613, w=30, t=14)
FAILY = custom_params(r=523, w=30, t=18)  # ~40% failure rate, good for counting
TINY = custom_params(r=31, w=6, t=6)  # some decodes clear s with a wrong error


@pytest.fixture
def recorded_pools(monkeypatch):
    """Stands in for the process pool that ``run_dfr`` starts; lists every pool started.

    Each stand-in records its worker count and whether it was shut down, and
    runs its tasks in this process.
    """
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.workers, self.open = max_workers, True
            started.append(self)

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

        def shutdown(self):
            self.open = False

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return started


class RaisingErrors:
    """An error source that passes its parameter check and raises at every trial."""

    def sample(self, params, seed):
        raise RuntimeError("no error for this trial")

    def describe(self):
        return {"kind": "raising"}

    def check_params(self, params):
        pass


def scipy_clopper_pearson(k, n, level=0.95):
    alpha = 1 - level
    low = 0.0 if k == 0 else stats.beta.ppf(alpha / 2, k, n - k + 1)
    high = 1.0 if k == n else stats.beta.ppf(1 - alpha / 2, k + 1, n - k)
    return low, high


def full_bisection(a, b, p):
    # the inverse without its early stop: always 200 halvings
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dfr._betainc(a, b, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def full_bisection_interval(k, n, level=0.95):
    alpha = 1 - level
    low = 0.0 if k == 0 else full_bisection(k, n - k + 1, alpha / 2)
    high = 1.0 if k == n else full_bisection(k + 1, n - k, 1 - alpha / 2)
    return low, high


SCIPY_GRID = [(1, 10), (5, 50), (17, 200), (999, 1000), (1000, 10**6), (3, 100000)]


class TestConfidenceInterval:
    def test_zero_failures_low_boundary(self):
        low, high = confidence_interval(0, 100)
        assert low == 0.0
        assert 0 < high < 0.06

    def test_all_failures_high_boundary(self):
        low, high = confidence_interval(100, 100)
        assert high == 1.0
        assert low > 0.9

    def test_thousand_in_a_million(self):
        low, high = confidence_interval(1000, 10**6)
        assert low == pytest.approx(9.4e-4, abs=0.02e-3)
        assert high == pytest.approx(1.06e-3, abs=0.02e-3)

    @pytest.mark.parametrize("k,n", SCIPY_GRID)
    def test_matches_scipy_reference(self, k, n):
        got = confidence_interval(k, n)
        want = scipy_clopper_pearson(k, n)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)

    @pytest.mark.parametrize("k,n", SCIPY_GRID + [(0, 5), (3, 5), (5, 5), (363, 500),
                                                  (1, 10**6)])
    def test_early_stop_is_bit_identical(self, k, n):
        assert confidence_interval(k, n) == full_bisection_interval(k, n)

    def test_bisection_stops_when_it_cannot_move(self, monkeypatch):
        calls = [0]
        real = dfr._betainc

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(dfr, "_betainc", counting)
        confidence_interval(10, 100)
        assert calls[0] <= 2 * 64  # a double has 53 significant bits

    def test_width_shrinks_with_trials(self):
        widths = []
        for n in (100, 10_000, 1_000_000):
            k = n // 10
            low, high = confidence_interval(k, n)
            assert low <= k / n <= high
            widths.append(high - low)
        assert widths[0] > widths[1] > widths[2]

    def test_validation(self):
        with pytest.raises(ParameterError):
            confidence_interval(1, 0)
        with pytest.raises(ParameterError):
            confidence_interval(5, 4)


class TestExtrapolate:
    def test_flat_line(self):
        res = extrapolate((9739, -20.0), (9817, -20.0), 12323)
        assert res["log2_dfr_at_target"] == -20.0
        assert res["trend_warning"]  # not strictly decreasing

    def test_equal_steps(self):
        res = extrapolate((9739, -10.0), (9817, -12.0), 9895)
        assert res["log2_dfr_at_target"] == pytest.approx(-14.0)
        assert not res["trend_warning"]

    def test_exact_on_collinear_points(self):
        # synthetic line: value(r) = a + b r evaluated in exact float arithmetic
        a, b = 3.25, -0.01171875  # both exactly representable
        p1, p2, target = 1000, 1512, 12323
        res = extrapolate((p1, a + b * p1), (p2, a + b * p2), target)
        assert res["log2_dfr_at_target"] == a + b * target

    def test_validation(self):
        with pytest.raises(ParameterError):
            extrapolate((100, -1.0), (100, -2.0), 200)
        with pytest.raises(ParameterError):
            extrapolate((200, -1.0), (100, -2.0), 300)
        with pytest.raises(ParameterError):
            extrapolate((100, -1.0), (200, -2.0), 150)
        with pytest.raises(ParameterError):
            extrapolate((100, float("-inf")), (200, -2.0), 300)


class TestPwCheck:
    def test_table_rows(self):
        eta = {5: -10.225, 10: -48.168, 15: -86.6952, 20: -125.8586, 25: -165.7205,
               30: -206.3566, 35: -247.8609, 40: -290.3535}
        dfr = {5: -96.28, 10: -93.34, 15: -79.99, 20: -72.14, 25: -60.91,
               30: -18.99, 35: -0.32, 40: 0.0}
        table = {5: -106.50, 10: -141.51, 15: -166.69, 20: -198.00, 25: -226.63,
                 30: -225.35, 35: -248.18, 40: -290.35}
        for f in eta:
            res = pw_check(eta[f], dfr[f], 128)
            assert res["log2_pw"] == pytest.approx(table[f], abs=0.02)
            assert res["satisfies"] == (f != 5)

    def test_empty_class(self):
        res = pw_check(float("-inf"), 0.0, 128)
        assert res["satisfies"]


class TestAvgDfrDecompose:
    def test_boundaries(self):
        assert avg_dfr_decompose(0.0, 0.5, 1e-9) == 1e-9
        assert avg_dfr_decompose(1.0, 0.5, 1e-9) == 0.5

    def test_weak_term_dominates_table_row(self):
        eta_w = 2.0 ** -10.225
        avg = avg_dfr_decompose(eta_w, 2.0 ** -96.28, 2.0 ** -128)
        assert avg == pytest.approx(2.0 ** -106.505, rel=1e-6)
        assert avg > 2.0 ** -128

    def test_validation(self):
        with pytest.raises(ParameterError):
            avg_dfr_decompose(1.5, 0.1, 0.1)


class TestRunDfr:
    def test_counts_failures_and_interval(self):
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=200)
        res = run_dfr(FAILY, NormalKeys(), HonestErrors(), stop, master_seed=5)
        assert res["trials"] == 200
        assert 0 < res["failures"] < 200
        assert res["ci_low"] <= res["dfr_point"] <= res["ci_high"]
        assert not res["met_failure_rule"]

    def test_stop_on_failures(self):
        stop = StopRule(min_trials=0, min_failures=20, max_trials=5000)
        res = run_dfr(FAILY, NormalKeys(), HonestErrors(), stop, master_seed=6)
        assert res["failures"] >= 20
        assert res["trials"] < 5000
        assert res["trials"] % dfr.BATCH_SIZE == 0
        assert res["met_failure_rule"]

    def test_all_failures_degenerate(self):
        weak = WeakKeySpec.parse("type1:f=14")
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=50)
        res = run_dfr(custom_params(r=1019, w=42, t=30), weak, HonestErrors(), stop,
                      master_seed=7)
        assert res["failures"] == res["trials"]
        assert res["dfr_point"] == 1.0
        assert res["ci_high"] == 1.0

    def test_parallel_reproducibility(self):
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=96)
        kwargs = dict(master_seed=8)
        seq = run_dfr(FAILY, NormalKeys(), HonestErrors(), stop, parallelism=1, **kwargs)
        par = run_dfr(FAILY, NormalKeys(), HonestErrors(), stop, parallelism=4, **kwargs)
        assert seq["failures"] == par["failures"]
        assert seq["trials"] == par["trials"]

    @pytest.mark.parametrize("cpus,workers", [({0, 1, 2}, [3]), ({0}, [])])
    def test_pool_capped_at_usable_cpus(self, monkeypatch, recorded_pools, cpus, workers):
        monkeypatch.setattr(dfr.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=40)
        kwargs = dict(master_seed=8)
        wide = run_dfr(FAILY, NormalKeys(), HonestErrors(), stop, parallelism=5000, **kwargs)
        assert [pool.workers for pool in recorded_pools] == workers
        assert not any(pool.open for pool in recorded_pools)
        seq = run_dfr(FAILY, NormalKeys(), HonestErrors(), stop, parallelism=1, **kwargs)
        assert (wide["trials"], wide["failures"]) == (seq["trials"], seq["failures"])

    def test_pool_shut_down_when_a_trial_raises(self, monkeypatch, recorded_pools):
        monkeypatch.setattr(dfr.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(RuntimeError, match="no error"):
            run_dfr(custom_params(r=9, w=2, t=8), NormalKeys(), RaisingErrors(),
                    StopRule(max_trials=3), master_seed=1, parallelism=2)
        assert [pool.open for pool in recorded_pools] == [False]
        # t = 8 pairs at distance 3 cannot be placed in r = 9: refused before any pool starts
        with pytest.raises(ParameterError, match="at most 3 disjoint pairs"):
            run_dfr(custom_params(r=9, w=2, t=8), NormalKeys(), PsiErrors(3),
                    StopRule(max_trials=3), master_seed=1, parallelism=2)
        assert len(recorded_pools) == 1

    def test_fixed_key_and_psi_source(self):
        key = sample_private_key(TOY, expand_u64_seed(99))
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=64)
        res = run_dfr(TOY, FixedKey(key), PsiErrors(3), stop, master_seed=9)
        assert res["trials"] == 64
        assert res["key_class"] == {"kind": "fixed", "label": "fixed"}
        assert res["error_source"] == {"kind": "psi", "d": 3}

    def test_trial_seeding_is_per_index(self):
        a = trial_seeds(10, 0)
        b = trial_seeds(10, 1)
        c = trial_seeds(11, 0)
        assert a != b and a != c

    def test_single_trial_runner(self):
        failed = run_trial(TOY, NormalKeys(), HonestErrors(),
                           DecoderConfig.for_params(TOY), 12, 0)
        assert failed in (False, True)

    def test_decode_to_another_error_is_a_failure(self):
        # on this tiny ring, trial 377 of master seed 7 clears the syndrome
        # with an error other than the planted one: decaps would reject it
        cfg = DecoderConfig.for_params(TINY)
        key_seed, err_seed = trial_seeds(7, 377)
        key = NormalKeys().sample(TINY, key_seed)
        err = HonestErrors().sample(TINY, err_seed)
        s = mul_sparse(key.h0, err.e0.to_dense()) + mul_sparse(key.h1, err.e1.to_dense())
        outcome = bgf_decode(s, key.h0, key.h1, cfg)
        assert outcome.success and outcome.error != err
        assert run_trial(TINY, NormalKeys(), HonestErrors(), cfg, 7, 377)

    def test_wrong_error_decodes_counted(self):
        # 1988 decodes leave a syndrome; 7 more clear it with the wrong error
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=2000)
        res = run_dfr(TINY, NormalKeys(), HonestErrors(), stop, master_seed=7)
        assert (res["trials"], res["failures"]) == (2000, 1995)

    def test_zero_trials_rejected(self):
        with pytest.raises(ParameterError):
            StopRule(max_trials=0)
        with pytest.raises(ParameterError):
            run_dfr(TOY, NormalKeys(), HonestErrors(),
                    StopRule(max_trials=10), master_seed=1, parallelism=0)
        with pytest.raises(ParameterError):
            run_dfr(TOY, NormalKeys(), HonestErrors(),
                    StopRule(min_trials=0, min_failures=0, max_trials=10),
                    master_seed=1)

    def test_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        stop_half = StopRule(min_trials=0, min_failures=10**9, max_trials=64)
        stop_full = StopRule(min_trials=0, min_failures=10**9, max_trials=128)
        kwargs = dict(master_seed=13)
        run_dfr(FAILY, NormalKeys(), HonestErrors(), stop_half,
                checkpoint_path=path, **kwargs)
        assert os.path.exists(path)
        resumed = run_dfr(FAILY, NormalKeys(), HonestErrors(), stop_full,
                          checkpoint_path=path, **kwargs)
        oneshot = run_dfr(FAILY, NormalKeys(), HonestErrors(), stop_full, **kwargs)
        assert resumed["failures"] == oneshot["failures"]
        assert resumed["trials"] == oneshot["trials"]

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        from bikelab.errors import SchemaError
        path = str(tmp_path / "ckpt.json")
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=32)
        run_dfr(FAILY, NormalKeys(), HonestErrors(), stop, master_seed=14,
                checkpoint_path=path)
        with pytest.raises(SchemaError):
            run_dfr(FAILY, NormalKeys(), HonestErrors(), stop, master_seed=999,
                    checkpoint_path=path)

    def test_checkpoint_bound_to_key_class(self, tmp_path):
        from bikelab.errors import SchemaError
        path = str(tmp_path / "ckpt.json")
        params = custom_params(r=1019, w=42, t=30)
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=16)
        weak = WeakKeySpec(1, f=15, d=1)
        run_dfr(params, weak, HonestErrors(), stop, master_seed=14, checkpoint_path=path)
        with pytest.raises(SchemaError):
            run_dfr(params, NormalKeys(), HonestErrors(), stop, master_seed=14,
                    checkpoint_path=path)

    def test_checkpoint_bound_to_fixed_key_supports(self, tmp_path):
        from bikelab.errors import SchemaError
        path = str(tmp_path / "ckpt.json")
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=16)
        key_a = sample_private_key(TOY, expand_u64_seed(1))
        key_b = sample_private_key(TOY, expand_u64_seed(2))
        run_dfr(TOY, FixedKey(key_a, "k.json"), PsiErrors(3), stop, master_seed=14,
                checkpoint_path=path)
        with pytest.raises(SchemaError):
            run_dfr(TOY, FixedKey(key_b, "k.json"), PsiErrors(3), stop, master_seed=14,
                    checkpoint_path=path)

    def test_checkpoint_above_max_trials_rejected(self, tmp_path):
        # resuming 64 done trials under a cap of 32 would report 64 trials
        path = str(tmp_path / "ckpt.json")
        run_dfr(TOY, NormalKeys(), HonestErrors(),
                StopRule(min_trials=0, min_failures=10**9, max_trials=64),
                master_seed=19, checkpoint_path=path)
        with pytest.raises(ParameterError, match="max_trials"):
            run_dfr(TOY, NormalKeys(), HonestErrors(),
                    StopRule(min_trials=0, min_failures=10**9, max_trials=32),
                    master_seed=19, checkpoint_path=path)

    @pytest.mark.parametrize("edit", [
        {"failures": 17}, {"trials_done": -16}, {"failures": -1},
        {"failures": 1.5}, {"trials_done": "16"}, {"trials_done": None},
        {"failures": None}], ids=["failures_above_trials", "negative_trials",
                                  "negative_failures", "float_failures", "string_trials",
                                  "missing_trials", "missing_failures"])
    def test_checkpoint_inconsistent_counts_rejected(self, tmp_path, edit):
        from bikelab.errors import SchemaError
        path = str(tmp_path / "ckpt.json")
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=32)
        run_dfr(TOY, NormalKeys(), HonestErrors(),
                StopRule(min_trials=0, min_failures=10**9, max_trials=16),
                master_seed=20, checkpoint_path=path)
        blob = json.load(open(path))
        assert blob["trials_done"] == 16
        blob.update(edit)
        blob = {k: v for k, v in blob.items() if v is not None}   # None: field missing
        with open(path, "w") as fh:
            json.dump(blob, fh)
        with pytest.raises(SchemaError):
            run_dfr(TOY, NormalKeys(), HonestErrors(), stop, master_seed=20,
                    checkpoint_path=path)

    @pytest.mark.parametrize("raw", [b"{not json", b"[16, 3]", b"\xff\xfe{"],
                             ids=["not_json", "not_object", "not_utf8"])
    def test_corrupt_checkpoint_is_a_schema_error(self, tmp_path, raw):
        from bikelab.errors import SchemaError
        path = tmp_path / "ckpt.json"
        path.write_bytes(raw)
        with pytest.raises(SchemaError, match="ckpt.json"):
            run_dfr(TOY, NormalKeys(), HonestErrors(), StopRule(max_trials=16),
                    master_seed=21, checkpoint_path=str(path))

    @pytest.mark.parametrize("params", [custom_params(r=613, w=142, t=14),
                                        custom_params(r=1019, w=30, t=14),
                                        custom_params(r=613, w=30, t=14, l=128)],
                             ids=["w", "r", "l"])
    def test_fixed_key_checked_before_the_first_trial(self, monkeypatch, params):
        monkeypatch.setattr(dfr, "run_trial", lambda *args: pytest.fail("a trial ran"))
        key = FixedKey(sample_private_key(TOY, expand_u64_seed(1)), "k.json")
        with pytest.raises(ParameterError, match="fixed key k.json has r=613, w=30; "
                           f"the campaign has r={params.r}, w={params.w}"):
            run_dfr(params, key, PsiErrors(3), StopRule(max_trials=16), master_seed=1)

    def test_resume_at_any_batch_boundary_gives_the_one_shot_record(self, tmp_path):
        # a 3-batch campaign cut after one and after two batches, then resumed
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=3 * dfr.BATCH_SIZE)
        oneshot = run_dfr(TOY, NormalKeys(), HonestErrors(), stop, master_seed=17)
        oneshot["wall_time_s"] = None
        for stopped_at in (dfr.BATCH_SIZE, 2 * dfr.BATCH_SIZE):
            path = str(tmp_path / f"ckpt{stopped_at}.json")
            run_dfr(TOY, NormalKeys(), HonestErrors(),
                    StopRule(min_trials=0, min_failures=10**9, max_trials=stopped_at),
                    master_seed=17, checkpoint_path=path)
            assert json.load(open(path))["trials_done"] == stopped_at
            resumed = run_dfr(TOY, NormalKeys(), HonestErrors(), stop, master_seed=17,
                              checkpoint_path=path)
            assert json.load(open(path))["trials_done"] == stop.max_trials
            resumed["wall_time_s"] = None
            assert resumed == oneshot


class TestRecord:
    def test_schema_fields_frozen(self):
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=16)
        rec = run_dfr(TOY, NormalKeys(), HonestErrors(), stop, master_seed=15)
        assert set(rec) == {
            "schema_version", "code_version", "params", "key_class", "error_source",
            "decoder", "stop", "master_seed", "trials", "failures", "dfr_point",
            "ci_low", "ci_high", "met_failure_rule", "wall_time_s", "timestamp",
        }
        assert rec["params"]["standard"] is False
        assert rec["decoder"] == DecoderConfig.for_params(TOY).to_json_dict()
        assert rec["stop"] == {"min_trials": 0, "min_failures": 10**9, "max_trials": 16}
        assert rec["timestamp"] == ""  # only the CLI stamps a record
        json.dumps(rec)  # serializable

    # frozen record schema: the decoder block lists the fixed schedule (nb_iter,
    # tau, mask_threshold, black_gray) beside the threshold line, in this order
    @pytest.mark.parametrize("params,line", [
        (level_params(1), (0.0069722, 13.53, 36)),
        (level_params(3), (0.005265, 15.2588, 52)),
        (level_params(5), (0.00402312, 17.8785, 69)),
        (custom_params(r=1259, w=42, t=30), (0.0, 0.0, 12)),
    ], ids=["L1", "L3", "L5", "r1259"])
    def test_decoder_block_frozen(self, params, line):
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=1)
        rec = run_dfr(params, NormalKeys(), HonestErrors(), stop, master_seed=1)
        slope, intercept, floor = line
        assert json.dumps(rec["decoder"]) == json.dumps(
            {"nb_iter": 5, "tau": 3, "thr_slope": slope, "thr_intercept": intercept,
             "thr_floor": floor, "mask_threshold": None, "black_gray": True})

    def test_checkpoint_tag_frozen(self, tmp_path):
        # an existing checkpoint resumes only under the same tag
        path = str(tmp_path / "ckpt.json")
        run_dfr(custom_params(r=1259, w=42, t=30), WeakKeySpec.parse("type1:f=10"),
                HonestErrors(), StopRule(max_trials=1), master_seed=7, checkpoint_path=path)
        tag = json.load(open(path))["tag"]
        assert tag == "fb05b11e34caeedf1d905347146ef4c2dfc11dcc2ac94d68e977a52c2a60034a"

    def test_checkpoint_is_canonical_json(self, tmp_path):
        path = tmp_path / "ckpt.json"
        run_dfr(TOY, NormalKeys(), HonestErrors(), StopRule(max_trials=1), master_seed=7,
                checkpoint_path=str(path))
        text = path.read_text()
        blob = json.loads(text)
        assert set(blob) == {"schema_version", "tag", "trials_done", "failures"}
        assert text == files.dumps_canonical(blob)
        assert not (tmp_path / "ckpt.json.tmp").exists()

    def test_summary_csv(self):
        stop = StopRule(min_trials=0, min_failures=10**9, max_trials=16)
        rec = run_dfr(TOY, NormalKeys(), HonestErrors(), stop, master_seed=16)
        assert SUMMARY_CSV_HEADER.split(",") == ["r", "trials", "failures", "dfr",
                                                 "ci_low", "ci_high"]
        row = summary_csv_row(rec)
        assert row[:2] == [613, 16]
        assert len(row) == 6
