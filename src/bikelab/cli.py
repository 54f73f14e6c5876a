"""Batch command-line interface.

Standard output is machine-readable (JSON, or CSV where documented); progress
for long campaigns goes to standard error.  Every subcommand is deterministic
given --seed.  Exit codes: 0 success, 2 parameter error, 3 I/O or schema
error, 4 retry budget exhausted.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import math
import sys
import time
from dataclasses import asdict, astuple

from . import dfr as dfrlab
from . import files
from .decoder import IterationTrace
from .errors import BudgetExhaustedError, NotInvertibleError, ParameterError, SchemaError
from .kem import decaps_with_diagnostics, encaps, expand_u64_seed, keygen, public_key
from .keycheck import KeyCheckConfig, key_check, keygen_checked
from .keys import SystemParams, custom_params, level_params, params_with_r
from .weakkeys import (WeakKeySpec, count_type1, count_type2_upper, count_type3_upper,
                       log2_count, log2_density, spectrum)

ETA_CSV_HEADER = "family,param,s,log2_count,log2_eta"


def _params_from_args(args) -> SystemParams:
    overrides = [v is not None for v in (args.r, args.w, args.t)]
    if not any(overrides):
        if args.l is not None:
            raise ParameterError("--l is read only with --r, --w, --t")
        return level_params(args.level or 1)
    if args.level is not None:
        raise ParameterError("--level does not combine with --r, --w, --t")
    if not all(overrides):
        raise ParameterError("custom parameters need all of --r, --w, --t")
    return custom_params(r=args.r, w=args.w, t=args.t, l=256 if args.l is None else args.l)


def _add_params(p) -> None:
    # the parameter group that _params_from_args reads
    p.add_argument("--level", type=int, choices=(1, 3, 5), help="standard set (default 1)")
    p.add_argument("--r", type=int, help="custom block size (with --w and --t)")
    p.add_argument("--w", type=int, help="custom row weight")
    p.add_argument("--t", type=int, help="custom error weight")
    p.add_argument("--l", type=int, help="shared key bits of a custom set (default 256)")


def _int(text: str, error: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParameterError(error) from exc


def _emit(args, text: str) -> None:
    if args.out:
        files.write_text(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_keygen(args) -> int:
    params = _params_from_args(args)
    seed = expand_u64_seed(args.seed)
    if args.check:
        cfg = KeyCheckConfig(threshold_T=args.check_threshold)
        sk, pk, rejected = keygen_checked(params, seed, cfg, budget=args.check_budget)
    else:
        sk, pk = keygen(params, seed)
        rejected = 0
    files.write_key(args.key_out, params, sk, pk)
    sys.stdout.write(files.dumps_canonical(
        {"key_file": args.key_out, "checked": bool(args.check), "rejected": rejected}))
    return 0


def cmd_encaps(args) -> int:
    params, pk = files.read_public_key(args.key)
    c, k = encaps(pk, params, expand_u64_seed(args.seed))
    files.write_ciphertext(args.ct_out, c)
    files.write_shared_key(args.ss_out, k)
    sys.stdout.write(files.dumps_canonical(
        {"ciphertext_file": args.ct_out, "shared_key_file": args.ss_out}))
    return 0


def cmd_decaps(args) -> int:
    params, sk, _pk = files.read_key(args.key)
    c = files.read_ciphertext(args.ct, params)
    k, outcome = decaps_with_diagnostics(sk, c, params)
    files.write_shared_key(args.ss_out, k)
    report = {"shared_key_file": args.ss_out}
    if args.trace_csv:
        files.write_text(args.trace_csv,
                         files.csv_text(IterationTrace.CSV_HEADER, map(astuple, outcome.trace)))
    if args.diagnostics:
        report.update(decoder_success=outcome.success, iterations=outcome.iterations_run)
    sys.stdout.write(files.dumps_canonical(report))
    return 0


def cmd_weakkey_gen(args) -> int:
    params = _params_from_args(args)
    given = {"f": args.f, "d": args.d, "shift": args.shift, "m": args.m}
    spec = WeakKeySpec.of(args.type, {k: v for k, v in given.items() if v is not None})
    sk = spec.sample(params, expand_u64_seed(args.seed))
    # weak keys drive decoding experiments, but publishing h keeps the file
    # usable with encaps as well
    files.write_key(args.key_out, params, sk, public_key(sk.h0, sk.h1))
    if args.spectrum_csv:
        spec0 = spectrum(sk.h0)
        files.write_text(args.spectrum_csv, files.csv_text(spec0.CSV_HEADER, spec0.mult.items()))
    sys.stdout.write(files.dumps_canonical(
        {"key_file": args.key_out, "weak_spec": asdict(spec)}))
    return 0


def cmd_keycheck(args) -> int:
    _params, sk, _pk = files.read_key(args.key)
    cfg = KeyCheckConfig(threshold_T=args.threshold)
    verdict = key_check(sk.h0, sk.h1, cfg)
    _emit(args, files.dumps_canonical(verdict.to_json_dict(cfg)))
    return 0


def _parse_key_class(text: str):
    if text == "normal":
        return dfrlab.NormalKeys()
    if text.startswith("weak:"):
        return WeakKeySpec.parse(text[len("weak:"):])
    if text.startswith("fixed:"):
        path = text[len("fixed:"):]
        _params, sk, _pk = files.read_key(path)
        return dfrlab.FixedKey(sk, label=path)
    raise ParameterError(f"unknown key class {text!r}")


def _parse_error_source(text: str):
    if text == "honest":
        return dfrlab.HonestErrors()
    if text.startswith("psi:"):
        return dfrlab.PsiErrors(_int(text[len("psi:"):], f"bad psi distance in {text!r}"))
    raise ParameterError(f"unknown error source {text!r}")


def _progress_printer(r: int, stop: dfrlab.StopRule):
    """Per-batch stderr line: counts, running DFR with its 95% interval, ETA."""
    started = time.monotonic()

    def progress(trials: int, failures: int) -> None:
        low, high = dfrlab.confidence_interval(failures, trials)
        target = stop.expected_stop(trials, failures)
        eta = (time.monotonic() - started) / trials * (target - trials)
        print(f"r={r}: {trials} trials, {failures} failures, dfr {failures / trials:.4g} "
              f"[{low:.4g}, {high:.4g}], eta {eta:.1f} s to {target} trials",
              file=sys.stderr)
    return progress


def cmd_dfr(args) -> int:
    base = _params_from_args(args)
    rs = ([_int(x, f"bad --rs value {x!r}") for x in args.rs.split(",")] if args.rs
          else [base.r])
    if len(set(rs)) != len(rs):
        raise ParameterError("--rs values must be distinct")
    # every r checked before any campaign runs, so a bad one costs none
    sweep = [params_with_r(base, r) for r in sorted(rs)]
    if args.queries is not None and not args.eta_from:
        raise ParameterError("--queries is read only with --eta-from")
    if args.eta_from:
        if args.extrapolate_to is None:
            raise ParameterError("--eta-from is read only with --extrapolate-to")
        # before any campaign runs, so a bad descriptor or count costs none
        target = params_with_r(base, args.extrapolate_to)
        log2_eta = WeakKeySpec.parse(args.eta_from).log2_eta(target)
        if args.queries is not None and args.queries < 1:
            raise ParameterError("--queries must be >= 1")
    if args.extrapolate_to is not None and (len(rs) < 2 or args.extrapolate_to <= max(rs)):
        raise ParameterError("--extrapolate-to needs at least two --rs values, all below it")
    stop = dfrlab.StopRule(min_trials=args.min_trials, min_failures=args.min_failures,
                           max_trials=args.max_trials)
    key_class = _parse_key_class(args.key_class)
    error_source = _parse_error_source(args.error_source)
    for params in sweep:
        for part in (key_class, error_source):
            part.check_params(params)

    records = []
    for params in sweep:
        progress = _progress_printer(params.r, stop) if args.verbose else None
        rec = dfrlab.run_dfr(params, key_class, error_source, stop,
                             master_seed=args.seed, parallelism=args.threads,
                             progress=progress)
        if not args.no_timestamp:
            rec["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        records.append(rec)

    out: dict = {"records": records, "extrapolation": None, "pw": None}
    if args.extrapolate_to is not None:
        # records run in ascending r, so the line runs through the last two with failures
        fit = [rec for rec in records if rec["failures"]][-2:]
        dropped = [{"r": rec["params"]["r"], "reason": (
                        "the line runs through the two largest r with failures" if rec["failures"]
                        else f"0 failures in {rec['trials']} trials, so log2 DFR is -inf")}
                   for rec in records if rec not in fit]
        if len(fit) < 2:
            zero = ", ".join(str(d["r"]) for d in dropped)
            raise ParameterError("extrapolation needs two r values with failures "
                                 f"(r without failures: {zero})")
        extra = dfrlab.extrapolate(*[(rec["params"]["r"], math.log2(rec["dfr_point"]))
                                     for rec in fit], args.extrapolate_to)
        out["extrapolation"] = {**extra, "dropped": dropped}
        if args.eta_from:
            out["pw"] = dfrlab.pw_check(log2_eta, extra["log2_dfr_at_target"],
                                        target.security_bits, queries=args.queries)

    if args.format == "csv":
        _emit(args, files.csv_text(dfrlab.SUMMARY_CSV_HEADER,
                                   map(dfrlab.summary_csv_row, records)))
    else:
        _emit(args, files.dumps_canonical(out))
    return 0


def cmd_eta(args) -> int:
    params = _params_from_args(args)
    values = _parse_range(args.param_range)
    rows = []
    if args.s is not None and args.type != 2:
        raise ParameterError(f"--s is read only with --type 2, not --type {args.type}")
    s = 2 if args.s is None else args.s
    count = {1: count_type1, 2: lambda p, v: count_type2_upper(p, v, s),
             3: count_type3_upper}[args.type]
    s_field = str(s) if args.type == 2 else ""
    for v in values:
        cnt = count(params, v)
        eta = log2_density(params, cnt)
        rows.append([args.type, v, s_field, f"{log2_count(cnt):.6f}", f"{eta:.6f}"])
        if eta > 0:
            print(f"note: type {args.type} param {v}: log2_eta {eta:.2f} > 0, the count "
                  "bound exceeds the key space, so this row is not a density",
                  file=sys.stderr)
    _emit(args, files.csv_text(ETA_CSV_HEADER, rows))
    return 0


def _parse_range(text: str) -> list[int]:
    """Accept "5:40:5" (start:stop:step, inclusive) or "5,10,15"."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3) or not all(p.lstrip("-").isdigit() for p in parts):
            raise ParameterError(f"bad range {text!r}")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0 or stop < start:
            raise ParameterError(f"bad range {text!r}")
        return list(range(start, stop + 1, step))
    return [_int(x, f"bad range {text!r}") for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bikelab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    # no abbreviations: "decaps --t 14" would otherwise be read as --trace-csv 14
    p = sub.add_parser("keygen", help="generate a key pair", allow_abbrev=False)
    _add_params(p)
    p.add_argument("--seed", type=int, default=0, help="64-bit seed")
    p.add_argument("--key-out", required=True)
    p.add_argument("--check", action="store_true", help="reject weak candidates")
    p.add_argument("--check-threshold", type=int, default=10)
    p.add_argument("--check-budget", type=int, default=100)
    p.set_defaults(handler="cmd_keygen")

    p = sub.add_parser("encaps", help="encapsulate a shared key", allow_abbrev=False)
    p.add_argument("--seed", type=int, default=0, help="64-bit seed")
    p.add_argument("--key", required=True, help="key file (only params and h used)")
    p.add_argument("--ct-out", required=True)
    p.add_argument("--ss-out", required=True)
    p.set_defaults(handler="cmd_encaps")

    p = sub.add_parser("decaps", help="decapsulate a ciphertext", allow_abbrev=False)
    p.add_argument("--key", required=True)
    p.add_argument("--ct", required=True)
    p.add_argument("--ss-out", required=True)
    p.add_argument("--diagnostics", action="store_true",
                   help="also report decoder success/failure")
    p.add_argument("--trace-csv", help="write per-iteration decoder trace CSV")
    p.set_defaults(handler="cmd_decaps")

    p = sub.add_parser("weakkey", help="weak-key utilities")
    wk_sub = p.add_subparsers(dest="weakkey_command", required=True)
    g = wk_sub.add_parser("gen", help="generate a weak key", allow_abbrev=False)
    _add_params(g)
    g.add_argument("--seed", type=int, default=0, help="64-bit seed")
    g.add_argument("--type", type=int, required=True, choices=(1, 2, 3))
    g.add_argument("--f", type=int)
    g.add_argument("--d", type=int, help="step of a type-1 run or type-2 chain (default 1)")
    g.add_argument("--shift", type=int, help="rotation of a type-1 run (default 0)")
    g.add_argument("--m", type=int)
    g.add_argument("--key-out", required=True)
    g.add_argument("--spectrum-csv", help="write the h0 distance spectrum CSV")
    g.set_defaults(handler="cmd_weakkey_gen")

    p = sub.add_parser("keycheck", help="classify a key as Weak or Normal", allow_abbrev=False)
    p.add_argument("--key", required=True)
    p.add_argument("--threshold", type=int, default=10)
    p.add_argument("--out", help="write the verdict here instead of stdout")
    p.set_defaults(handler="cmd_keycheck")

    p = sub.add_parser("dfr", help="measure decoding failure rates", allow_abbrev=False)
    _add_params(p)
    p.add_argument("--seed", type=int, default=0, help="64-bit seed")
    p.add_argument("--key-class", default="normal",
                   help='"normal", "weak:type1:f=40,d=1", or "fixed:key.json"')
    p.add_argument("--error-source", default="honest", help='"honest" or "psi:D"')
    p.add_argument("--min-trials", type=int, default=0)
    p.add_argument("--min-failures", type=int, default=1000)
    p.add_argument("--max-trials", type=int, default=100_000)
    p.add_argument("--rs", help="comma-separated r values to sweep")
    p.add_argument("--extrapolate-to", type=int)
    p.add_argument("--eta-from", help='key-class density, e.g. "type1:f=5"')
    p.add_argument("--queries", type=int,
                   help="also report the q * eta * DFR advantage product")
    p.add_argument("--no-timestamp", action="store_true",
                   help="blank the timestamp field (reproducible records)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per usable CPU; with one, "
                        "trials run in this process")
    p.add_argument("--verbose", action="store_true",
                   help="per-batch progress on stderr: running DFR, 95%% CI, ETA")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the records here instead of stdout")
    p.set_defaults(handler="cmd_dfr")

    p = sub.add_parser("eta", help="weak-key densities as CSV", allow_abbrev=False)
    _add_params(p)
    p.add_argument("--type", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--param-range", required=True,
                   help='f or m values: "5:40:5" or "5,10,15"')
    p.add_argument("--s", type=int, help="run-block count, type 2 only (default 2)")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(handler="cmd_eta")

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # by name, so a wrapper set on this module's cmd_* after the first call is used
        return globals()[args.handler](args)
    except (ParameterError, NotInvertibleError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
