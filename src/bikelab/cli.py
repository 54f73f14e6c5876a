"""Batch command-line interface.

Standard output is machine-readable (JSON, or CSV where documented); progress
for long campaigns goes to standard error.  Every subcommand is deterministic
given --seed.  Exit codes: 0 success, 2 parameter error, 3 I/O or schema
error, 4 retry budget exhausted.
"""

from __future__ import annotations

import argparse
import datetime
import math
import sys
import time

from . import dfr as dfrlab
from . import files
from .decoder import DecoderConfig, IterationTrace
from .errors import BudgetExhaustedError, ParameterError, SchemaError
from .kem import decaps_with_diagnostics, encaps, expand_u64_seed, keygen
from .keycheck import KeyCheckConfig, key_check, keygen_checked
from .keys import PublicKey, SystemParams, custom_params, level_params, params_with_r
from .ring import mul_sparse
from .weakkeys import (WeakKeySpec, count_type1, count_type2_upper, count_type3_upper,
                       eta_type1, eta_type3, spectrum)

ETA_CSV_HEADER = "family,param,s,log2_count,log2_eta"


def _params_from_args(args) -> SystemParams:
    overrides = [v is not None for v in (args.r, args.w, args.t)]
    if any(overrides):
        if not all(overrides):
            raise ParameterError("custom parameters need all of --r, --w, --t")
        return custom_params(r=args.r, w=args.w, t=args.t, l=args.l)
    return level_params(args.level)


def _add_params(p) -> None:
    # the parameter group that _params_from_args reads
    p.add_argument("--level", type=int, default=1, choices=(1, 3, 5))
    p.add_argument("--r", type=int, help="custom block size (with --w and --t)")
    p.add_argument("--w", type=int, help="custom row weight")
    p.add_argument("--t", type=int, help="custom error weight")
    p.add_argument("--l", type=int, default=256, help="shared key bits")


def _int(text: str, error: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParameterError(error) from exc


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
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
        with open(args.trace_csv, "w") as fh:
            fh.write(IterationTrace.CSV_HEADER + "\n")
            for row in outcome.trace:
                fh.write(row.csv_row() + "\n")
    if args.diagnostics:
        report.update(decoder_success=outcome.success, iterations=outcome.iterations_run)
    sys.stdout.write(files.dumps_canonical(report))
    return 0


def cmd_weakkey_gen(args) -> int:
    params = _params_from_args(args)
    spec = WeakKeySpec(args.type, f=args.f, d=args.d, l_shift=args.shift, m=args.m)
    sk = spec.generate(params, expand_u64_seed(args.seed))
    # weak keys drive decoding experiments, but publishing h keeps the file
    # usable with encaps as well
    h = mul_sparse(sk.h1, sk.h0.to_dense().invert())
    files.write_key(args.key_out, params, sk, PublicKey(h=h))
    if args.spectrum_csv:
        spec0 = spectrum(sk.h0, params.r // 2)
        with open(args.spectrum_csv, "w") as fh:
            fh.write(spec0.CSV_HEADER + "\n")
            for row in spec0.csv_rows():
                fh.write(row + "\n")
    sys.stdout.write(files.dumps_canonical(
        {"key_file": args.key_out, "weak_spec": spec.to_json_dict()}))
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
        return dfrlab.WeakKeys(WeakKeySpec.parse(text[len("weak:"):]))
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


def _parse_eta_from(text: str, params: SystemParams) -> float:
    head, _, rest = text.partition(":")
    kv = dict(part.split("=", 1) for part in rest.split(",") if "=" in part)
    try:
        if head == "type1":
            return eta_type1(params, int(kv["f"]))
        if head == "type3":
            return eta_type3(params, int(kv["m"]))
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"bad --eta-from value {text!r}") from exc
    raise ParameterError(f"--eta-from supports type1:f=N and type3:m=N, got {text!r}")


def _progress_printer(r: int, max_trials: int):
    """Per-batch stderr line: counts, running DFR with its 95% interval, ETA."""
    started = time.monotonic()

    def progress(trials: int, failures: int) -> None:
        low, high = dfrlab.confidence_interval(failures, trials)
        eta = (time.monotonic() - started) / trials * (max_trials - trials)
        print(f"r={r}: {trials} trials, {failures} failures, dfr {failures / trials:.4g} "
              f"[{low:.4g}, {high:.4g}], eta {eta:.1f} s to {max_trials} trials",
              file=sys.stderr)
    return progress


def cmd_dfr(args) -> int:
    base = _params_from_args(args)
    rs = ([_int(x, f"bad --rs value {x!r}") for x in args.rs.split(",")] if args.rs
          else [base.r])
    if len(set(rs)) != len(rs):
        raise ParameterError("--rs values must be distinct")
    stop = dfrlab.StopRule(min_trials=args.min_trials, min_failures=args.min_failures,
                           max_trials=args.max_trials)
    key_class = _parse_key_class(args.key_class)
    error_source = _parse_error_source(args.error_source)

    records = []
    points = []
    dropped = []   # r values left out of the extrapolation, with the reason
    for r in sorted(rs):
        params = params_with_r(base, r)
        cfg = DecoderConfig.for_params(params)
        progress = _progress_printer(params.r, stop.max_trials) if args.verbose else None
        result = dfrlab.run_dfr(params, key_class, error_source, stop,
                                master_seed=args.seed, parallelism=args.threads,
                                decoder_cfg=cfg, progress=progress)
        timestamp = "" if args.no_timestamp else datetime.datetime.now(
            datetime.timezone.utc).isoformat()
        records.append(dfrlab.make_record(result, cfg, stop, timestamp))
        if result.failures > 0:
            points.append((params.r, math.log2(result.dfr_point)))
        else:
            dropped.append({"r": params.r, "reason": f"0 failures in {result.trials} "
                            "trials, so log2 DFR is -inf"})

    out: dict = {"records": records, "extrapolation": None, "pw": None}
    if args.extrapolate_to is not None:
        if len(points) < 2:
            zero = ", ".join(str(d["r"]) for d in dropped) or "none"
            raise ParameterError("extrapolation needs two r values with failures "
                                 f"(r without failures: {zero})")
        extra = dfrlab.extrapolate(points[-2], points[-1], args.extrapolate_to)
        dropped += [{"r": r, "reason": "the line runs through the two largest r with "
                     "failures"} for r, _ in points[:-2]]
        dropped.sort(key=lambda d: d["r"])
        out["extrapolation"] = {**extra.to_json_dict(), "dropped": dropped}
        if args.eta_from:
            target = params_with_r(base, args.extrapolate_to)
            log2_eta = _parse_eta_from(args.eta_from, target)
            out["pw"] = dfrlab.pw_check(log2_eta, extra.log2_dfr_at_target,
                                        target.security_bits, queries=args.queries)

    if args.format == "csv":
        lines = [dfrlab.SUMMARY_CSV_HEADER]
        lines += [dfrlab.summary_csv_row(rec) for rec in records]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, files.dumps_canonical(out))
    return 0


def cmd_eta(args) -> int:
    params = _params_from_args(args)
    values = _parse_range(args.param_range)
    lines = [ETA_CSV_HEADER]
    log2_keyspace = math.log2(math.comb(params.r, params.w2))
    for v in values:
        if args.type == 1:
            cnt, eta = count_type1(params, v), eta_type1(params, v)
            s_field = ""
        elif args.type == 2:
            cnt = count_type2_upper(params, v, args.s)
            eta = cnt.log2 - log2_keyspace if cnt.value else float("-inf")
            s_field = str(args.s)
        else:
            cnt, eta = count_type3_upper(params, v), eta_type3(params, v)
            s_field = ""
        lines.append(f"{args.type},{v},{s_field},{cnt.log2:.6f},{eta:.6f}")
    _emit(args, "\n".join(lines) + "\n")
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
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encaps", help="encapsulate a shared key", allow_abbrev=False)
    p.add_argument("--seed", type=int, default=0, help="64-bit seed")
    p.add_argument("--key", required=True, help="key file (only params and h used)")
    p.add_argument("--ct-out", required=True)
    p.add_argument("--ss-out", required=True)
    p.set_defaults(func=cmd_encaps)

    p = sub.add_parser("decaps", help="decapsulate a ciphertext", allow_abbrev=False)
    p.add_argument("--key", required=True)
    p.add_argument("--ct", required=True)
    p.add_argument("--ss-out", required=True)
    p.add_argument("--diagnostics", action="store_true",
                   help="also report decoder success/failure")
    p.add_argument("--trace-csv", help="write per-iteration decoder trace CSV")
    p.set_defaults(func=cmd_decaps)

    p = sub.add_parser("weakkey", help="weak-key utilities")
    wk_sub = p.add_subparsers(dest="weakkey_command", required=True)
    g = wk_sub.add_parser("gen", help="generate a weak key", allow_abbrev=False)
    _add_params(g)
    g.add_argument("--seed", type=int, default=0, help="64-bit seed")
    g.add_argument("--type", type=int, required=True, choices=(1, 2, 3))
    g.add_argument("--f", type=int)
    g.add_argument("--d", type=int, default=1)
    g.add_argument("--shift", type=int, default=0)
    g.add_argument("--m", type=int)
    g.add_argument("--key-out", required=True)
    g.add_argument("--spectrum-csv", help="write the h0 distance spectrum CSV")
    g.set_defaults(func=cmd_weakkey_gen)

    p = sub.add_parser("keycheck", help="classify a key as Weak or Normal", allow_abbrev=False)
    p.add_argument("--key", required=True)
    p.add_argument("--threshold", type=int, default=10)
    p.add_argument("--out", help="write the verdict here instead of stdout")
    p.set_defaults(func=cmd_keycheck)

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
                   help="worker processes, at most one per usable CPU")
    p.add_argument("--verbose", action="store_true",
                   help="per-batch progress on stderr: running DFR, 95%% CI, ETA")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the records here instead of stdout")
    p.set_defaults(func=cmd_dfr)

    p = sub.add_parser("eta", help="weak-key densities as CSV", allow_abbrev=False)
    _add_params(p)
    p.add_argument("--type", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--param-range", required=True,
                   help='f or m values: "5:40:5" or "5,10,15"')
    p.add_argument("--s", type=int, default=2, help="run-block count for type 2")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_eta)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
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
