"""Command-line surface: estimation, census experiments, program-language
utilities, and the trial planner, with reproducible file outputs.

Exit codes: 0 success, 2 usage/configuration error or a file that cannot be
read or written, 3 mathematically empty result (no finite estimate at the
requested bound).  Any other exception is a fault in qkclab and propagates.
Everything a command writes is a pure function of (config, seed): no
timestamps, sorted JSON keys, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

from .census import (
    record_obj,
    consistency_sweep,
    incompressibility_census,
    rotated_basis,
    subadditivity_report,
)
from .estimator import (
    exact_estimate,
    k_from_bound,
    projection_oracle,
    sampled_estimate,
)
from .executor import candidate_table, run
from .proglang import (
    CALLC,
    ENCODING_VERSION,
    OPS,
    Program,
    callc_free_gates,
    decode,
    encode,
    enumerate_programs,
    program_from_json,
    program_to_json,
)
from .statevec import classical_state, operands, state_from_json

SCHEMA_VERSION = "qkclab/1"
CACHE_ENV_VAR = "QKCLAB_CACHE_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_ESTIMATE = 3


class UsageError(Exception):
    pass


@dataclass
class Config:
    cache_dir: Optional[str] = None
    n: int = 2
    max_len: int = 12
    alpha: float = 0.05
    epsilon: float = 0.25
    seed: int = 0
    verbosity: int = 0
    out_dir: str = "reports"


def load_config_file(path: str) -> dict:
    """Simple key=value file; # starts a comment."""
    values = {}
    known = set(asdict(Config()))
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _coerce(config: Config, key: str, value) -> Config:
    current = getattr(config, key)
    try:
        if isinstance(current, int):
            value = int(value)
        elif isinstance(current, float):
            value = float(value)
    except ValueError as exc:
        raise UsageError(f"bad value for {key}: {value!r}") from exc
    return replace(config, **{key: value})


def effective_config(args: argparse.Namespace) -> Config:
    """defaults < config file < environment < command-line flags."""
    config = Config()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            config = _coerce(config, key, value)
    env_cache = os.environ.get(CACHE_ENV_VAR)
    if env_cache:
        config = replace(config, cache_dir=env_cache)
    for key in asdict(config):
        flag = getattr(args, key, None)
        if flag is not None:
            config = _coerce(config, key, flag)
    if not config.cache_dir:
        # an empty path means no cache, from any source, as the env var does
        config = replace(config, cache_dir=None)
    # every value is checked once here, so no record echoes an invalid config
    if config.n < 1 or config.max_len < 1:
        raise UsageError(f"n and max_len must be positive, got {config.n}, {config.max_len}")
    if not 0 < config.alpha < 1:
        raise UsageError(f"alpha must be in (0, 1), got {config.alpha}")
    if not 0 < config.epsilon < 0.5:
        raise UsageError(f"epsilon must be in (0, 1/2), got {config.epsilon}")
    return config


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_csv(path: Path, header: list, rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _record(kind: str, config: Config, **fields) -> dict:
    """A record of this kind, stamped with the schema, the encoding and the
    config that produced it."""
    return {
        "kind": kind,
        "schema": SCHEMA_VERSION,
        "encoding_version": ENCODING_VERSION,
        "config": asdict(config),
        **fields,
    }


def _write_report(config: Config, stem: str, command: str, report, params: dict) -> list[str]:
    """The report's JSON and CSV and the command's manifest, under out_dir."""
    directory = Path(config.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    obj = report.to_json_obj()
    json_path = directory / f"{stem}.json"
    csv_path = directory / f"{stem}.csv"
    manifest_path = directory / f"{stem}.manifest.json"
    json_path.write_text(_dumps(_record(obj.pop("kind"), config, **obj)))
    _write_csv(csv_path, report.csv_header(), report.csv_rows())
    manifest_path.write_text(_dumps(_record("manifest", config, command=command, **params)))
    return [str(json_path), str(csv_path), str(manifest_path)]


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------

def parse_program_arg(text: str) -> Program:
    """LEN:HEX, e.g. 7:20 for the seven bits 0100000."""
    try:
        length_str, hex_str = text.split(":", 1)
        return program_from_json({"len": int(length_str), "bits_hex": hex_str})
    except ValueError as exc:
        raise UsageError(f"bad program argument {text!r}: {exc}") from exc


def _callc_free(flag: str, text: str, n: int) -> Program:
    """The LEN:HEX program of a flag that names a conditional or a generator:
    it must pass `callc_free_gates` at the width n that runs it."""
    program = parse_program_arg(text)
    try:
        callc_free_gates(program, n)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc
    return program


def parse_gate_list(text: str):
    """Comma-separated ops, each an `OPS` name and its operands joined by
    colons: X:t, CNOT:c:t, ROT:t, PHASE:t, CALLC; qubit indices are validated
    against n during encoding."""
    gates = []
    if not text.strip():
        return gates
    by_name = {op.__name__: op for op in OPS}
    for token in text.split(","):
        name, *idxs = token.strip().upper().split(":")
        op = by_name.get(name)
        if op is None or len(idxs) != len(fields(op)):
            raise UsageError(f"unrecognized gate token {token.strip()!r}")
        try:
            gates.append(op(*map(int, idxs)))
        except ValueError as exc:
            raise UsageError(f"bad gate token {token.strip()!r}: {exc}") from exc
    return gates


def _load_target(args, config: Config):
    sources = [s for s in (args.classical, args.statefile, args.target_program) if s]
    if len(sources) != 1:
        raise UsageError(
            "exactly one of --classical, --statefile, --target-program is required"
        )
    if args.classical:
        try:
            target = classical_state(args.classical)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        desc = {"classical": args.classical}
    elif args.statefile:
        try:
            obj = json.loads(Path(args.statefile).read_text())
            target = state_from_json(obj)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read state file {args.statefile}: {exc}") from exc
        desc = {"statefile": args.statefile}
    else:
        prog = parse_program_arg(args.target_program)
        target = run(prog, config.n)
        if target is None:
            raise UsageError(
                f"target program does not halt for n={config.n}: {prog.bits}"
            )
        desc = {"target_program": program_to_json(prog)}
    if target.n_qubits != config.n:
        raise UsageError(
            f"target has {target.n_qubits} qubits but n={config.n} was requested"
        )
    return target, desc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_estimate(args, config: Config) -> int:
    target, desc = _load_target(args, config)
    conditional = None
    if args.conditional:
        conditional = _callc_free("--conditional", args.conditional, config.n)
    if args.sampled:
        if conditional is not None:
            raise UsageError("--sampled does not take a conditional program")
        try:
            k = k_from_bound(config.n, config.alpha, config.epsilon)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    record = _record(
        "estimate", config,
        n=config.n,
        max_len=config.max_len,
        target=desc,
        conditional=None if conditional is None else program_to_json(conditional),
    )
    if args.sampled:
        result = sampled_estimate(
            projection_oracle(target), config.n, config.max_len,
            config.alpha, config.epsilon, config.seed,
        )
        record.update(
            {
                "mode": "sampled",
                "plan": {"alpha": config.alpha, "epsilon": config.epsilon, "k": k},
                "seed": config.seed,
                "best": None
                if result.best is None
                else {
                    "program": program_to_json(result.best.program),
                    "m": result.best.m,
                    "k": result.best.k,
                    "estimate": result.best.estimate,
                },
                "trace": [[i, est] for i, est in result.trace],
            }
        )
        empty = result.best is None
    else:
        table = candidate_table(config.n, config.max_len, conditional, config.cache_dir)
        result = exact_estimate(target, table)
        record.update(
            {
                "mode": "exact",
                "best": record_obj(result.best),
                "trace": [[i, total] for i, total in result.trace],
                "scanned": result.scanned,
            }
        )
        empty = result.best is None
    record["status"] = "no_finite_estimate" if empty else "ok"
    _emit(_dumps(record), args.out)
    return EXIT_NO_ESTIMATE if empty else EXIT_OK


def cmd_census(args, config: Config) -> int:
    if args.c < 0:
        raise UsageError(f"--c must be nonnegative, got {args.c}")
    basis = rotated_basis(config.n) if args.rotated else None
    label = "rotated" if args.rotated else "standard"
    report = incompressibility_census(
        config.n, args.c, config.max_len,
        basis=basis, cache_dir=config.cache_dir, label=label,
    )
    stem = f"census-{ENCODING_VERSION}-{label}-n{config.n}-c{args.c}-len{config.max_len}"
    paths = _write_report(
        config, stem, "census", report,
        {"n": config.n, "c": args.c, "max_len": config.max_len, "basis": label},
    )
    summary = {
        "verdict": report.verdict,
        "count_below": report.count_below,
        "bound": report.bound,
        "files": paths,
    }
    sys.stdout.write(_dumps(summary))
    return EXIT_OK


def cmd_consistency(args, config: Config) -> int:
    sweep = consistency_sweep(config.n, config.max_len, cache_dir=config.cache_dir)
    stem = f"consistency-{ENCODING_VERSION}-n{config.n}-len{config.max_len}"
    paths = _write_report(
        config, stem, "consistency", sweep, {"n": config.n, "max_len": config.max_len},
    )
    sys.stdout.write(_dumps({"max_gap": sweep.max_gap, "files": paths}))
    return EXIT_OK


def cmd_subadd(args, config: Config) -> int:
    p_x = _callc_free("--px", args.px, config.n)
    p_y = _callc_free("--py", args.py, config.n)
    report = subadditivity_report(
        p_x, p_y, config.max_len, n=config.n, cache_dir=config.cache_dir
    )
    stem = (
        f"subadd-{ENCODING_VERSION}-n{config.n}-len{config.max_len}-"
        f"{p_x.length}x{p_x.value:x}-{p_y.length}x{p_y.value:x}"
    )
    paths = _write_report(
        config, stem, "subadd", report,
        {"n": config.n, "p_x": program_to_json(p_x), "p_y": program_to_json(p_y),
         "max_len": config.max_len},
    )
    sys.stdout.write(
        _dumps({"conclusive": report.conclusive, "slack": report.slack, "files": paths})
    )
    return EXIT_OK


def cmd_encode(args, config: Config) -> int:
    gates = parse_gate_list(args.gates)
    try:
        program = encode(gates, config.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    record = _record(
        "program", config, n=config.n, bits=program.bits, program=program_to_json(program)
    )
    _emit(_dumps(record), args.out)
    return EXIT_OK


def _gate_str(op) -> str:
    return ":".join([type(op).__name__, *map(str, operands(op))])


def cmd_decode(args, config: Config) -> int:
    if args.bits is not None:
        try:
            bits = Program(args.bits).bits
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    elif args.program is not None:
        bits = parse_program_arg(args.program).bits
    else:
        raise UsageError("one of --bits, --program is required")
    gates = decode(bits, config.n)  # the header-only program decodes to ()
    record = _record(
        "decoded", config,
        n=config.n,
        bits=bits,
        decodable=gates is not None,
        gates=None if gates is None else [_gate_str(g) for g in gates],
        call_sites=None if gates is None else [i for i, g in enumerate(gates) if g == CALLC()],
    )
    _emit(_dumps(record), args.out)
    return EXIT_OK


def cmd_enumerate(args, config: Config) -> int:
    if args.limit < 0:
        raise UsageError(f"--limit must be nonnegative, got {args.limit}")
    lines = []
    for program in enumerate_programs(config.max_len, config.n):
        lines.append(
            json.dumps(
                {"len": program.length, "bits": program.bits,
                 "bits_hex": format(program.value, "x")},
                sort_keys=True,
            )
        )
        if args.limit and len(lines) >= args.limit:
            break
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return EXIT_OK


def cmd_kplan(args, config: Config) -> int:
    try:
        k = k_from_bound(config.n, config.alpha, config.epsilon, slack=args.slack)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # the kplan record has never carried encoding_version
    record = {
        "kind": "kplan",
        "schema": SCHEMA_VERSION,
        "config": asdict(config),
        "n": config.n,
        "alpha": config.alpha,
        "epsilon": config.epsilon,
        "slack": args.slack,
        "k": k,
    }
    _emit(_dumps(record), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("--cache-dir", dest="cache_dir", help="program-output cache directory")
    sub.add_argument("--seed", type=int, help="seed for all randomness")
    sub.add_argument("--verbosity", type=int, help="verbosity level")
    sub.add_argument("--out-dir", dest="out_dir", help="directory for report files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkclab",
        description="quantum Kolmogorov complexity lab: exact rational machine, "
        "prefix-free programs, enumeration estimators, counting experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("estimate", help="exact or sampled complexity estimate")
    p.add_argument("--classical", help="classical bit string target")
    p.add_argument("--statefile", help="JSON state-vector file target")
    p.add_argument("--target-program", dest="target_program",
                   help="LEN:HEX program; its output becomes the target")
    p.add_argument("--n", type=int, help="register width (qubits)")
    p.add_argument("--max-len", dest="max_len", type=int, help="enumeration bound in bits")
    p.add_argument("--conditional", help="LEN:HEX conditional program for CALLC")
    p.add_argument("--sampled", action="store_true", help="use the measurement-driven mode")
    p.add_argument("--alpha", type=float, help="error probability for the sampled mode")
    p.add_argument("--epsilon", type=float, help="relative accuracy for the sampled mode")
    p.add_argument("--out", help="write the record here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = subs.add_parser("census", help="incompressibility counting over a basis")
    p.add_argument("--n", type=int, help="register width")
    p.add_argument("--c", type=int, required=True, help="compression margin")
    p.add_argument("--max-len", dest="max_len", type=int, help="enumeration bound")
    p.add_argument("--rotated", action="store_true",
                   help="use the fixed ROT/CNOT-rotated basis instead of the standard one")
    _add_common(p)
    p.set_defaults(func=cmd_census)

    p = subs.add_parser("consistency", help="estimate vs exact program length on all classical strings")
    p.add_argument("--n", type=int, help="register width")
    p.add_argument("--max-len", dest="max_len", type=int, help="enumeration bound")
    _add_common(p)
    p.set_defaults(func=cmd_consistency)

    p = subs.add_parser("subadd", help="sub-additivity and joint-state bound for two generator programs")
    p.add_argument("--px", required=True, help="LEN:HEX generator program for x")
    p.add_argument("--py", required=True, help="LEN:HEX generator program for y")
    p.add_argument("--n", type=int, help="register width of each generator")
    p.add_argument("--max-len", dest="max_len", type=int, help="enumeration bound")
    _add_common(p)
    p.set_defaults(func=cmd_subadd)

    p = subs.add_parser("encode", help="encode a gate list into program bits")
    p.add_argument("--gates", default="", help="e.g. X:0,CNOT:0:1,ROT:1,CALLC")
    p.add_argument("--n", type=int, help="register width")
    p.add_argument("--out", help="write the record here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_encode)

    p = subs.add_parser("decode", help="decode program bits")
    p.add_argument("--bits", help="raw bit string")
    p.add_argument("--program", help="LEN:HEX form")
    p.add_argument("--n", type=int, help="register width")
    p.add_argument("--out", help="write the record here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_decode)

    p = subs.add_parser("enumerate", help="list decodable programs in canonical order")
    p.add_argument("--max-len", dest="max_len", type=int, help="enumeration bound")
    p.add_argument("--n", type=int, help="register width")
    p.add_argument("--limit", type=int, default=0, help="stop after this many programs")
    p.add_argument("--out", help="write the listing here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("kplan", help="trials per candidate from the tail bound")
    p.add_argument("--n", type=int, help="register width")
    p.add_argument("--alpha", type=float, help="error probability")
    p.add_argument("--epsilon", type=float, help="relative accuracy")
    p.add_argument("--slack", type=float, default=0.0, help="additive constant budget")
    p.add_argument("--out", help="write the record here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_kplan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, effective_config(args))
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
