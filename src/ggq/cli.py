"""Command line front end: run checks, enumerate families, trace the
bijection, convert saved reports.

Exit codes: 0 all requested checks pass, 1 at least one fails, 2 usage
error (unknown id, no checks, bad family, malformed flags or config).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import namedtuple
from collections.abc import Sequence
from functools import partial

from .bijection import _fmt, _routes, _triple, identify, trace_pipeline
from .partitions import (
    ResidueFamilyConfig,
    count_g,
    count_gg,
    count_p,
    count_q,
    count_residue_family,
    enumerate_members,
    weighted_count,
)
from .registry import (
    REGISTRY,
    Corruption,
    UnknownCheckError,
    VerificationReport,
    _upward,
    registry_ids,
    run_all,
    run_check,
)

CONFIG_ENV = "GGQ_CONFIG"
SCHEMA_VERSION = 1


class CliConfig(namedtuple("CliConfig", "default_order2 parallelism output_format out_path",
                           defaults=(None, 1, "text", None))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a config file is JSON, so a value may have any type; bool is no int here
        if type(self.parallelism) is not int:
            raise ValueError(f"parallelism must be an integer, got {self.parallelism!r}")
        if self.default_order2 is not None and type(self.default_order2) is not int:
            raise ValueError(f"default_order2 must be an integer, got {self.default_order2!r}")
        if not (self.out_path is None or isinstance(self.out_path, str)):
            raise ValueError(f"out_path must be a string, got {self.out_path!r}")
        if self.default_order2 is not None and self.default_order2 <= 0:
            raise ValueError("default_order2 must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.output_format not in tuple(_EMITTERS):  # a JSON list is unhashable
            raise ValueError(f"output_format must be one of {', '.join(_EMITTERS)}")
        return self


def load_config(path: str | None) -> CliConfig:
    """Config file from the explicit path or the environment; flags
    override whatever is loaded."""
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if path is None:
        return CliConfig()
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    bad = set(raw) - set(CliConfig._fields)
    if bad:
        raise ValueError(f"unknown config keys: {sorted(bad)}")
    return CliConfig(**raw)


# -- report serialization -----------------------------------------------


# a saved report's names for VerificationReport's fields, in its order
_REPORT_FIELDS = tuple("params" if f == "parameters" else f for f in VerificationReport._fields)
# the fields a passing check leaves None, which JSON then leaves out
_FAILURE_FIELDS = ("first_mismatch", "failed_facet")


def report_to_dict(r: VerificationReport) -> dict:
    return {k: v for k, v in zip(_REPORT_FIELDS, r) if v is not None or k not in _FAILURE_FIELDS}


def report_from_dict(d: dict) -> VerificationReport:
    """A saved check; a missing field, or one of the wrong type, raises
    ValueError."""
    r = VerificationReport(*map(d.get, _REPORT_FIELDS))
    if not (
        isinstance(r.id, str)
        and isinstance(r.parameters, dict)
        and r.status in ("pass", "fail")
        and type(r.order2) is type(r.elapsed_ms) is int
        and all(isinstance(d.get(k, ""), str) for k in _FAILURE_FIELDS)
    ):
        raise ValueError(f"malformed report check: {d}")
    return r


def emit_json(reports: Sequence[VerificationReport]) -> str:
    payload = {
        "version": SCHEMA_VERSION,
        "checks": [report_to_dict(r) for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_json(text: str) -> list[VerificationReport]:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("report must be a JSON object")
    if payload.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report version: {payload.get('version')}")
    checks = payload.get("checks")
    # a report of no checks passes nothing, so it is a usage error
    if not checks or not isinstance(checks, list) or not all(isinstance(d, dict) for d in checks):
        raise ValueError("report checks must be a nonempty list of objects")
    return [report_from_dict(d) for d in checks]


def emit_csv(reports: Sequence[VerificationReport]) -> str:
    # a dict cell is compact sorted JSON; csv writes None as an empty cell
    rows = ([json.dumps(v, sort_keys=True, separators=(",", ":")) if isinstance(v, dict) else v
             for v in r] for r in reports)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_REPORT_FIELDS, *rows])
    return buf.getvalue()


def emit_text(reports: Sequence[VerificationReport]) -> str:
    lines = []
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in sorted(r.parameters.items()))
        line = f"{r.id:<8} {r.status:<4} order2={r.order2}"
        if params:
            line += " " + params
        line += f"  [{r.elapsed_ms} ms]"
        if r.first_mismatch is not None:
            facet = "" if r.failed_facet is None else f"{r.failed_facet}: "
            line += f"  {facet}{r.first_mismatch}"
        lines.append(line)
    failed = sum(r.status != "pass" for r in reports)
    lines.append(f"{len(reports)} check(s), {failed} failed")
    return "\n".join(lines) + "\n"


# the output formats: --emit's choices and the config's output_format
_EMITTERS = {"text": emit_text, "json": emit_json, "csv": emit_csv}


def _write_out(text: str, cfg: CliConfig):
    if cfg.out_path is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_reports(reports: Sequence[VerificationReport], cfg: CliConfig) -> int:
    """Write the reports in the chosen format; exit 0 when every one passed."""
    _write_out(_EMITTERS[cfg.output_format](reports), cfg)
    return 0 if all(r.status == "pass" for r in reports) else 1


# -- flag plumbing ------------------------------------------------------


def _parse_corruption(raw: str) -> Corruption:
    """KEY:DELTA with KEY either 'e2,dz,dw', a bare index, or empty for
    the default (smallest) key."""
    key_part, sep, delta_part = raw.rpartition(":")
    if not sep:
        raise ValueError("corruption must look like KEY:DELTA")
    delta = int(delta_part)
    if key_part == "":
        return Corruption(None, delta)
    if "," in key_part:
        key = tuple(int(x) for x in key_part.split(","))
        if len(key) != 3:
            raise ValueError("series corruption key needs three components")
        return Corruption(key, delta)
    return Corruption(int(key_part), delta)


# each generic flag and the parameters it sets, the first a check takes
_GRID_FLAGS = {"k": ("k_list", "k_max"), "l": ("l_max",), "m": ("m_max",),
               "n": ("n_max", "sigma_max")}


def _grid_params(check_id: str, args) -> dict:
    """Map the generic -k/-l/-m/-n flags onto the check's parameter names."""
    known = REGISTRY[check_id].quick
    out = {}
    for flag, names in _GRID_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        name = next((p for p in names if p in known), None)
        if name is None:
            raise ValueError(f"check {check_id} takes no --{flag} parameter")
        out[name] = [value] if name == "k_list" else value
    if args.order is not None and "order2" not in known:
        raise ValueError(f"check {check_id} takes no --order parameter")
    return out


# -- partition families -------------------------------------------------


def _family_counter(family: str):
    fixed = {
        **{f"Q{i}": partial(count_q, i) for i in range(4)},
        "GG": count_gg,
        "S-weighted": partial(weighted_count, "S"),
        "Sstar-weighted": partial(weighted_count, "Sstar"),
        "G": count_g,
        "P": count_p,
    }
    if family in fixed:
        return fixed[family]
    if family.startswith("residue:"):
        parts = family.split(":")
        if len(parts) not in (3, 5):
            raise ValueError(
                "residue family: residue:<mod>:<r,..> or "
                "residue:<mod>:<r,..>:<sub>:<r,..>"
            )
        modulus = int(parts[1])
        allowed = frozenset(int(x) for x in parts[2].split(","))
        if len(parts) == 3:
            cfg = ResidueFamilyConfig(modulus, allowed)
        else:
            sub = int(parts[3])
            distinct = frozenset(int(x) for x in parts[4].split(","))
            cfg = ResidueFamilyConfig(modulus, allowed, distinct, sub)
        return partial(count_residue_family, cfg)
    raise ValueError(
        f"unknown family {family!r}; valid: {', '.join(sorted(fixed))}, residue:<cfg>"
    )


# -- subcommands --------------------------------------------------------


def _cmd_verify(args, cfg: CliConfig) -> int:
    if args.id not in REGISTRY:
        raise UnknownCheckError(args.id, registry_ids())
    params = _grid_params(args.id, args)
    order2 = args.order
    if order2 is None and "order2" in REGISTRY[args.id].quick:
        order2 = cfg.default_order2  # may still be None: registry default
    corrupt = _parse_corruption(args.corrupt) if args.corrupt else None
    report = run_check(args.id, order2=order2, corrupt=corrupt, **params)
    return _emit_reports([report], cfg)


def _cmd_verify_all(args, cfg: CliConfig) -> int:
    reports = run_all(level=args.level, parallelism=cfg.parallelism, corrupt_id=args.corrupt)
    return _emit_reports(reports, cfg)


def _cmd_count(args, cfg: CliConfig) -> int:
    if args.max < 0:
        raise ValueError("--max must be nonnegative")
    counts = _upward(_family_counter(args.family), args.max)
    fmt = cfg.output_format
    if fmt == "json":
        text = (
            json.dumps(
                {"family": args.family, "max": args.max, "counts": counts},
                sort_keys=True,
            )
            + "\n"
        )
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerows([["n", "count"], *enumerate(counts)])
        text = buf.getvalue()
    else:
        text = ",".join(str(c) for c in counts) + "\n"
    _write_out(text, cfg)
    return 0


def _cmd_bijection(args, cfg: CliConfig) -> int:
    lines = []
    for pi in enumerate_members("S", args.n):
        for choice, pair in _routes(pi, identify(pi)):
            if args.trace:
                for stage, value in trace_pipeline(pi, choice):
                    lines.append(f"{stage}: {value}")
                lines.append("")
            else:
                pi1, pi3, pi4 = _triple(pi, *pair)
                shown = "".join("2" if b else "1" for b in choice) or "-"
                lines.append(f"pi={_fmt(pi)} choice={shown} -> "
                             f"pi1={_fmt(pi1)} pi3={_fmt(pi3)} pi4={_fmt(pi4)}")
    _write_out("\n".join(lines) + "\n" if lines else "", cfg)
    return 0


def _cmd_report(args, cfg: CliConfig) -> int:
    with open(args.input, encoding="utf-8") as fh:
        reports = parse_json(fh.read())
    return _emit_reports(reports, cfg)


# -- argument parsing ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ggq", description="identity and bijection verification harness"
    )
    p.add_argument("--config", help="path to a JSON config file")
    sub = p.add_subparsers(dest="command", required=True)

    # each flag's dest is the config field it overrides; main merges them
    def add_out_flag(sp):
        sp.add_argument("--out", dest="out_path", help="write output to this path")

    def add_output_flags(sp):
        sp.add_argument("--emit", dest="output_format", choices=tuple(_EMITTERS))
        add_out_flag(sp)

    v = sub.add_parser("verify", help="run one catalog check")
    v.add_argument("--id", required=True, help="catalog id, e.g. 1.1 or thm3")
    v.add_argument("--order", type=int, help="truncation in half-exponent units")
    v.add_argument("--k", type=int)
    v.add_argument("--l", type=int)
    v.add_argument("--m", type=int)
    v.add_argument("--n", type=int)
    v.add_argument("--corrupt", help=argparse.SUPPRESS)
    add_output_flags(v)
    v.set_defaults(func=_cmd_verify)

    va = sub.add_parser("verify-all", help="run the whole catalog")
    va.add_argument("--level", choices=("quick", "full"), default="quick")
    va.add_argument("--parallelism", type=int)
    va.add_argument("--corrupt", help=argparse.SUPPRESS)
    add_output_flags(va)
    va.set_defaults(func=_cmd_verify_all)

    c = sub.add_parser("count", help="tabulate a partition family")
    c.add_argument("--family", required=True)
    c.add_argument("--max", type=int, required=True)
    add_output_flags(c)
    c.set_defaults(func=_cmd_count)

    b = sub.add_parser("bijection", help="map weighted members through the pipeline")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--trace", action="store_true", help="print every stage")
    add_out_flag(b)  # the bijection writes text only
    b.set_defaults(func=_cmd_bijection)

    r = sub.add_parser("report", help="convert a saved JSON report")
    r.add_argument("input", help="path to a JSON report")
    add_output_flags(r)
    r.set_defaults(func=_cmd_report)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # flags win over the config, and the merged record is checked like a
        # loaded one; an empty --out falls back to the config or stdout
        flags = {k: v for k in CliConfig._fields if (v := getattr(args, k, None)) not in (None, "")}
        return args.func(args, CliConfig(**{**load_config(args.config)._asdict(), **flags}))
    # UnknownCheckError and json.JSONDecodeError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
