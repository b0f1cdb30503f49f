"""Command-line interface.

Subcommands: ``kappa`` (model/hardware ratio tables), ``roofline`` (CSV
sweeps), ``analyze`` (trace expansion and distribution summaries), ``synth``
(synthetic timed streams), ``simulate`` (scheduler simulation and policy
comparison).

Every subcommand takes ``--catalog``. Only ``kappa`` and ``roofline`` take
``--bandwidth`` (``simulate`` reads ``bandwidth_mode`` from its config),
and only ``synth`` takes ``--seed``; the simulator draws no random numbers.

Every output carries a manifest block recording the tool version, command
line, catalog hash, and the seed where there is one, so re-running with the
recorded inputs reproduces byte-identical files. Files are written as UTF-8
whatever the locale. Internals are SI units;
tables display KB/GFLOP and GFLOP/KB unless ``--si`` is given.

``simulate --config`` takes a JSON object with these keys:

* ``model``, ``hardware`` (required): a string naming a catalog entry, or an
  inline object with the catalog's fields and checks;
* ``vram_effective``: a number > 0, the KV pool in bytes, replacing the
  platform's figure (default: the platform's);
* ``bandwidth_mode``: the string ``"sustained"`` (default) or ``"peak"``;
* ``token_budget``: an integer >= 1, prefill tokens per iteration (default
  4000; ``4000.0`` is not an integer);
* ``overlap_alpha``: a number in [0, 1], the transfer/compute overlap
  (default 0.0);
* ``allow_chunked_prefill``: ``true`` (default) or ``false``.

Any other key, a missing required key, a repeated key or a value of another
type is a data error, and so is JSON nested too deeply to parse:
``<file>: config: missing key(s) [...]; required: ...``, ``<file>: JSON
nested too deeply to read``. A JSON ``true`` or ``false`` is never a number,
here or in a catalog.

A report's ``mean_power_watts`` comes from the platform's ``idle_watts`` and
``tdp_watts``; it is null when the platform lacks either.

Exit codes: 0 success, 2 usage error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import __version__
from . import analytics, roofline, workload
from .catalog import (
    HardwareSpec,
    ModelSpec,
    build_spec,
    by_name,
    check_keys,
    default_catalog_text,
    json_keys,
    loads_catalog,
    lookup,
    parse_document,
    read_document,
    refuse,
)
from .errors import KvroofError, SimulationError, WorkloadError
from .simulator import (
    ITERATION_CSV_COLUMNS,
    POLICIES,
    SimConfig,
    compare_policies,
)

ENV_CATALOG = "KVROOF_CATALOG"

EXIT_OK = 0
EXIT_DATA = 3


class Catalog(NamedTuple):
    """The active catalog, keyed by name."""

    models: dict
    hardware: dict


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded in every output."""

    tool: str
    command: list[str]
    catalog: str
    catalog_sha256: str
    seed: Optional[int] = None

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if self.seed is None:
            del out["seed"]
        return out

    def as_comment(self) -> str:
        return "manifest " + json.dumps(self.as_dict(), sort_keys=True)


def _load_active_catalog(path_arg: Optional[str], argv: list[str], seed: Optional[int]):
    """The active catalog and the manifest that records its hash."""
    path = path_arg or os.environ.get(ENV_CATALOG)
    if path:
        text = read_document(path, "catalog")
        label = str(path)
    else:
        text = default_catalog_text()
        label = "<bundled>"
    models, hardware = loads_catalog(text, source=label)
    manifest = RunManifest(
        tool=f"kvroof {__version__}",
        command=argv,
        catalog=label,
        catalog_sha256=hashlib.sha256(text.encode()).hexdigest(),
        seed=seed,
    )
    return Catalog(by_name(models), by_name(hardware)), manifest


def _pick(pool: dict, names: Optional[str], kind: str) -> list:
    if not names or names == "all":
        return list(pool.values())
    chosen = [name.strip() for name in names.split(",")]
    picked = [lookup(pool, name, kind) for name in chosen]
    if len(set(chosen)) < len(chosen):
        refuse("", f"{kind} names", names, "distinct")
    return picked


def _write_csv(path, manifest: RunManifest, header: Sequence[str], rows=(), lines=()) -> None:
    """CSV with the manifest as a leading comment line: ``rows`` through ``csv.writer``, then ``lines`` as they are."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {manifest.as_comment()}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(lines)


# --- kappa ------------------------------------------------------------------

def _cmd_kappa(args, catalog: Catalog, manifest: RunManifest) -> int:
    chosen_models = _pick(catalog.models, args.models, "model")
    chosen_hw = _pick(catalog.hardware, args.hw, "hardware")
    use_sustained = args.bandwidth == "sustained"
    rows = []
    for m in chosen_models:
        for h in chosen_hw:
            km = analytics.kappa_model(m)
            kh = analytics.kappa_hw(h, use_sustained)
            kc = analytics.kappa_crit(m, h, use_sustained)
            if args.si:
                rows.append((m.name, h.name, f"{km:.6e}", f"{kh:.6e}", f"{kc:.4f}"))
            else:
                rows.append((m.name, h.name, f"{km / 1e6:.4f}", f"{kh * 1e6:.4f}", f"{kc:.4f}"))
    km_unit = "kappa_m[FLOP/B]" if args.si else "kappa_m[GFLOP/KB]"
    kh_unit = "kappa_hw[B/FLOP]" if args.si else "kappa_hw[KB/GFLOP]"
    header = ("model", "hardware", km_unit, kh_unit, "kappa_crit")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(5)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    print(f"# {manifest.as_comment()}")
    if args.out:
        _write_csv(args.out, manifest, header, rows)
    return EXIT_OK


# --- roofline ----------------------------------------------------------------

def _cmd_roofline(args, catalog: Catalog, manifest: RunManifest) -> int:
    model = lookup(catalog.models, args.model, "model")
    chosen_hw = _pick(catalog.hardware, args.hw, "hardware")
    series = roofline.roofline_sweep(
        model,
        chosen_hw,
        kappa_min=args.kappa_min,
        kappa_max=args.kappa_max,
        points_per_decade=args.points_per_decade,
        use_sustained=args.bandwidth == "sustained",
    )
    roofline.write_series_csv(series, args.out, manifest.as_comment())
    print(f"wrote {sum(len(s.points) for s in series)} points for {len(series)} series to {args.out}")
    return EXIT_OK


# --- analyze ------------------------------------------------------------------

def _cmd_analyze(args, catalog: Catalog, manifest: RunManifest) -> int:
    read = workload.read_conversations if args.kind == "conversation" else workload.read_documents
    records = [r for line in read(args.trace) for r in line]
    if not records:
        raise WorkloadError(f"{args.trace}: trace produced no requests")
    summary = workload.summarize(records)
    print(f"requests: {summary.count}")
    for title, stats in (
        ("prefill_tokens (T)", summary.prefill_tokens),
        ("cached_tokens (K)", summary.cached_tokens),
        ("kappa_ratio (K/T)", summary.kappa_ratio),
    ):
        pcts = "  ".join(f"p{p}={stats.percentiles[p]:g}" for p in workload.PERCENTILES)
        print(f"{title}: mean={stats.mean:.4g}  min={stats.minimum:g}  max={stats.maximum:g}  {pcts}")
    print(f"# {manifest.as_comment()}")
    if args.out:
        header = ["source_id", "cached_tokens", "prefill_tokens", "kappa_ratio"]
        _write_csv(args.out, manifest, header, lines=map(_analysis_row, records))
    return EXIT_OK


def _analysis_row(r: workload.RequestRecord) -> str:
    """The record's ``analysis.csv`` row as ``csv.writer`` writes it; only the id can need quoting."""
    sid = r.source_id
    if "," in sid or '"' in sid or "\r" in sid or "\n" in sid:
        return roofline.csv_row([sid, r.cached_tokens, r.prefill_tokens, repr(r.kappa_ratio)])
    return f"{sid},{r.cached_tokens},{r.prefill_tokens},{r.kappa_ratio!r}\r\n"


# --- synth --------------------------------------------------------------------

def _cmd_synth(args, catalog: Catalog, manifest: RunManifest) -> int:
    # A profile may be named without its "-like" suffix.
    profiles = {**workload.PROFILES, **{n.removesuffix("-like"): p for n, p in workload.PROFILES.items()}}
    profile = lookup(profiles, args.profile, "profile")
    records = workload.synthesize_stream(profile, rps=args.rps, duration_s=args.duration, seed=args.seed)
    workload.write_stream(records, args.out, manifest=manifest.as_dict())
    print(f"wrote {len(records)} requests to {args.out}")
    return EXIT_OK


# --- simulate -----------------------------------------------------------------

def _resolve_spec(value, pool: dict, cls, kind: str):
    if isinstance(value, str):
        return lookup(pool, value, kind)
    if isinstance(value, dict):
        return build_spec(cls, value, kind)
    refuse("", kind, value, "a catalog name or an inline object")


def _load_sim_config(path: str, catalog: Catalog) -> SimConfig:
    """The config's specs resolved against the catalog; SimConfig checks and defaults the rest."""
    doc = parse_document(read_document(path, "config"), path)
    try:
        check_keys(doc, json_keys(SimConfig, "vram_effective"), "config")
        doc["model"] = _resolve_spec(doc["model"], catalog.models, ModelSpec, "model")
        doc["hardware"] = _resolve_spec(doc["hardware"], catalog.hardware, HardwareSpec, "hardware")
        if "vram_effective" in doc:
            doc["hardware"] = dataclasses.replace(doc["hardware"], vram_effective=doc.pop("vram_effective"))
        return SimConfig(**doc)
    except KvroofError as exc:  # every config error names the file once, here
        raise KvroofError(f"{path}: {exc}") from exc


def _write_json(path: Path, manifest: RunManifest, key: str, body: dict) -> None:
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, written as they are encoded."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"manifest": manifest.as_dict(), key: body}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(args, catalog: Catalog, manifest: RunManifest) -> int:
    config = _load_sim_config(args.config, catalog)
    records = workload.read_stream(args.stream)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # default None: argparse sees a given "fifo" beside --compare
    policies = tuple(POLICIES) if args.compare else (args.policy or "fifo",)
    try:
        comparison = compare_policies(config, records, policies)
    except SimulationError as exc:  # a fault the simulator finds in the stream: name its file
        raise SimulationError(f"{args.stream}: {exc}") from exc
    for name, rep in comparison.reports:
        suffix = f"_{name}" if args.compare else ""
        _write_json(out_dir / f"report{suffix}.json", manifest, "report", rep.to_dict())
        _write_csv(out_dir / f"iterations{suffix}.csv", manifest, ITERATION_CSV_COLUMNS, rep.iteration_rows())
    if args.compare:
        _write_json(out_dir / "comparison.json", manifest, "comparison", comparison.to_dict())
        print("iterations per policy: " + ", ".join(f"{name}={len(rep.iterations)}" for name, rep in comparison.reports))
    else:
        policy, report = comparison.reports[0]
        print(
            f"{policy}: {len(report.iterations)} iterations, "
            f"mean scheduled tokens {report.mean_scheduled_tokens:.1f}, "
            f"completed {report.completed}, rejected {len(report.rejected)}"
        )
    return EXIT_OK


# --- parser -------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvroof",
        description="Performance modeling for prefill serving with offloaded KV caches.",
    )
    parser.add_argument("--version", action="version", version=f"kvroof {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, bandwidth: bool = False, seed: bool = False) -> None:
        p.add_argument("--catalog", help=f"catalog JSON path (default: ${ENV_CATALOG} or bundled)")
        if bandwidth:
            p.add_argument(
                "--bandwidth",
                choices=("peak", "sustained"),
                default="sustained",
                help="which link bandwidth figure to use (default: sustained)",
            )
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")

    p = sub.add_parser("kappa", help="print model/hardware/critical ratio tables")
    common(p, bandwidth=True)
    p.add_argument("--models", default="all", help="comma-separated model names (default: all)")
    p.add_argument("--hw", default="all", help="comma-separated hardware names (default: all)")
    p.add_argument("--si", action="store_true", help="print raw byte/FLOP values instead of KB/GFLOP")
    p.add_argument("--out", help="also write the table as CSV")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("roofline", help="write roofline sweep CSV over the K/T ratio")
    common(p, bandwidth=True)
    p.add_argument("--model", required=True, help="model name")
    p.add_argument("--hw", default="all", help="comma-separated hardware names (default: all)")
    p.add_argument("--kappa-min", type=float, default=0.1)
    p.add_argument("--kappa-max", type=float, default=1e5)
    p.add_argument("--points-per-decade", type=int, default=16)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_roofline)

    p = sub.add_parser("analyze", help="expand a trace file and summarize K, T, K/T")
    common(p)
    p.add_argument("trace", help="JSON Lines trace file")
    p.add_argument("--kind", choices=("conversation", "document"), required=True)
    p.add_argument("--out", help="write expanded request records as CSV")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synth", help="synthesize a timed request stream")
    common(p, seed=True)
    p.add_argument(
        "--profile",
        default="sharegpt",
        help="stream profile: sharegpt, narrativeqa, or finqa (default: sharegpt)",
    )
    p.add_argument("--rps", type=float, required=True, help="mean arrival rate, requests/s")
    p.add_argument("--duration", type=float, required=True, help="stream length, seconds")
    p.add_argument("--out", required=True, help="output JSON Lines path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("simulate", help="run the iteration-level scheduler simulation")
    common(p)
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--stream", required=True, help="JSON Lines stream file")
    how = p.add_mutually_exclusive_group()
    how.add_argument("--policy", choices=POLICIES, help="scheduling policy (default: fifo)")
    how.add_argument("--compare", action="store_true", help="run every policy on the same stream")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command. The cyclic collector pauses until it returns: a command builds
    only acyclic records, which full collections would walk again and again."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: Optional[Sequence[str]]) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if hasattr(sys.stdout, "reconfigure"):  # what the locale cannot encode prints escaped, as on stderr
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        catalog, manifest = _load_active_catalog(
            args.catalog, ["kvroof"] + argv, getattr(args, "seed", None)
        )
        return args.func(args, catalog, manifest)
    except (KvroofError, OSError) as exc:  # OSError: an output could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
