"""Command-line interface.

Subcommands mirror the library's workflows::

    python -m satiot tle tianqi                 # export element sets
    python -m satiot passes tianqi --site HK    # contact windows
    python -m satiot presence --site HK         # Fig. 3a style table
    python -m satiot passive --sites HK --days 1 --spill spill/
    python -m satiot active --days 2
    python -m satiot coverage tianqi --hours 24
    python -m satiot dataset export archive/ --sites HK,SYD --days 1
    python -m satiot dataset info archive/     # manifest-only, O(1)
    python -m satiot dataset info spill/ --verify  # checksum v2 shards
    python -m satiot catalog synth fleet.3le.gz   # 5k-sat mega fleet
    python -m satiot catalog insert cat.db fleet.3le.gz --group-from-name
    python -m satiot catalog get cat.db group:MEGA-SHELL-D
    python -m satiot catalog history cat.db 70001 --last 3
    python -m satiot catalog stats cat.db
    python -m satiot scenario validate spec.json  # strict spec check
    python -m satiot scenario grid spec.json      # expanded sweep matrix
    python -m satiot scenario run spec.json --out runs/a --workers 4
    python -m satiot scenario diff runs/a runs/b  # KPI deltas (exit 1)
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple


from . import __version__
from .faults import FAULTS_ENV, FaultPlane, install_plane
from .constellations.catalog import (CONSTELLATION_SPECS,
                                     build_all_constellations,
                                     build_constellation)
from .core.active import ActiveCampaign, ActiveCampaignConfig
from .core.availability import daily_presence_hours
from .core.campaign import (PassiveCampaign, PassiveCampaignConfig,
                            PassiveCampaignResult)
from .core.contacts import analyze_contacts
from .core.performance import compare_systems
from .core.report import format_kv, format_table
from .core.sites import SITES
from .groundstation.traces import TRACE_FORMATS, _text_format
from .orbits.frames import GeodeticPoint
from .orbits.groundtrack import CoverageGrid
from .orbits.passes import find_passes_fleet

__all__ = ["main", "build_parser"]


def _resolve_location(args: argparse.Namespace) -> GeodeticPoint:
    if args.site is not None:
        if args.site not in SITES:
            raise SystemExit(f"unknown site {args.site!r}; "
                             f"choose from {sorted(SITES)}")
        return SITES[args.site].location
    if args.lat is None or args.lon is None:
        raise SystemExit("provide --site or both --lat and --lon")
    return GeodeticPoint(args.lat, args.lon)


def _add_location_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--site", choices=sorted(SITES), default=None,
                        help="a paper measurement site code")
    parser.add_argument("--lat", type=float, default=None)
    parser.add_argument("--lon", type=float, default=None)


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="shard workers (default: $SATIOT_WORKERS or 1 = serial; "
             "0 = one per CPU); parallel runs are bit-identical to "
             "serial ones")
    parser.add_argument(
        "--timing", action="store_true",
        help="print per-shard runtime telemetry (wall time, events/s, "
             "ephemeris-cache hit/miss)")
    _add_faults_arg(parser)


def _add_spill_args(parser: argparse.ArgumentParser,
                    resume: bool = False) -> None:
    parser.add_argument(
        "--spill", default=None, metavar="DIR",
        help="stream traces into a sharded satiot-traces-v2 archive "
             "under DIR (bounded memory; see docs/streams.md)")
    parser.add_argument(
        "--rows-per-shard", type=int, default=100_000,
        help="rows per spilled shard (default: 100000)")
    if resume:
        parser.add_argument(
            "--resume", action="store_true",
            help="resume a killed run from DIR's checkpoint; the "
                 "finished archive is byte-identical to an "
                 "uninterrupted run")


def _add_faults_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="seeded fault-injection spec, e.g. "
             "'seed=7;cache.disk_read=p0.5;executor.task=n1' "
             "(also exported as $SATIOT_FAULTS so shard workers see "
             "it); see docs/faults.md")


def _install_faults(args: argparse.Namespace) -> None:
    """Arm the fault plane from ``--faults`` (and export the spec)."""
    spec = getattr(args, "faults", None)
    if not spec:
        return
    try:
        plane = FaultPlane.from_spec(spec)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    # Export first: shard worker processes rebuild their plane from the
    # environment, the parent uses the installed instance.
    os.environ[FAULTS_ENV] = spec
    install_plane(plane)


# ----------------------------------------------------------------------
def cmd_tle(args: argparse.Namespace) -> int:
    from .catalog import format_catalog, write_catalog
    constellation = build_constellation(args.constellation,
                                        seed=args.seed)
    tles = [satellite.tle for satellite in constellation]
    if args.out:
        count = write_catalog(tles, args.out, fmt=args.format)
        print(f"wrote {count} element sets ({args.format}) to {args.out}")
        return 0
    for line in format_catalog(tles, fmt=args.format):
        print(line)
    return 0


def cmd_passes(args: argparse.Namespace) -> int:
    location = _resolve_location(args)
    constellation = build_constellation(args.constellation,
                                        seed=args.seed)
    epoch = constellation.satellites[0].tle.epoch
    satellites = list(constellation)
    per_sat = find_passes_fleet([sat.propagator for sat in satellites],
                                [location], epoch, args.days * 86400.0,
                                min_elevation_deg=args.min_elevation)
    rows = [[satellite.name, window.rise_s / 3600.0,
             window.duration_s / 60.0, window.max_elevation_deg]
            for satellite, windows in zip(satellites, per_sat)
            for window in windows[0]]
    rows.sort(key=lambda r: r[1])
    print(format_table(
        ["Satellite", "rise (h)", "duration (min)", "max el (deg)"],
        rows, precision=1,
        title=f"{constellation.name} passes, {args.days:g} day(s)"))
    print(f"{len(rows)} passes")
    return 0


def cmd_presence(args: argparse.Namespace) -> int:
    location = _resolve_location(args)
    rows = []
    for name, constellation in sorted(
            build_all_constellations(seed=args.seed).items()):
        epoch = constellation.satellites[0].tle.epoch
        hours = daily_presence_hours(constellation, location, epoch,
                                     days=args.days,
                                     min_elevation_deg=args.min_elevation)
        rows.append([constellation.name, len(constellation), hours])
    print(format_table(
        ["Constellation", "#SATs", "presence (h/day)"], rows,
        precision=1, title="Theoretical daily presence (Figure 3a)"))
    return 0


def cmd_passive(args: argparse.Namespace) -> int:
    refused = _refuse_outputs(args.out, [args.spill])
    if refused is not None:
        return refused
    _install_faults(args)
    sites = tuple(s.strip() for s in args.sites.split(",") if s.strip())
    config = PassiveCampaignConfig(sites=sites, days=args.days,
                                   seed=args.seed)
    result = PassiveCampaign(config, workers=args.workers).run()
    print(f"collected {result.total_traces} traces at "
          f"{len(sites)} site(s)")
    if args.timing and result.telemetry is not None:
        print()
        print(result.telemetry.render())
    for name in sorted(result.constellations):
        for code in sites:
            stats = analyze_contacts(result.receptions(code, name),
                                     result.duration_s)
            print(f"  {name:7s} @ {code}: "
                  f"theo {stats.theoretical_daily_hours:5.1f} h/day, "
                  f"eff {stats.effective_daily_hours:4.1f} h/day, "
                  f"shrink {stats.duration_shrinkage:.0%}")
    if args.out:
        try:
            fmt = result.dataset.save(args.out)
        except (OSError, ValueError) as error:
            return _dataset_error("write", args.out, error)
        print(f"wrote {args.out} ({fmt})")
    return _spill_result(result, args)


# ----------------------------------------------------------------------
def _dataset_error(action: str, root: str, error: Exception) -> int:
    """Uniform trace-archive failure: clear message on stderr, exit 2.

    Covers missing archives, unwritable paths, corrupt files and
    malformed manifests — operator mistakes, not crashes, so no traceback.
    """
    print(f"error: cannot {action} dataset archive {root!r}: {error}",
          file=sys.stderr)
    return 2


def _refuse_outputs(out: Optional[str],
                    dirs: Sequence[Optional[str]]) -> Optional[int]:
    """Check output paths before the campaign runs; the first that
    cannot be written exits 2 through :func:`_dataset_error`.

    ``out`` (a trace file) needs a suffix :meth:`TraceDataset.save`
    accepts and an existing directory; ``dirs`` (archive roots, created
    on demand) must not be, or lie below, a regular file.  Errors that
    only show up while writing are still reported after the run.
    """
    try:
        if out:
            _text_format(out, None)
            if not Path(out).parent.is_dir():
                raise FileNotFoundError(errno.ENOENT, "No such directory",
                                        str(Path(out).parent))
    except (OSError, ValueError) as error:
        return _dataset_error("write", out, error)
    for path in filter(None, dirs):
        try:
            nearest = next(p for p in (Path(path), *Path(path).parents)
                           if p.exists())
            if not nearest.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, "Not a directory",
                                         str(nearest))
        except OSError as error:
            return _dataset_error("write", path, error)
    return None


def _spill_result(result: PassiveCampaignResult,
                  args: argparse.Namespace) -> int:
    """Spill a campaign result into ``--spill DIR`` (when given)."""
    if not args.spill:
        return 0
    try:
        stream = result.spill_to(args.spill,
                                 rows_per_shard=args.rows_per_shard)
    except (OSError, ValueError) as error:
        return _dataset_error("write", args.spill, error)
    print(f"spilled {stream['total_rows']} traces into "
          f"{len(stream['shards'])} shard(s) under {args.spill}")
    return 0


def cmd_dataset_export(args: argparse.Namespace) -> int:
    from .datasets import export_dataset
    refused = _refuse_outputs(None, [args.root, args.spill])
    if refused is not None:
        return refused
    _install_faults(args)
    sites = tuple(s.strip() for s in args.sites.split(",") if s.strip())
    config = PassiveCampaignConfig(sites=sites, days=args.days,
                                   seed=args.seed)
    result = PassiveCampaign(config, workers=args.workers).run()
    try:
        manifest = export_dataset(result, args.root, name=args.name,
                                  trace_format=args.trace_format)
    except (OSError, ValueError) as error:
        return _dataset_error("write", args.root, error)
    print(f"archived {manifest.total_traces} traces "
          f"({manifest.trace_format}) under {args.root}")
    for code, count in sorted(manifest.sites.items()):
        print(f"  {code}: {count} traces")
    return _spill_result(result, args)


def _stream_archive_info(args: argparse.Namespace) -> int:
    """Summarise a sharded ``satiot-traces-v2`` spill archive.

    Reads only ``manifest.json`` — O(1) in archive size — unless
    ``--verify`` asks for the full checksum walk.  A truncated or
    corrupt shard surfaces as exit 2 with the offending file named.
    """
    from .streams.spill import ShardedTraceReader
    try:
        reader = ShardedTraceReader(args.root)
        if args.verify:
            reader.verify()
    except (OSError, ValueError, TypeError, KeyError) as error:
        return _dataset_error("read", args.root, error)
    manifest = reader.manifest
    meta = reader.meta
    print(format_kv([
        ("format", manifest["format"]),
        ("engine", meta.get("engine", "-")),
        ("total rows", reader.total_rows),
        ("shards", reader.shard_count),
        ("rows per shard", manifest["rows_per_shard"]),
        ("fingerprint", (manifest.get("fingerprint") or "-")[:16]),
        ("verified", "checksums OK" if args.verify
         else "no (manifest only; use --verify)"),
    ], precision=1, title=f"Dataset archive {args.root}"))
    print(format_table(
        ["Shard", "rows", "sha256"],
        [[entry["name"], entry["rows"], entry["sha256"][:12]]
         for entry in manifest["shards"]], precision=0))
    return 0


def cmd_dataset_info(args: argparse.Namespace) -> int:
    from .datasets import _site_traces_path, read_manifest
    from .streams.spill import is_stream_archive
    if is_stream_archive(args.root):
        return _stream_archive_info(args)
    try:
        manifest = read_manifest(args.root)
        # O(1) per site: stat the trace file, never parse it.  --verify
        # upgrades to a full load with row-count validation.
        site_rows = []
        for code in sorted(manifest.sites):
            path = _site_traces_path(Path(args.root), code,
                                     manifest.trace_format)
            site_rows.append([code, manifest.sites[code], path.name,
                              path.stat().st_size / 1024.0])
        if args.verify:
            from .datasets import load_dataset
            load_dataset(args.root)
    except (OSError, ValueError, TypeError, KeyError) as error:
        return _dataset_error("read", args.root, error)
    print(format_kv([
        ("name", manifest.name),
        ("seed", manifest.seed),
        ("days", manifest.days),
        ("trace format", manifest.trace_format),
        ("total traces", manifest.total_traces),
        ("verified", "row counts OK" if args.verify
         else "no (manifest only; use --verify)"),
    ], precision=1, title=f"Dataset archive {args.root}"))
    print(format_table(
        ["Site", "traces", "file", "size (KiB)"], site_rows,
        precision=1))
    return 0


def cmd_active(args: argparse.Namespace) -> int:
    config = ActiveCampaignConfig(days=args.days, seed=args.seed,
                                  max_retransmissions=args.retx,
                                  payload_bytes=args.payload)
    result = ActiveCampaign(config).run()
    comparison = compare_systems(result.all_satellite_records(),
                                 result.all_terrestrial_records())
    print(format_kv([
        ("satellite reliability", comparison.satellite_reliability),
        ("terrestrial reliability", comparison.terrestrial_reliability),
        ("satellite latency (min)", comparison.satellite_latency_min),
        ("terrestrial latency (min)",
         comparison.terrestrial_latency_min),
        ("latency ratio", comparison.latency_ratio),
        ("wait / DtS / delivery (min)",
         f"{comparison.wait_min:.1f} / {comparison.dts_min:.1f} / "
         f"{comparison.delivery_min:.1f}"),
    ], precision=3, title=f"Active campaign, {args.days:g} day(s)"))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .core.summary import ReportScale, full_report
    _install_faults(args)
    scale = ReportScale(passive_days=args.passive_days,
                        active_days=args.active_days, seed=args.seed)
    print(full_report(scale, workers=args.workers,
                      timing=args.timing))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .core.validation import run_self_checks
    results = run_self_checks()
    failures = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        failures += 0 if check.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def _names(text: str) -> Tuple[str, ...]:
    """A comma-separated name list, stripped and lowercased."""
    return tuple(s.strip().lower() for s in text.split(",") if s.strip())


def _serve_fleet(config, extra, fleet_config, names: str) -> int:
    """Run ``satiot serve`` as a supervised multi-worker fleet."""
    import json
    import time as _time

    from .serving.supervisor import ServingFleet

    try:
        fleet = ServingFleet(config, fleet_config, extra=extra)
    except (RuntimeError, ValueError) as error:
        raise SystemExit(f"error: {error}")
    port = fleet.start()
    try:
        fleet.wait_ready()
        print(f"satiot serving on http://{config.host}:{port} "
              f"({fleet.workers} workers, {fleet.mode}; "
              f"constellations: {names})", flush=True)
        while True:
            _time.sleep(3600.0)
    except KeyboardInterrupt:
        # Final fleet view: per-worker /metrics merged by the
        # supervisor (counters summed, histograms bucket-wise, latency
        # quantiles pooled) — the multi-process analogue of the
        # single-server shutdown stats.
        print("shutting down")
        try:
            print(json.dumps(fleet.fleet_metrics(timeout=2.0),
                             indent=2, sort_keys=True), flush=True)
        except Exception:
            pass
    finally:
        fleet.stop()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .runtime.ephemeris_cache import EphemerisCache
    from .serving import ServingConfig, ServingServer
    from .serving.server import build_service
    from .serving.supervisor import FleetConfig, default_workers
    _install_faults(args)
    # The config validates every name and value before a catalog is
    # read or a worker forked.
    try:
        config = ServingConfig(
            host=args.host, port=args.port,
            constellations=_names(args.constellations),
            window_s=args.batch_window_ms / 1000.0,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            cache_ttl_s=args.cache_ttl,
            coarse_step_s=args.step,
            realtime=args.realtime,
            rate=args.rate,
            providers=None if args.providers is None
            else _names(args.providers))
        workers = args.workers if args.workers is not None \
            else default_workers()
        fleet_config = FleetConfig(workers=workers,
                                   ephemeris_dir=args.cache_dir)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    if args.rate != 1.0 and not args.realtime:
        raise SystemExit("error: --rate requires --realtime")
    extra = []
    if args.catalog:
        from .catalog import TleNotFound, constellation_from_catalog
        from .orbits.tle import TLEError
        try:
            extra.append(constellation_from_catalog(
                args.catalog, args.select or None,
                name=args.catalog_name))
        except (OSError, TleNotFound, TLEError, ValueError) as error:
            raise SystemExit(
                f"error: cannot load catalog {args.catalog!r}: {error}")
    elif args.select:
        raise SystemExit("error: --select requires --catalog")
    if not config.constellations and not extra:
        raise SystemExit("error: nothing to serve: give --constellations "
                         "and/or --catalog")
    names = ", ".join(sorted({*config.constellations,
                              *(const.name.lower() for const in extra)}))
    if workers > 1:
        return _serve_fleet(config, extra, fleet_config, names)

    try:
        service = build_service(config, extra,
                                EphemerisCache(disk_dir=args.cache_dir))
    except ValueError as error:  # a catalog named like a built-in
        raise SystemExit(f"error: {error}")
    server = ServingServer(config, service)

    async def run() -> None:
        await server.start()
        mode = "micro-batched" if config.max_batch > 1 else "unbatched"
        if config.realtime:
            mode += f", realtime x{config.rate:g}"
        print(f"satiot serving on "
              f"http://{config.host}:{server.bound_port} "
              f"({mode}; constellations: {names})")
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    constellation = build_constellation(args.constellation,
                                        seed=args.seed)
    epoch = constellation.satellites[0].tle.epoch
    grid = CoverageGrid.empty(args.grid, args.hours * 3600.0)
    grid.accumulate_union([s.propagator for s in constellation], epoch,
                          step_s=args.step)
    print(format_kv([
        ("constellation", constellation.name),
        ("span (h)", args.hours),
        ("covered fraction of Earth", grid.covered_fraction()),
        ("mean access (h/day)", grid.mean_daily_hours()),
        ("access at Hong Kong (h)", grid.hours_at(22.3, 114.2)),
        ("access at the poles (h)", grid.hours_at(89.0, 0.0)),
    ], precision=2, title="Global coverage"))
    if args.map:
        print()
        print(grid.render_ascii())
    return 0


# ----------------------------------------------------------------------
def _cli_error(action: str, error: Exception) -> int:
    """Uniform catalog- and scenario-CLI failure: message on stderr,
    exit 2.

    Selector misses, corrupt catalog files, spec typos, unreadable
    files, non-run directories and bad arguments are operator
    mistakes, not crashes — no traceback.
    """
    print(f"error: cannot {action}: {error}", file=sys.stderr)
    return 2


def _catalog_entry_rows(entries) -> list:
    return [[e.norad_id, e.name, e.group or "-",
             f"{e.epoch_jd:.6f}",
             e.tle.inclination_deg, e.tle.mean_motion_rev_day]
            for e in entries]


_CATALOG_TABLE_HEADER = ["NORAD", "Name", "Group", "epoch (JD)",
                         "incl (deg)", "n (rev/day)"]


def cmd_catalog_insert(args: argparse.Namespace) -> int:
    from .catalog import TleDb
    from .orbits.tle import TLEError
    try:
        with TleDb(args.db) as db:
            stats = db.insert_file(
                args.file, group=args.group or "",
                group_from_name=args.group_from_name,
                validate_checksum=not args.no_validate_checksum)
    except (OSError, TLEError, ValueError) as error:
        return _cli_error(f"ingest {args.file!r}", error)
    print(f"{args.db}: {stats.inserted} element sets inserted "
          f"({stats.duplicates} duplicates skipped, "
          f"{stats.new_objects} new objects)")
    return 0


def cmd_catalog_get(args: argparse.Namespace) -> int:
    from .catalog import TleNotFound, format_catalog, open_any_catalog
    try:
        with open_any_catalog(args.db) as db:
            entries = db.get(args.selectors or None,
                             as_of_jd=args.as_of)
    except (OSError, TleNotFound, ValueError) as error:
        return _cli_error(f"select from {args.db!r}", error)
    if args.format == "table":
        print(format_table(_CATALOG_TABLE_HEADER,
                           _catalog_entry_rows(entries), precision=4,
                           title=f"{len(entries)} element set(s)"))
        return 0
    for line in format_catalog([e.tle for e in entries],
                               fmt=args.format):
        print(line)
    return 0


def cmd_catalog_history(args: argparse.Namespace) -> int:
    from .catalog import TleNotFound, open_any_catalog
    try:
        with open_any_catalog(args.db) as db:
            entries = db.history(args.selectors, last=args.last)
    except (OSError, TleNotFound, ValueError) as error:
        return _cli_error(f"read history from {args.db!r}", error)
    print(format_table(_CATALOG_TABLE_HEADER,
                       _catalog_entry_rows(entries), precision=4,
                       title=f"{len(entries)} element set(s), "
                             f"epoch-ordered per object"))
    return 0


def cmd_catalog_find(args: argparse.Namespace) -> int:
    from .catalog import open_any_catalog
    try:
        with open_any_catalog(args.db) as db:
            entries = db.find(args.text)
    except (OSError, ValueError) as error:
        return _cli_error(f"search {args.db!r}", error)
    print(format_table(_CATALOG_TABLE_HEADER,
                       _catalog_entry_rows(entries), precision=4,
                       title=f"{len(entries)} match(es) for "
                             f"{args.text!r}"))
    return 0


def cmd_catalog_stats(args: argparse.Namespace) -> int:
    from .catalog import open_any_catalog
    try:
        with open_any_catalog(args.db) as db:
            stats = db.stats()
    except (OSError, ValueError) as error:
        return _cli_error(f"read {args.db!r}", error)
    print(format_kv([
        ("objects", stats.objects),
        ("element sets", stats.element_sets),
        ("groups", len(stats.groups)),
        ("first epoch (JD)", stats.first_epoch_jd or float("nan")),
        ("last epoch (JD)", stats.last_epoch_jd or float("nan")),
        ("epoch span (days)", stats.epoch_span_days),
    ], precision=6, title=f"Catalog {args.db}"))
    if stats.groups:
        print()
        print(format_table(
            ["Group", "objects"],
            [[grp, count] for grp, count in sorted(stats.groups.items())],
            precision=0))
    return 0


def cmd_catalog_synth(args: argparse.Namespace) -> int:
    from .catalog import (MEGACONST_5K, TleDb,
                          synthesize_mega_constellation, write_catalog)
    tles = synthesize_mega_constellation(MEGACONST_5K, seed=args.seed)
    if args.out.endswith(".db") or args.out.endswith(".sqlite"):
        with TleDb(args.out) as db:
            stats = db.insert(tles, group_from_name=True)
        print(f"synthesized {MEGACONST_5K.name}: {stats.inserted} "
              f"element sets into {args.out}")
        return 0
    count = write_catalog(tles, args.out, fmt=args.format)
    print(f"synthesized {MEGACONST_5K.name}: {count} element sets "
          f"({args.format}) to {args.out}")
    return 0


# ----------------------------------------------------------------------
def _load_scenario_document(path: str) -> dict:
    import json

    from .scenarios import ScenarioError
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ScenarioError("", f"{path}: {error}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ScenarioError("", f"{path}: not valid JSON ({error})")


def cmd_scenario_run(args: argparse.Namespace) -> int:
    from .scenarios import (ScenarioError, parse_scenario,
                            render_kpi_table, run_scenario,
                            smoke_document)
    _install_faults(args)
    try:
        document = _load_scenario_document(args.spec)
        parse_scenario(document)  # validate the committed spec as-is
        if args.smoke:
            document = smoke_document(document)
        spec = parse_scenario(document)
    except ScenarioError as error:
        return _cli_error(f"run scenario {args.spec!r}", error)
    run = run_scenario(spec, workers=args.workers, out_dir=args.out,
                       spill_dir=args.spill,
                       rows_per_shard=args.rows_per_shard,
                       resume=args.resume)
    print(render_kpi_table(run, spec.kpis))
    if args.out:
        print(f"wrote manifest.json + kpis.npz "
              f"({run.manifest['kpi_rows']} KPI rows) to {args.out}")
    if args.timing and run.telemetry is not None:
        print()
        print(run.telemetry.render())
    return 0


def cmd_scenario_grid(args: argparse.Namespace) -> int:
    from .scenarios import (ScenarioError, compile_cells, load_scenario,
                            render_grid)
    try:
        spec = load_scenario(args.spec)
        cells = compile_cells(spec)
    except ScenarioError as error:
        return _cli_error(f"expand scenario {args.spec!r}", error)
    print(render_grid(spec, cells))
    return 0


def cmd_scenario_diff(args: argparse.Namespace) -> int:
    from .scenarios import ScenarioError, diff_runs, render_diff_report
    try:
        diff, manifest_a, manifest_b = diff_runs(
            args.run_a, args.run_b, rtol=args.rtol, atol=args.atol)
    except (OSError, ValueError, ScenarioError) as error:
        return _cli_error(
            f"diff {args.run_a!r} vs {args.run_b!r}", error)
    print(render_diff_report(diff, manifest_a, manifest_b))
    return 0 if diff.identical else 1


def cmd_scenario_validate(args: argparse.Namespace) -> int:
    from .scenarios import (ScenarioError, compile_cells, load_scenario)
    failures = 0
    for path in args.specs:
        try:
            spec = load_scenario(path)
            cells = compile_cells(spec)
        except ScenarioError as error:
            print(f"[FAIL] {path}: {error}")
            failures += 1
            continue
        print(f"[ OK ] {path}: {spec.name} [{spec.kind}] — "
              f"{len(cells)} cell(s), seed {spec.seed}")
    return 1 if failures else 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satiot",
        description="Satellite IoT measurement-study reproduction")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=42)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tle", help="print a constellation's element sets")
    p.add_argument("constellation", choices=sorted(CONSTELLATION_SPECS))
    p.add_argument("--format", choices=("3le", "2le"), default="3le",
                   help="catalog serialization (3le = named triples, "
                        "the default; 2le = bare line pairs)")
    p.add_argument("--out", default=None,
                   help="write to a catalog file instead of stdout "
                        "(gzip'd iff *.gz); re-ingestable via "
                        "'satiot catalog insert'")
    p.set_defaults(func=cmd_tle)

    p = sub.add_parser("passes", help="predict contact windows")
    p.add_argument("constellation", choices=sorted(CONSTELLATION_SPECS))
    _add_location_args(p)
    p.add_argument("--days", type=float, default=1.0)
    p.add_argument("--min-elevation", type=float, default=0.0)
    p.set_defaults(func=cmd_passes)

    p = sub.add_parser("presence",
                       help="daily presence per constellation (Fig. 3a)")
    _add_location_args(p)
    p.add_argument("--days", type=float, default=1.0)
    p.add_argument("--min-elevation", type=float, default=0.0)
    p.set_defaults(func=cmd_presence)

    p = sub.add_parser("passive", help="run a passive campaign")
    p.add_argument("--sites", default="HK",
                   help="comma-separated site codes")
    p.add_argument("--days", type=float, default=1.0)
    p.add_argument("--out", default=None,
                   help="text trace output path; the suffix picks the "
                        "format (.jsonl/.json/.ndjson: JSON lines, "
                        "otherwise CSV)")
    _add_spill_args(p)
    _add_runtime_args(p)
    p.set_defaults(func=cmd_passive)

    p = sub.add_parser("dataset",
                       help="archive / inspect trace datasets")
    dataset_sub = p.add_subparsers(dest="dataset_command", required=True)

    p = dataset_sub.add_parser(
        "export", help="run a passive campaign and archive it "
                       "(SINet layout: per-site files + manifest)")
    p.add_argument("root", help="archive directory")
    p.add_argument("--sites", default="HK",
                   help="comma-separated site codes")
    p.add_argument("--days", type=float, default=1.0)
    p.add_argument("--name", default="sinet-sim")
    p.add_argument("--trace-format", choices=TRACE_FORMATS, default="csv",
                   help="site trace file format (default: csv)")
    _add_spill_args(p)
    _add_runtime_args(p)
    p.set_defaults(func=cmd_dataset_export)

    p = dataset_sub.add_parser(
        "info", help="summarise an archive from its manifest alone "
                     "(O(1); works on SINet layouts and sharded "
                     "satiot-traces-v2 spill archives)")
    p.add_argument("root", help="archive directory")
    p.add_argument("--verify", action="store_true",
                   help="also read every trace file: checksum each "
                        "v2 shard / row-count-check each site file")
    p.set_defaults(func=cmd_dataset_info)

    p = sub.add_parser("active", help="run the active Tianqi campaign")
    p.add_argument("--days", type=float, default=2.0)
    p.add_argument("--retx", type=int, default=5)
    p.add_argument("--payload", type=int, default=20)
    p.set_defaults(func=cmd_active)

    p = sub.add_parser("report",
                       help="run both campaigns, print the findings")
    p.add_argument("--passive-days", type=float, default=1.0)
    p.add_argument("--active-days", type=float, default=2.0)
    _add_runtime_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("validate",
                       help="run cross-implementation self-checks")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "serve", help="run the micro-batched pass/link-budget query "
                      "service (HTTP/JSON)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8340,
                   help="TCP port (0 = ephemeral)")
    p.add_argument("--constellations", default="tianqi",
                   help="comma-separated constellation names to load "
                        "('' with --catalog to serve the catalog only)")
    p.add_argument("--catalog", default=None, metavar="PATH",
                   help="also serve a catalog selection (sqlite archive "
                        "or TLE/3LE file) as one constellation")
    p.add_argument("--select", action="append", default=None,
                   metavar="SELECTOR",
                   help="catalog selector (repeatable; default: whole "
                        "catalog)")
    p.add_argument("--catalog-name", default="catalog",
                   help="name the catalog constellation is served under")
    p.add_argument("--batch-window-ms", type=float, default=2.0,
                   help="micro-batch coalescing window (ms)")
    p.add_argument("--max-batch", type=int, default=256,
                   help="flush a batch at this many pending requests "
                        "(1 = unbatched baseline)")
    p.add_argument("--max-pending", type=int, default=1024,
                   help="request-queue bound; beyond it clients get "
                        "429 + Retry-After")
    p.add_argument("--cache-ttl", type=float, default=60.0,
                   help="result-cache TTL (s)")
    p.add_argument("--step", type=float, default=30.0,
                   help="coarse pass-search step (s)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes answering on one port "
                        "(default: $SATIOT_SERVE_WORKERS or 1; >1 "
                        "starts the supervised SO_REUSEPORT fleet)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="ephemeris disk tier, for any worker count "
                        "(grid segments mmap'd read-only by every "
                        "worker; default: in memory with one worker, "
                        "a private temp directory with more)")
    p.add_argument("--realtime", action="store_true",
                   help="digital-twin mode: arm the sim clock so "
                        "queries may say start=now / start=next")
    p.add_argument("--rate", type=float, default=1.0,
                   help="simulation seconds per real second "
                        "(with --realtime; default 1.0)")
    p.add_argument("--providers", default=None,
                   help="comma-separated provider names /v1/compare "
                        "may select (default: all registered)")
    _add_faults_arg(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "catalog", help="element-set archive: ingest, query, history, "
                        "mega-constellation synthesis")
    catalog_sub = p.add_subparsers(dest="catalog_command", required=True)

    p = catalog_sub.add_parser(
        "insert", help="ingest a TLE/3LE catalog file (strict: "
                       "checksums + structure validated)")
    p.add_argument("db", help="sqlite archive (created on first use)")
    p.add_argument("file", help="catalog file, gzip'd or plain")
    p.add_argument("--group", default=None,
                   help="tag every inserted element set with this group")
    p.add_argument("--group-from-name", action="store_true",
                   help="derive each group from the satellite name "
                        "(strip the trailing -<digits> member suffix)")
    p.add_argument("--no-validate-checksum", action="store_true",
                   help="skip mod-10 line checksum verification")
    p.set_defaults(func=cmd_catalog_insert)

    p = catalog_sub.add_parser(
        "get", help="latest element set per selected object")
    p.add_argument("db", help="sqlite archive or TLE/3LE catalog file")
    p.add_argument("selectors", nargs="*", metavar="SELECTOR",
                   help="norad id, name, or norad:/name:/group: prefix "
                        "(none = whole catalog)")
    p.add_argument("--as-of", type=float, default=None, metavar="JD",
                   help="newest element set at or before this Julian "
                        "date, per object")
    p.add_argument("--format", choices=("table", "3le", "2le"),
                   default="table")
    p.set_defaults(func=cmd_catalog_get)

    p = catalog_sub.add_parser(
        "history", help="every archived element set of the selected "
                        "objects, epoch-ordered")
    p.add_argument("db", help="sqlite archive or TLE/3LE catalog file")
    p.add_argument("selectors", nargs="+", metavar="SELECTOR")
    p.add_argument("--last", type=int, default=None,
                   help="keep only each object's newest N element sets")
    p.set_defaults(func=cmd_catalog_history)

    p = catalog_sub.add_parser(
        "find", help="substring search over satellite names")
    p.add_argument("db", help="sqlite archive or TLE/3LE catalog file")
    p.add_argument("text")
    p.set_defaults(func=cmd_catalog_find)

    p = catalog_sub.add_parser(
        "stats", help="object/element-set/group counts and epoch span")
    p.add_argument("db", help="sqlite archive or TLE/3LE catalog file")
    p.set_defaults(func=cmd_catalog_stats)

    p = catalog_sub.add_parser(
        "synth", help="synthesize the 5000-satellite multi-shell mega-"
                      "constellation (seeded; --seed 2025 reproduces "
                      "the committed fixture byte-for-byte)")
    p.add_argument("out", help="output: catalog file (gzip'd iff *.gz) "
                               "or sqlite archive (*.db / *.sqlite)")
    p.add_argument("--format", choices=("3le", "2le"), default="3le")
    p.set_defaults(func=cmd_catalog_synth)

    p = sub.add_parser(
        "scenario", help="declarative campaign specs: validate, expand, "
                         "run, diff (see docs/scenarios.md)")
    scenario_sub = p.add_subparsers(dest="scenario_command",
                                    required=True)

    p = scenario_sub.add_parser(
        "run", help="run a scenario matrix and extract its KPI store")
    p.add_argument("spec", help="scenario JSON file")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write manifest.json + kpis.npz run directory")
    p.add_argument("--smoke", action="store_true",
                   help="shrink durations and truncate sweep axes to "
                        "their first two values (CI smoke mode)")
    _add_spill_args(p, resume=True)
    _add_runtime_args(p)
    p.set_defaults(func=cmd_scenario_run)

    p = scenario_sub.add_parser(
        "grid", help="print the expanded sweep matrix without running")
    p.add_argument("spec", help="scenario JSON file")
    p.set_defaults(func=cmd_scenario_grid)

    p = scenario_sub.add_parser(
        "diff", help="compare two run directories KPI-by-KPI "
                     "(exit 1 when they differ)")
    p.add_argument("run_a", help="baseline run directory")
    p.add_argument("run_b", help="candidate run directory")
    p.add_argument("--rtol", type=float, default=0.0,
                   help="relative tolerance (default 0 = bit-equal)")
    p.add_argument("--atol", type=float, default=0.0,
                   help="absolute tolerance (default 0 = bit-equal)")
    p.set_defaults(func=cmd_scenario_diff)

    p = scenario_sub.add_parser(
        "validate", help="strict-validate scenario files "
                         "(exit 1 on the first invalid spec)")
    p.add_argument("specs", nargs="+", metavar="SPEC",
                   help="scenario JSON file(s)")
    p.set_defaults(func=cmd_scenario_validate)

    p = sub.add_parser("coverage", help="global coverage grid")
    p.add_argument("constellation", choices=sorted(CONSTELLATION_SPECS))
    p.add_argument("--hours", type=float, default=24.0)
    p.add_argument("--grid", type=float, default=10.0)
    p.add_argument("--step", type=float, default=60.0)
    p.add_argument("--map", action="store_true",
                   help="print an ASCII access-hours map")
    p.set_defaults(func=cmd_coverage)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `satiot catalog get … | head`):
        # stop quietly like other Unix tools instead of dumping a
        # traceback.  Detach stdout so interpreter shutdown does not
        # trip over the dead descriptor while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the conventional exit status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
