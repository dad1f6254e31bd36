"""The observability family: ``trace``, ``top``, ``report``, and
``bench record``/``bench diff``."""

from __future__ import annotations

import sys


def _parse_cycle_range(spec: str):
    """``A:B`` with either end optional → ``(lo, hi)`` (None = open)."""
    lo_s, sep, hi_s = spec.partition(":")
    if not sep:
        raise ValueError(f"expected A:B, got {spec!r}")
    return (int(lo_s) if lo_s else None,
            int(hi_s) if hi_s else None)


def _in_cycle_range(ev: dict, lo, hi) -> bool:
    cycle = ev.get("cycle")
    if cycle is None:
        return lo is None and hi is None
    return ((lo is None or cycle >= lo)
            and (hi is None or cycle <= hi))


def _cause_counts(events) -> dict:
    """``<kind>.<cause>`` totals over the events that carry a
    ``cause`` (every ``spill``, ``fill`` and ``victim``): the per-cause
    rows of ``--counts``, which sum to their kind's total."""
    counts: dict = {}
    for ev in events:
        cause = ev.get("cause")
        if cause is not None:
            key = f"{ev.get('kind', '?')}.{cause}"
            counts[key] = counts.get(key, 0) + 1
    return counts


def _fmt_event(ev: dict) -> str:
    rest = " ".join(f"{k}={ev[k]}" for k in sorted(ev)
                    if k not in ("cycle", "tid", "kind"))
    return (f"{ev.get('cycle', '?'):>8} t{ev.get('tid', '?')} "
            f"{ev.get('kind', '?'):<12} {rest}".rstrip())


def _follow_trace(path, lo, hi, tid, idle_timeout) -> int:
    """Tail a growing JSONL trace, printing one line per event."""
    import json
    import time as _time

    try:
        fh = open(path, "r")
    except OSError as exc:
        print(f"repro trace: cannot read {path}: {exc}",
              file=sys.stderr)
        return 2
    printed = 0
    idle = 0.0
    pending = ""
    with fh:
        while True:
            line = fh.readline()
            if not line:
                if idle_timeout is not None and idle >= idle_timeout:
                    print(f"(follow: idle {idle_timeout:g}s, "
                          f"{printed} events shown)", file=sys.stderr)
                    return 0
                _time.sleep(0.1)
                idle += 0.1
                continue
            idle = 0.0
            # The writer flushes in buffer-sized chunks, so a read
            # can end mid-line; hold it until the rest arrives.
            pending += line
            if not pending.endswith("\n"):
                continue
            line, pending = pending, ""
            try:
                ev = json.loads(line)
            except ValueError:
                continue
            if tid is not None and ev.get("tid") != tid:
                continue
            if not _in_cycle_range(ev, lo, hi):
                continue
            print(_fmt_event(ev), flush=True)
            printed += 1


def _cmd_trace(args) -> int:
    from repro.obs import read_jsonl
    from repro.obs.pipeview import event_counts, render_pipeline_view

    lo = hi = None
    if args.cycle_range:
        try:
            lo, hi = _parse_cycle_range(args.cycle_range)
        except ValueError:
            print(f"repro trace: --cycle-range wants A:B (either end "
                  f"optional), got {args.cycle_range!r}",
                  file=sys.stderr)
            return 2
    if args.follow:
        if args.counts:
            print("repro trace: --follow and --counts are exclusive",
                  file=sys.stderr)
            return 2
        return _follow_trace(args.path, lo, hi, args.tid,
                             args.idle_timeout)
    try:
        events = list(read_jsonl(args.path))
    except OSError as exc:
        print(f"repro trace: cannot read {args.path}: {exc}",
              file=sys.stderr)
        return 2
    if args.cycle_range:
        events = [ev for ev in events if _in_cycle_range(ev, lo, hi)]
    if args.counts:
        counts = {**event_counts(events), **_cause_counts(events)}
        width = max((len(k) for k in counts), default=4)
        for kind in sorted(counts):
            print(f"{kind:<{width}}  {counts[kind]}")
        return 0
    print(render_pipeline_view(events, tid=args.tid, limit=args.limit))
    return 0


def _cmd_top(args) -> int:
    from repro.obs.dashboard import top_loop
    return top_loop(args.path, interval=args.interval,
                    max_ticks=1 if args.once else None,
                    clear=not args.once)


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.obs import read_ledger
    from repro.obs.htmlreport import render_html

    try:
        records = read_ledger(args.path)
    except OSError as exc:
        print(f"repro report: cannot read {args.path}: {exc}",
              file=sys.stderr)
        return 2
    if not records:
        print(f"repro report: {args.path} has no ledger records",
              file=sys.stderr)
        return 2
    out = Path(args.out or Path(args.path).with_suffix(".html"))
    out.write_text(render_html(records, title=args.title))
    print(f"report: wrote {out}")
    return 0


def _cmd_bench_record(args) -> int:
    from repro.experiments.benchdiff import bench_record
    return bench_record(args.result, history_path=args.history)


def _cmd_bench_diff(args) -> int:
    from repro.experiments.benchdiff import bench_diff
    return bench_diff(args.result, history_path=args.history,
                      report_only=args.report_only,
                      json_out=args.json)


def register(sub) -> None:
    """Attach the observability subcommands to the parser."""
    tr = sub.add_parser("trace",
                        help="render a JSONL trace as a pipeline view")
    tr.add_argument("path", help="trace file from `run --trace-out`")
    tr.add_argument("--tid", type=int, default=None,
                    help="show only this hardware thread")
    tr.add_argument("--limit", type=int, default=64,
                    help="max instructions to show (default 64)")
    tr.add_argument("--counts", action="store_true",
                    help="print per-kind event totals instead, plus "
                         "per-cause rows (e.g. spill.set_conflict)")
    tr.add_argument("--follow", action="store_true",
                    help="tail the trace live, printing events as the "
                         "simulator appends them")
    tr.add_argument("--cycle-range", metavar="A:B", default=None,
                    help="only events with A <= cycle <= B (either "
                         "end may be omitted, e.g. 100: or :5000)")
    tr.add_argument("--idle-timeout", type=float, default=None,
                    metavar="SECS",
                    help="with --follow: exit once the file stops "
                         "growing for SECS (default: follow forever)")
    tr.set_defaults(fn=_cmd_trace)

    top = sub.add_parser(
        "top", help="live terminal dashboard over a run ledger")
    top.add_argument("path", help="ledger file from `sweep --ledger`")
    top.add_argument("--interval", type=float, default=1.0,
                     metavar="SECS",
                     help="refresh interval (default 1s)")
    top.add_argument("--once", action="store_true",
                     help="render one snapshot and exit")
    top.set_defaults(fn=_cmd_top)

    rep = sub.add_parser(
        "report", help="render a run ledger as self-contained HTML")
    rep.add_argument("path", help="ledger file from `sweep --ledger`")
    rep.add_argument("--out", metavar="PATH", default=None,
                     help="output file (default: ledger path with "
                          ".html suffix)")
    rep.add_argument("--title", default=None,
                     help="report title (default: the run id)")
    rep.set_defaults(fn=_cmd_report)

    bench = sub.add_parser(
        "bench", help="performance-benchmark utilities")
    bsub = bench.add_subparsers(dest="bench_cmd", required=True)
    br = bsub.add_parser(
        "record", help="append a `python -m bench run --out` result "
                       "to the BENCH_perf.json history")
    bd = bsub.add_parser(
        "diff", help="compare a `python -m bench run --out` result "
                     "with the BENCH_perf.json history")
    for p in (br, bd):
        p.add_argument("result", help="file from `python -m bench run "
                                      "--out`")
        p.add_argument("--history", metavar="PATH", default=None,
                       help="history file (default: BENCH_perf.json at "
                            "the repo root)")
    br.set_defaults(fn=_cmd_bench_record)
    bd.add_argument("--report-only", action="store_true",
                    help="exit 0 on a regression or an empty "
                         "history (CI soft mode); an unusable result "
                         "or history still exits 2")
    bd.add_argument("--json", metavar="PATH", default=None,
                    help="also write the comparison rows as JSON")
    bd.set_defaults(fn=_cmd_bench_diff)
