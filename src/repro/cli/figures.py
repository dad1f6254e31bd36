"""The figures family: ``table2``, ``fig4``–``fig8``, ``sec43``, and
the general ``sweep`` runner."""

from __future__ import annotations

import sys

from repro.workloads import RW_BENCHMARKS, TABLE2_RATIOS

from .common import emit_series, engine_from, open_ledger


def _cmd_table2(args) -> int:
    from repro.experiments.report import render_table
    from repro.functional import measure_path_length
    from repro.workloads import build_benchmark

    rows = []
    for name in RW_BENCHMARKS:
        r = measure_path_length(lambda: build_benchmark(name))
        rows.append((name, TABLE2_RATIOS[name], r.ratio))
    print(render_table(["benchmark", "paper", "measured"], rows,
                       title="Table 2: windowed/flat path-length ratio"))
    return 0


def _rw_figure(fn, title, args) -> int:
    benches = args.bench or list(RW_BENCHMARKS)
    series = fn(benches=tuple(benches), scale=args.scale,
                engine=engine_from(args))
    return emit_series(series, title, args)


def _cmd_fig4(args) -> int:
    from repro.experiments.rw import fig4_execution_time
    return _rw_figure(fig4_execution_time,
                      "Figure 4: normalized execution time", args)


def _cmd_fig5(args) -> int:
    from repro.experiments.rw import fig5_cache_accesses
    return _rw_figure(fig5_cache_accesses,
                      "Figure 5: normalized data-cache accesses", args)


def _cmd_fig6(args) -> int:
    from repro.experiments.rw import fig6_single_port
    return _rw_figure(fig6_single_port,
                      "Figure 6: single-port execution time", args)


def _cmd_fig7(args) -> int:
    from repro.experiments.smt import fig7_smt
    return emit_series(fig7_smt(scale=args.scale,
                                engine=engine_from(args)),
                       "Figure 7: SMT weighted speedup", args)


def _cmd_fig8(args) -> int:
    from repro.experiments.smt import fig8_smt_rw
    return emit_series(fig8_smt_rw(scale=args.scale,
                                   engine=engine_from(args)),
                       "Figure 8: SMT + register windows", args)


def _cmd_sec43(args) -> int:
    from repro.experiments.report import render_table
    from repro.experiments.smt import sec43_cache_traffic
    apw = sec43_cache_traffic(scale=args.scale,
                              engine=engine_from(args))
    print(render_table(["machine", "DL1 accesses / flat-equiv instr"],
                       sorted(apw.items()),
                       title="Section 4.3: 4-thread cache traffic"))
    return 0


def sweep_spec(args):
    """The plan a ``sweep``/``submit`` invocation was asked to run."""
    from repro.experiments.rw import (
        REG_SIZES, RW_MODELS, fig4_plan, fig5_plan, fig6_plan, rw_plan,
    )
    from repro.experiments.smt import vectors_plan

    benches = tuple(args.bench or RW_BENCHMARKS)
    sizes = tuple(args.sizes or REG_SIZES)
    if args.plan == "rw":
        return rw_plan(models=tuple(args.models or RW_MODELS),
                       sizes=sizes, benches=benches,
                       dl1_ports=args.ports, scale=args.scale)
    if args.plan == "vectors":
        return vectors_plan(scale=args.scale)
    fig = {"fig4": fig4_plan, "fig5": fig5_plan, "fig6": fig6_plan}
    return fig[args.plan](benches=benches, sizes=sizes,
                          scale=args.scale)


def sampled_points(points, args, prog: str):
    """Rewrite ``points``' run points for ``--sample``.

    The ``--sample*`` values are validated once, before any point runs
    or is submitted.  Returns ``None`` after printing ``<prog>:
    <error>`` for an invalid value or a multi-thread point.
    """
    import dataclasses

    from repro.experiments.runner import sampling_config
    from repro.sampling import SamplingError

    multi = [p for p in points
             if p.kind == "run" and len(p.benches) != 1]
    if multi:
        print(f"{prog}: --sample is single-threaded, but "
              f"{multi[0].label} has {len(multi[0].benches)} threads",
              file=sys.stderr)
        return None
    knobs = dict(
        sample_interval=args.sample_interval,
        sample_count=args.sample_count, sample_mode=args.sample_mode,
        sample_rse=args.sample_rse,
        sample_rse_metrics=(tuple(args.sample_rse_metrics.split(","))
                            if args.sample_rse_metrics else ()),
        sample_max=args.sample_max,
        sample_mem_weight=args.sample_mem_weight)
    try:
        sampling_config(**knobs)
    except SamplingError as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return None
    return [dataclasses.replace(p, sample=True, **knobs)
            if p.kind == "run" else p
            for p in points]


def _cmd_sweep(args) -> int:
    import os
    import time

    from repro.experiments.report import (
        render_outcome_summary, render_progress, render_series,
    )
    from repro.obs import MetricsRegistry

    if args.store:
        # The repository layer reads REPRO_STORE from the environment
        # (workers inherit it through repro_env), so the flag is just
        # a spelling of the variable.
        os.environ["REPRO_STORE"] = args.store
    spec = sweep_spec(args)
    points = spec.points()
    if args.sample:
        points = sampled_points(points, args, "repro sweep")
        if points is None:
            return 2
    engine = engine_from(args)
    metrics = MetricsRegistry()
    live = sys.stderr.isatty()

    ledger = open_ledger(args.ledger, "sweep") if args.ledger else None

    def on_progress(p) -> None:
        line = render_progress(p)
        if live:
            print(f"\r{line}\x1b[K", end="", file=sys.stderr,
                  flush=True)
        else:
            print(line, file=sys.stderr, flush=True)

    t0 = time.monotonic()
    try:
        outcomes = engine.run(
            points, resume=args.resume,
            progress=None if args.quiet else on_progress,
            metrics=metrics, ledger=ledger)
    finally:
        if ledger is not None:
            ledger.close()
    if live and not args.quiet:
        print(file=sys.stderr)
    if ledger is not None:
        print(f"ledger: run {ledger.run_id} appended to {ledger.path} "
              f"(try `repro report {ledger.path}`)", file=sys.stderr)
    print(render_outcome_summary(outcomes, time.monotonic() - t0))

    failed = [oc for oc in outcomes.values() if not oc.ok]
    # Reductions index outcomes by reconstructing the plan's own
    # (full-detail) points, which sampled points deliberately do not
    # equal — skip rather than KeyError.
    if spec.reduce is not None and not failed and not args.sample:
        print()
        print(render_series(f"{spec.name} series", "phys regs",
                            spec.reduce(outcomes)))
    if args.csv:
        from repro.experiments.export import write_outcomes_csv
        print(f"(wrote {write_outcomes_csv(args.csv, outcomes)})")
    if args.metrics:
        dist = metrics.dists.get("sweep.point_seconds")
        for name in sorted(metrics.counters):
            print(f"{name} = {metrics.counters[name]:g}")
        if dist is not None and dist.count:
            print(f"sweep.point_seconds mean={dist.mean:.3f} "
                  f"p90={dist.percentile(90):.3f} max={dist.max:.3f}")
    return 1 if failed else 0


def add_plan_arguments(p, with_engine: bool = True) -> None:
    """The plan-selection surface shared by ``sweep`` and ``submit``."""
    p.add_argument("plan",
                   choices=["rw", "fig4", "fig5", "fig6", "vectors"],
                   help="plan to run: the raw register-window grid, "
                        "a Section 4.1 figure, or the SMT "
                        "characterisation runs")
    p.add_argument("--models", nargs="+", default=None, metavar="NAME",
                   help="machine models (rw plan; default: all four)")
    p.add_argument("--sizes", nargs="+", type=int, default=None,
                   metavar="N", help="physical register file sizes")
    p.add_argument("--bench", nargs="+", default=None, metavar="NAME",
                   help="benchmarks (default: the Table 2 suite)")
    p.add_argument("--ports", type=int, default=2,
                   help="DL1 ports (rw plan)")
    p.add_argument("--scale", type=float, default=None,
                   help="workload scale (default: REPRO_SCALE or 1.0)")
    add_sampling_arguments(p)


def add_sampling_arguments(p) -> None:
    """The ``--sample*`` surface shared by ``run``, ``sweep`` and
    ``submit`` (validated by :func:`sampled_points`)."""
    p.add_argument("--sample", action="store_true",
                   help="checkpointed sampled simulation of every "
                        "single-benchmark point: detailed-simulate "
                        "representative intervals and extrapolate")
    p.add_argument("--sample-interval", type=int, default=2000,
                   metavar="N", help="instructions per interval")
    p.add_argument("--sample-count", type=int, default=8,
                   metavar="K", help="intervals simulated in detail")
    p.add_argument("--sample-mode",
                   choices=["systematic", "bbv", "bbv+mem"],
                   default="systematic",
                   help="representative selection: evenly spaced, "
                        "SimPoint-style BBV clustering, or BBV plus "
                        "memory-signature features")
    p.add_argument("--sample-rse", type=float, default=None,
                   metavar="TARGET",
                   help="adaptive convergence: add intervals until "
                        "every watched metric's relative standard "
                        "error is at or below TARGET (e.g. 0.005); "
                        "--sample-count becomes the starting budget")
    p.add_argument("--sample-rse-metrics", default=None,
                   metavar="M1,M2",
                   help="comma-separated metrics watched by "
                        "--sample-rse (default: ipc,spills,fills)")
    p.add_argument("--sample-max", type=int, default=64,
                   metavar="K",
                   help="hard cap on detailed intervals under "
                        "--sample-rse")
    p.add_argument("--sample-mem-weight", type=float, default=0.5,
                   metavar="W",
                   help="weight of the memory-signature feature "
                        "block in bbv+mem clustering (0..1)")


def register(sub) -> None:
    """Attach the figure subcommands and ``sweep`` to the parser."""
    for name, fn, with_bench in [
            ("table2", _cmd_table2, False),
            ("fig4", _cmd_fig4, True), ("fig5", _cmd_fig5, True),
            ("fig6", _cmd_fig6, True), ("fig7", _cmd_fig7, False),
            ("fig8", _cmd_fig8, False), ("sec43", _cmd_sec43, False)]:
        p = sub.add_parser(name, help=f"regenerate {name}")
        if with_bench:
            p.add_argument("--bench", nargs="+", default=None,
                           metavar="NAME")
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--csv", metavar="PATH", default=None,
                       help="also write the series as CSV")
        if name != "table2":
            p.add_argument("--workers", type=int, default=0,
                           metavar="N",
                           help="run the sweep on N parallel workers")
            p.add_argument("--timeout", type=float, default=None,
                           metavar="SECS",
                           help="per-point timeout (parallel only)")
        p.set_defaults(fn=fn)

    sw = sub.add_parser(
        "sweep", help="run a sweep plan through the experiment engine")
    add_plan_arguments(sw)
    sw.add_argument("--workers", type=int, default=0, metavar="N",
                    help="parallel worker processes (default: serial)")
    sw.add_argument("--timeout", type=float, default=None,
                    metavar="SECS", help="per-point timeout")
    sw.add_argument("--ledger", metavar="PATH", default=None,
                    help="append the run ledger (spans, rusage, cache "
                         "hits) here; it is also what --resume reads")
    sw.add_argument("--resume", action="store_true",
                    help="skip points already completed in --ledger "
                         "(requires --ledger)")
    sw.add_argument("--no-cache", action="store_true",
                    help="ignore (and don't consult) the result cache")
    sw.add_argument("--store", metavar="PATH", default=None,
                    help="sqlite result store to read/write (sets "
                         "REPRO_STORE; default: results.sqlite in the "
                         "cache directory)")
    sw.add_argument("--csv", metavar="PATH", default=None,
                    help="write per-point outcomes as CSV")
    sw.add_argument("--metrics", action="store_true",
                    help="print engine metrics (repro.obs registry)")
    sw.add_argument("--quiet", action="store_true",
                    help="suppress the live progress line")
    sw.set_defaults(fn=_cmd_sweep)
