"""The run family: ``list``, ``run``, ``profile``, ``disasm``."""

from __future__ import annotations

import sys

from repro.config import MachineConfig
from repro.models import MODELS, build_machine, model_abi
from repro.workloads import (
    ALL_BENCHMARKS, DIAG_BENCHMARKS, RW_BENCHMARKS, TABLE2_RATIOS,
)


def _cmd_list(args) -> int:
    print("machine models:")
    for name in sorted(MODELS):
        print(f"  {name:16s} ({model_abi(name)} ABI)")
    print("\nregister-window suite (Table 2):")
    for name in RW_BENCHMARKS:
        print(f"  {name:16s} paper ratio {TABLE2_RATIOS[name]:.2f}")
    print("\nadditional SMT-pool benchmarks:")
    for name in ALL_BENCHMARKS:
        if name not in RW_BENCHMARKS:
            print(f"  {name}")
    print("\ndiagnostic workloads (run/trace only, not in the "
          "experiment pool):")
    for name in DIAG_BENCHMARKS:
        print(f"  {name}")
    return 0


def _cmd_run(args) -> int:
    from repro.obs import JsonlSink, MetricsRegistry, build_tracer
    from repro.workloads.generator import benchmark_program

    benches = args.bench_pos or args.bench
    abi = model_abi(args.model)
    programs = [benchmark_program(b, abi, thread=i, scale=args.scale,
                                  seed=args.seed)
                for i, b in enumerate(benches)]
    cfg = MachineConfig.baseline(phys_regs=args.regs,
                                 dl1_ports=args.ports)
    smeta = None
    if args.sample and len(benches) != 1:
        print("repro run: --sample is single-threaded; give one "
              "benchmark", file=sys.stderr)
        return 2
    if args.sample and (args.trace or args.trace_out):
        print("repro run: --sample simulates disjoint windows; "
              "tracing is only meaningful on full runs",
              file=sys.stderr)
        return 2
    if args.sample:
        from repro.sampling import (DEFAULT_RSE_METRICS,
                                    SamplingConfig, SamplingError)
        rse_metrics = (tuple(args.sample_rse_metrics.split(","))
                       if args.sample_rse_metrics
                       else DEFAULT_RSE_METRICS)
        try:
            scfg = SamplingConfig(interval_len=args.sample_interval,
                                  n_detailed=args.sample_count,
                                  mode=args.sample_mode,
                                  warmup_insns=args.sample_warmup,
                                  mem_weight=args.sample_mem_weight,
                                  rse_target=args.sample_rse,
                                  rse_metrics=rse_metrics,
                                  max_detailed=args.sample_max)
        except SamplingError as exc:
            print(f"repro run: {exc}", file=sys.stderr)
            return 2

    ledger = spans = root = prev = ru0 = None
    run_key = f"run/{args.model}/{'+'.join(benches)}@{args.regs}"
    if args.ledger:
        from repro.experiments.engine import _rusage_snapshot
        from repro.experiments.runner import source_hash
        from repro.hooks import set_current_spans
        from repro.obs import RunLedger, SpanTracer
        ledger = RunLedger(args.ledger,
                           command=" ".join(sys.argv[1:]) or "run",
                           config_hash=source_hash())
        spans = SpanTracer()
        ledger.run_start(total=1, workers=1, trace_id=spans.trace_id)
        root = spans.begin("run", model=args.model,
                           label=run_key)
        prev = set_current_spans(spans)
        ru0 = _rusage_snapshot()

    try:
        if args.sample:
            from repro.sampling import run_sampled
            metrics = (MetricsRegistry(args.metrics_interval)
                       if args.metrics_interval is not None else None)
            stats, smeta = run_sampled(args.model,
                                       cfg.with_(n_threads=1),
                                       programs[0], scfg,
                                       metrics=metrics)
        else:
            from repro.hooks import current_spans
            tracer = build_tracer(trace=args.trace, out=args.trace_out)
            metrics = (MetricsRegistry(args.metrics_interval)
                       if args.metrics_interval is not None else None)
            machine = build_machine(args.model, cfg, programs,
                                    tracer=tracer, metrics=metrics)
            sp = current_spans()
            with sp.span("simulate", model=args.model):
                stats = machine.run(stop_at_first_halt=len(benches) > 1)
    except BaseException:  # lint: allow-broad-except
        if ledger is not None:
            from repro.experiments.engine import _rusage_delta
            from repro.hooks import set_current_spans
            spans.close(status="terminated")
            ledger.point(key=run_key, status="failed",
                         error="exception (see stderr)",
                         rusage=_rusage_delta(ru0),
                         spans=spans.drain())
            ledger.run_end(status="interrupted",
                           counts={"failed": 1})
            ledger.close()
            set_current_spans(prev)
        raise
    if ledger is not None:
        from repro.experiments.engine import _rusage_delta
        from repro.hooks import set_current_spans
        spans.end(root, status="ok")
        ledger.point(
            key=run_key, status="done",
            payload={"cycles": stats.cycles,
                     "committed": [t.committed for t in stats.threads]},
            elapsed=(root.t1 or 0.0) - root.t0,
            cache="miss", rusage=_rusage_delta(ru0),
            spans=spans.drain())
        ledger.run_end(status="ok", counts={"done": 1},
                       elapsed=(root.t1 or 0.0) - root.t0)
        ledger.close()
        set_current_spans(prev)
        print(f"ledger: appended run {ledger.run_id} to {ledger.path}")
    print(f"model={args.model} regs={args.regs} ports={args.ports} "
          f"benches={','.join(benches)}"
          + (f" seed={args.seed}" if args.seed is not None else ""))
    print(stats.summary())
    if smeta is not None:
        errs = " ".join(f"{k}±{v:.1%}" for k, v in
                        sorted(smeta.errors.items()))
        print(f"sampling: mode={smeta.mode} "
              f"intervals={smeta.n_detailed}/{smeta.n_intervals}"
              f"x{smeta.interval_len} "
              f"detailed_cycles={smeta.detailed_cycles} "
              f"(est {smeta.est_cycles}, {smeta.speedup:.1f}x fewer) "
              f"{errs}")
        if smeta.rse_target is not None:
            state = ("converged" if smeta.converged
                     else "hit cap before converging")
            print(f"sampling: rse target {smeta.rse_target:.2%} on "
                  f"{','.join(smeta.rse_metrics)}: {state} after "
                  f"{len(smeta.rounds)} round(s), "
                  f"+{smeta.intervals_added} interval(s)")
    if not args.sample:
        tracer.close()
        for sink in tracer.sinks:
            if isinstance(sink, JsonlSink):
                print(f"trace: wrote {sink.written} events to "
                      f"{sink.path}")
    if args.json:
        from repro.experiments.export import write_stats_json
        extra = ({"sampling": smeta.to_dict()}
                 if smeta is not None else {})
        out = write_stats_json(args.json, stats, model=args.model,
                               benches=list(benches), regs=args.regs,
                               ports=args.ports, scale=args.scale,
                               seed=args.seed, **extra)
        print(f"stats: wrote {out}")
    return 0


def _cmd_profile(args) -> int:
    """Where does simulation wall-clock time go?

    Two passes over the same configuration: a clean timing pass with
    per-stage wall-clock attribution (repro.obs.profile), then —
    unless ``--top 0`` — a second pass under cProfile for per-function
    hot spots.  Two passes because cProfile's tracing overhead would
    distort the stage timings and the cycles/sec headline.
    """
    import cProfile
    import pstats

    from repro.obs import MetricsRegistry, profile_machine
    from repro.workloads.generator import benchmark_program

    benches = args.bench_pos or args.bench
    abi = model_abi(args.model)

    def machine():
        programs = [benchmark_program(b, abi, thread=i,
                                      scale=args.scale, seed=args.seed)
                    for i, b in enumerate(benches)]
        cfg = MachineConfig.baseline(phys_regs=args.regs,
                                     dl1_ports=args.ports)
        return build_machine(args.model, cfg, programs)

    registry = MetricsRegistry()
    stats, prof = profile_machine(machine(),
                                  stop_at_first_halt=len(benches) > 1,
                                  registry=registry)
    cps = stats.cycles / prof.total_seconds if prof.total_seconds else 0
    attributed = prof.cycle_attribution(stats.cycles)

    top = []
    if args.top > 0:
        profiler = cProfile.Profile()
        m2 = machine()
        profiler.enable()
        m2.run(stop_at_first_halt=len(benches) > 1)
        profiler.disable()
        st = pstats.Stats(profiler)
        st.sort_stats("cumulative")
        for func, (cc, nc, tt, ct, _callers) in st.stats.items():
            filename, lineno, name = func
            top.append({"function": name, "file": filename,
                        "line": lineno, "calls": nc,
                        "tottime": tt, "cumtime": ct})
        top.sort(key=lambda r: r["tottime"], reverse=True)
        top = top[:args.top]

    print(f"model={args.model} benches={','.join(benches)} "
          f"regs={args.regs} ports={args.ports} scale={args.scale}")
    print(f"cycles={stats.cycles}  wall={prof.total_seconds:.3f}s  "
          f"{cps:,.0f} cycles/sec")
    print()
    print(f"{'stage':<16}{'seconds':>10}{'share':>8}{'cycles est':>12}")
    stage_total = prof.stage_seconds_total
    for label, entry in prof.to_dict(stats.cycles)["stages"].items():
        secs = entry["seconds"]
        share = secs / stage_total if stage_total else 0
        print(f"{label:<16}{secs:>10.3f}{share:>7.1%}"
              f"{attributed[label]:>12.1f}")
    if top:
        print()
        print(f"{'tottime':>9}{'cumtime':>9}{'calls':>10}  function")
        for r in top:
            print(f"{r['tottime']:>9.3f}{r['cumtime']:>9.3f}"
                  f"{r['calls']:>10}  {r['function']} "
                  f"({r['file']}:{r['line']})")

    if args.json:
        import json as _json
        from repro.experiments.export import (
            PROFILE_SCHEMA, SCHEMA_VERSION)
        payload = {
            "schema": PROFILE_SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "model": args.model, "benches": list(benches),
            "regs": args.regs, "ports": args.ports,
            "scale": args.scale, "seed": args.seed,
            "cycles": stats.cycles, "committed": stats.committed,
            "cycles_per_sec": cps,
            "profile": prof.to_dict(stats.cycles),
            "metrics": registry.to_dict(),
            "top_functions": top,
        }
        from pathlib import Path
        Path(args.json).write_text(
            _json.dumps(payload, indent=2, sort_keys=True))
        print(f"\nprofile: wrote {args.json}")
    return 0


def _cmd_disasm(args) -> int:
    from repro.workloads.generator import benchmark_program
    prog = benchmark_program(args.bench[0], args.abi)
    text = prog.disassemble()
    lines = text.splitlines()
    print("\n".join(lines[:args.limit]))
    if len(lines) > args.limit:
        print(f"... ({len(lines) - args.limit} more lines)")
    return 0


def register(sub) -> None:
    """Attach the run-family subcommands to the parser."""
    sub.add_parser("list", help="list models and benchmarks") \
        .set_defaults(fn=_cmd_list)

    run = sub.add_parser("run", help="simulate one configuration")
    run.add_argument("bench_pos", nargs="*", metavar="BENCH",
                     help="benchmarks, one per hardware thread "
                          "(same as --bench)")
    run.add_argument("--model", choices=sorted(MODELS), default="vca-rw")
    run.add_argument("--bench", nargs="+", default=["gzip_graphic"],
                     metavar="NAME",
                     help="one benchmark per hardware thread")
    run.add_argument("--regs", type=int, default=256)
    run.add_argument("--ports", type=int, default=2)
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=None,
                     help="perturb workload generation (default: the "
                          "fixed per-benchmark streams)")
    run.add_argument("--trace", action="store_true",
                     help="record pipeline events (ring buffer)")
    run.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write events as JSONL (implies --trace)")
    run.add_argument("--metrics-interval", type=int, default=None,
                     metavar="N",
                     help="enable the metrics registry, snapshotting "
                          "counters every N cycles (0: final only)")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="also write full stats as JSON")
    run.add_argument("--ledger", metavar="PATH", default=None,
                     help="append a run-ledger record (spans, rusage) "
                          "readable by `repro top` / `repro report`")
    run.add_argument("--sample", action="store_true",
                     help="checkpointed sampled simulation: detailed-"
                          "simulate representative intervals and "
                          "extrapolate (single benchmark only)")
    run.add_argument("--sample-interval", type=int, default=2000,
                     metavar="N", help="instructions per interval")
    run.add_argument("--sample-count", type=int, default=8,
                     metavar="K", help="intervals simulated in detail")
    run.add_argument("--sample-mode",
                     choices=["systematic", "bbv", "bbv+mem"],
                     default="systematic",
                     help="representative selection: evenly spaced, "
                          "SimPoint-style BBV clustering, or BBV plus "
                          "memory-signature features")
    run.add_argument("--sample-warmup", type=int, default=500,
                     metavar="N",
                     help="detailed (unmeasured) warmup instructions "
                          "before each interval")
    run.add_argument("--sample-rse", type=float, default=None,
                     metavar="TARGET",
                     help="adaptive convergence: add intervals until "
                          "every watched metric's relative standard "
                          "error is at or below TARGET (e.g. 0.005); "
                          "--sample-count becomes the starting budget")
    run.add_argument("--sample-rse-metrics", default=None,
                     metavar="M1,M2",
                     help="comma-separated metrics watched by "
                          "--sample-rse (default: ipc,spills,fills)")
    run.add_argument("--sample-max", type=int, default=64,
                     metavar="K",
                     help="hard cap on detailed intervals under "
                          "--sample-rse")
    run.add_argument("--sample-mem-weight", type=float, default=0.5,
                     metavar="W",
                     help="weight of the memory-signature feature "
                          "block in bbv+mem clustering (0..1)")
    run.set_defaults(fn=_cmd_run)

    prof = sub.add_parser(
        "profile",
        help="profile a run: per-stage wall-clock attribution "
             "and cProfile hot functions")
    prof.add_argument("bench_pos", nargs="*", metavar="BENCH",
                      help="benchmarks, one per hardware thread "
                           "(same as --bench)")
    prof.add_argument("--model", choices=sorted(MODELS),
                      default="vca-rw")
    prof.add_argument("--bench", nargs="+", default=["gzip_graphic"],
                      metavar="NAME")
    prof.add_argument("--regs", type=int, default=256)
    prof.add_argument("--ports", type=int, default=2)
    prof.add_argument("--scale", type=float, default=1.0)
    prof.add_argument("--seed", type=int, default=None)
    prof.add_argument("--top", type=int, default=10, metavar="N",
                      help="cProfile functions to show "
                           "(0: skip the cProfile pass)")
    prof.add_argument("--json", metavar="PATH", default=None,
                      help="also write the profile record as JSON")
    prof.set_defaults(fn=_cmd_profile)

    dis = sub.add_parser("disasm", help="disassemble a benchmark")
    dis.add_argument("--bench", nargs=1, default=["gzip_graphic"])
    dis.add_argument("--abi", choices=["flat", "windowed"],
                     default="windowed")
    dis.add_argument("--limit", type=int, default=60)
    dis.set_defaults(fn=_cmd_disasm)
