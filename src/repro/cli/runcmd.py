"""The run family: ``list``, ``run``, ``profile``, ``disasm``."""

from __future__ import annotations

import sys

from repro.models import MODELS, build_machine, model_abi
from repro.workloads import (
    ALL_BENCHMARKS, DIAG_BENCHMARKS, RW_BENCHMARKS, TABLE2_RATIOS,
)

from .common import open_ledger
from .figures import add_sampling_arguments, sampled_points


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
    from repro.experiments.plan import Point
    from repro.pipeline.stats import SimStats

    benches = args.bench_pos or args.bench
    traced = args.trace_out is not None
    if args.ledger and traced:
        print("repro run: --ledger records engine runs; --trace-out "
              "needs a live machine", file=sys.stderr)
        return 2
    if args.sample and traced:
        print("repro run: --sample simulates disjoint windows; "
              "tracing is only meaningful on full runs",
              file=sys.stderr)
        return 2
    points = [Point.run(args.model, benches, args.regs, args.ports,
                        args.scale, seed=args.seed)]
    if args.sample:
        points = sampled_points(points, args, "repro run")
        if points is None:
            return 2
    (point,) = points

    tracer = None
    if traced:
        from repro.experiments.runner import run_point
        from repro.obs import build_tracer
        tracer = build_tracer(out=args.trace_out)
        try:
            result = run_point(**point.run_args(), use_cache=False,
                               tracer=tracer)
        finally:
            tracer.close()
    else:
        outcome = _run_engine_point(point, args.ledger)
        if not outcome.ok:
            print(outcome.error, file=sys.stderr, end="")
            return 1
        result = outcome.result()
    if result.unrunnable:
        print(f"repro run: {point.label} is unrunnable (the machine "
              f"cannot operate at this configuration)", file=sys.stderr)
        return 1

    print(f"model={args.model} regs={args.regs} ports={args.ports} "
          f"benches={','.join(benches)}"
          + (f" seed={args.seed}" if args.seed is not None else ""))
    stats = SimStats.from_dict(result.stats)
    print(stats.summary())
    meta = result.sampling
    if meta:
        errs = " ".join(f"{k}±{v:.1%}" for k, v in
                        sorted(meta["errors"].items()))
        print(f"sampling: mode={meta['mode']} "
              f"intervals={meta['n_detailed']}/{meta['n_intervals']}"
              f"x{meta['interval_len']} "
              f"detailed_cycles={meta['detailed_cycles']} "
              f"(est {meta['est_cycles']}, {meta['speedup']:.1f}x "
              f"fewer) {errs}")
        rse = meta.get("rse")
        if rse is not None:
            state = ("converged" if rse["converged"]
                     else "hit cap before converging")
            print(f"sampling: rse target {rse['target']:.2%} on "
                  f"{','.join(rse['metrics'])}: {state} after "
                  f"{len(rse['rounds'])} round(s), "
                  f"+{rse['intervals_added']} interval(s)")
    from repro.obs import JsonlSink
    for sink in tracer.sinks if tracer is not None else ():
        if isinstance(sink, JsonlSink):
            print(f"trace: wrote {sink.written} events to {sink.path}")
    if args.json:
        from repro.experiments.export import write_stats_json
        extra = {"sampling": meta} if meta else {}
        out = write_stats_json(args.json, stats, model=args.model,
                               benches=list(benches), regs=args.regs,
                               ports=args.ports, scale=args.scale,
                               seed=args.seed, **extra)
        print(f"stats: wrote {out}")
    return 0


def _run_engine_point(point, ledger_path):
    """Resolve ``point`` through the serial engine and the result
    store, recording it as a one-point sweep in ``ledger_path``."""
    from repro.experiments.engine import SerialEngine

    if ledger_path is None:
        return SerialEngine().run([point])[point]
    ledger = open_ledger(ledger_path, "run")
    try:
        outcome = SerialEngine().run([point], ledger=ledger)[point]
    finally:
        ledger.close()
    print(f"ledger: appended run {ledger.run_id} to {ledger.path}")
    return outcome


def _cmd_profile(args) -> int:
    """Where does simulation wall-clock time go?

    Two passes over the machine ``run_point`` simulates for this
    configuration (both built from ``point_inputs``): a clean timing
    pass with per-stage wall-clock attribution (repro.obs.profile),
    then — unless ``--top 0`` — a second pass under cProfile for
    per-function hot spots.  Two passes because cProfile's tracing
    overhead would distort the stage timings and the cycles/sec
    headline.
    """
    import cProfile
    import pstats

    from repro.experiments.runner import point_inputs
    from repro.obs import profile_machine

    benches = args.bench_pos or args.bench

    def machine():
        programs, cfg = point_inputs(args.model, benches, args.regs,
                                     args.ports, args.scale, args.seed)
        return build_machine(args.model, cfg, programs)

    stats, prof = profile_machine(machine(),
                                  stop_at_first_halt=len(benches) > 1)
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
    run.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write pipeline events as JSONL")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="also write full stats as JSON")
    run.add_argument("--ledger", metavar="PATH", default=None,
                     help="record the run as a one-point sweep in this "
                          "run ledger (spans, rusage, cache hits), "
                          "readable by `repro top` / `repro report`")
    add_sampling_arguments(run)
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
