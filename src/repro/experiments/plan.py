"""Declarative sweep plans: a sweep is data, not a loop.

Every figure in the paper is a sweep over (machine model, physical
register count, cache ports, workload).  Instead of hand-rolled nested
loops, a sweep is described by a :class:`SweepSpec` — named axes over
a base parameter set, plus optional extra points and a reduction — and
expands to hashable, serializable :class:`Point` values.  Because a
plan is inert data, an execution engine (``repro.experiments.engine``)
can dedupe, cache-resolve, parallelise, record and resume it without
knowing what the points compute.

Point kinds:

* ``run`` — one timing-simulation configuration (the unit of every
  figure); executes through :func:`repro.experiments.runner.run_point`
  and decodes to a :class:`~repro.experiments.runner.RunResult`.
* ``path_ratio`` — the functional windowed/flat path-length
  measurement of one benchmark (Table 2); decodes to a float.
* ``probe`` — a diagnostic that reports the executing worker's
  ``REPRO_*`` environment, resolved cache directory, default scale and
  pid.  Never cached or resumed; used to verify that workers run with
  the environment the parent intended.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field, fields
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence,
    Tuple,
)

from . import runner as _runner

#: The point kinds understood by :meth:`Point.execute`.
RUN = "run"
PATH_RATIO = "path_ratio"
PROBE = "probe"


@dataclass(frozen=True)
class Point:
    """One unit of schedulable work, named by its parameters.

    Frozen and hashable: two points with equal parameters are the same
    point, which is what lets engines dedupe work and callers index an
    engine's outcome map by reconstructing the point.
    """

    kind: str = RUN
    model: str = "baseline"
    benches: Tuple[str, ...] = ()
    phys_regs: int = 256
    dl1_ports: int = 2
    scale: float = 1.0
    #: Workload-generation seed (``None``: the fixed per-benchmark
    #: streams); joins the cache key only when set.
    seed: Optional[int] = None
    #: ``path_ratio`` benchmark name, or ``probe`` label.
    bench: str = ""
    #: Checkpointed sampled simulation (``repro.sampling``).  A
    #: ``sample_*`` parameter joins the cache key only where it can
    #: change the result (:func:`~repro.experiments.runner.run_key`).
    sample: bool = False
    sample_interval: int = 2000
    sample_count: int = 8
    sample_mode: str = "systematic"
    #: Adaptive convergence control (``rse_target``): the two fields
    #: after it apply only when ``sample_rse`` is set.
    sample_rse: Optional[float] = None
    sample_rse_metrics: Tuple[str, ...] = ()
    sample_max: int = 64
    sample_mem_weight: float = 0.5

    # -- constructors ------------------------------------------------------
    @classmethod
    def run(cls, model: str, benches: Sequence[str], phys_regs: int,
            dl1_ports: int = 2, scale: float = 1.0,
            seed: Optional[int] = None) -> "Point":
        """A timing-simulation point (one per hardware thread in
        ``benches``)."""
        return cls(kind=RUN, model=model, benches=tuple(benches),
                   phys_regs=phys_regs, dl1_ports=dl1_ports, scale=scale,
                   seed=seed)

    @classmethod
    def ratio(cls, bench: str) -> "Point":
        """A functional path-length-ratio point for one benchmark."""
        return cls(kind=PATH_RATIO, bench=bench)

    @classmethod
    def probe(cls, label: str = "env") -> "Point":
        """A worker-environment diagnostic point."""
        return cls(kind=PROBE, bench=label)

    # -- identity ----------------------------------------------------------
    @property
    def cacheable(self) -> bool:
        """Whether the point's payload may be cache/ledger-resolved."""
        return self.kind != PROBE

    def run_args(self) -> Dict[str, Any]:
        """:func:`~repro.experiments.runner.run_point`'s arguments: every
        field but the kind and the ``path_ratio``/``probe`` name."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("kind", "bench")}

    def cache_key(self) -> str:
        """The key :func:`~repro.experiments.runner.run_point` and
        :func:`~repro.experiments.runner.path_ratio` store this point's
        result under."""
        if self.kind == RUN:
            return _runner.run_key(**self.run_args())
        if self.kind == PATH_RATIO:
            return _runner._cache_key(kind=PATH_RATIO, bench=self.bench)
        return f"probe-{self.bench}"

    @property
    def label(self) -> str:
        """Compact human-readable name for progress lines and CSVs."""
        if self.kind == RUN:
            tag = "~s" if self.sample else ""
            return (f"{self.model}/{'+'.join(self.benches)}"
                    f"@{self.phys_regs}r{self.dl1_ports}p{tag}")
        if self.kind == PATH_RATIO:
            return f"ratio/{self.bench}"
        return f"probe/{self.bench}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for ledgers and worker pipes (round-trips
        through :meth:`from_dict`).  ``seed`` appears only when set,
        so a seed-less point keeps the form it always had."""
        d = {"kind": self.kind, "model": self.model,
                "benches": list(self.benches),
                "phys_regs": self.phys_regs,
                "dl1_ports": self.dl1_ports, "scale": self.scale,
                "bench": self.bench, "sample": self.sample,
                "sample_interval": self.sample_interval,
                "sample_count": self.sample_count,
                "sample_mode": self.sample_mode,
                "sample_rse": self.sample_rse,
                "sample_rse_metrics": list(self.sample_rse_metrics),
                "sample_max": self.sample_max,
                "sample_mem_weight": self.sample_mem_weight}
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Point":
        """Inverse of :meth:`to_dict`; equal parameters reconstruct
        an equal (and equally hashable) point.  The ``sample``
        parameters default when absent so pre-sampling ledgers still
        replay."""
        return cls(kind=d["kind"], model=d["model"],
                   benches=tuple(d["benches"]),
                   phys_regs=d["phys_regs"], dl1_ports=d["dl1_ports"],
                   scale=d["scale"], seed=d.get("seed"),
                   bench=d["bench"], sample=d.get("sample", False),
                   sample_interval=d.get("sample_interval", 2000),
                   sample_count=d.get("sample_count", 8),
                   sample_mode=d.get("sample_mode", "systematic"),
                   sample_rse=d.get("sample_rse"),
                   sample_rse_metrics=tuple(
                       d.get("sample_rse_metrics", ())),
                   sample_max=d.get("sample_max", 64),
                   sample_mem_weight=d.get("sample_mem_weight", 0.5))

    # -- execution ---------------------------------------------------------
    def load_cached(self) -> Optional[dict]:
        """The point's cached payload, or ``None`` on any kind of miss
        (missing, corrupt, or schema-mismatched entries)."""
        if not self.cacheable:
            return None
        payload = _runner._cache_load(self.cache_key())
        if payload is None:
            return None
        try:
            self.decode(payload)
        except (TypeError, ValueError, KeyError):
            return None
        return payload

    def execute(self, use_cache: bool = True) -> dict:
        """Compute the point and return its JSON-serializable payload
        (what the cache and the run ledger store)."""
        if self.kind == RUN:
            import json
            from dataclasses import asdict
            result = _runner.run_point(use_cache=use_cache,
                                       **self.run_args())
            # Canonical JSON form, so a payload compares equal no
            # matter whether it was executed, cache-loaded, piped from
            # a worker, or replayed from a ledger.
            return json.loads(json.dumps(asdict(result)))
        if self.kind == PATH_RATIO:
            return {"ratio": _runner.path_ratio(self.bench,
                                                use_cache=use_cache)}
        if self.kind == PROBE:
            return {
                "env": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith("REPRO_")},
                "cache_dir": str(_runner.cache_dir()),
                "scale": _runner.default_scale(),
                "pid": os.getpid(),
            }
        raise ValueError(f"unknown point kind {self.kind!r}")

    def decode(self, payload: Mapping[str, Any]) -> Any:
        """Turn a stored payload back into the point's natural value
        (``RunResult``, float ratio, or the probe dict)."""
        if self.kind == RUN:
            return _runner.result_from_dict(dict(payload))
        if self.kind == PATH_RATIO:
            ratio = payload["ratio"]
            if not isinstance(ratio, float):
                raise TypeError(f"bad ratio payload: {payload!r}")
            return ratio
        return dict(payload)


def unique_points(points: Iterable[Point]) -> List[Point]:
    """Points deduplicated by parameter equality, order preserved —
    sweeps whose axes overlap (e.g. a grid plus its normalisation
    references) schedule shared work once."""
    return list(dict.fromkeys(points))


def point_from_params(**params: Any) -> Point:
    """Build a :class:`Point` from flat axis/base parameters.

    Understands the axis spellings plans use: ``bench`` (a single
    benchmark → one-thread ``benches``) and ``benches``/``workload``
    (a multi-thread tuple).  Unknown names raise ``TypeError`` so a
    typo in an axis name fails at plan expansion, not mid-sweep.
    """
    params = dict(params)
    kind = params.pop("kind", RUN)
    if kind == RUN:
        if "workload" in params:
            params["benches"] = params.pop("workload")
        if "bench" in params:
            if "benches" in params:
                raise TypeError("give either 'bench' or 'benches'")
            params["benches"] = (params.pop("bench"),)
        benches = tuple(params.pop("benches", ()))
        if "sample_rse_metrics" in params:
            params["sample_rse_metrics"] = tuple(
                params["sample_rse_metrics"])
        allowed = {"model", "phys_regs", "dl1_ports", "scale",
                   "sample", "sample_interval", "sample_count",
                   "sample_mode", "sample_rse", "sample_rse_metrics",
                   "sample_max", "sample_mem_weight"}
        unknown = set(params) - allowed
        if unknown:
            raise TypeError(f"unknown run-point parameters: "
                            f"{sorted(unknown)}")
        return Point(kind=RUN, benches=benches, **params)
    if kind == PATH_RATIO:
        bench = params.pop("bench")
        if params:
            raise TypeError(f"unknown path-ratio parameters: "
                            f"{sorted(params)}")
        return Point.ratio(bench)
    raise TypeError(f"cannot build points of kind {kind!r} from axes")


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: the cartesian product of ``axes`` over
    ``base`` parameters, plus ``extra`` points, with an optional
    ``reduce`` from the engine's outcome map to the sweep's value
    (a figure series, a table, ...).

    Build with :meth:`SweepSpec.build`; expand with :meth:`points`.
    """

    name: str
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    base: Tuple[Tuple[str, Any], ...] = ()
    extra: Tuple[Point, ...] = ()
    reduce: Optional[Callable[[Dict[Point, Any]], Any]] = field(
        default=None, compare=False)

    @classmethod
    def build(cls, name: str,
              axes: Optional[Mapping[str, Iterable[Any]]] = None,
              extra: Iterable[Point] = (),
              reduce: Optional[Callable] = None,
              **base: Any) -> "SweepSpec":
        """Convenience constructor from plain mappings.

        ``axes`` maps axis name → iterable of values (expanded
        last-axis-fastest); remaining keyword arguments become the
        ``base`` parameters shared by every point; ``extra`` points
        are appended verbatim (e.g. normalisation references);
        ``reduce`` turns the finished ``{Point: value}`` map into the
        sweep's payload.  Empty axes are rejected here — at plan
        build time — rather than surfacing as a silently empty sweep.
        """
        axes_t = tuple((k, tuple(v)) for k, v in (axes or {}).items())
        for k, values in axes_t:
            if not values:
                raise ValueError(f"axis {k!r} is empty")
        return cls(name=name, axes=axes_t,
                   base=tuple(sorted(base.items())),
                   extra=tuple(extra), reduce=reduce)

    @property
    def size(self) -> int:
        """Number of points after expansion and deduplication."""
        return len(self.points())

    def points(self) -> List[Point]:
        """Expand to the deduplicated point list, last axis fastest."""
        pts: List[Point] = []
        if self.axes or self.base:
            names = [k for k, _ in self.axes]
            grids = [v for _, v in self.axes]
            base = dict(self.base)
            pts = [point_from_params(**{**base,
                                        **dict(zip(names, combo))})
                   for combo in itertools.product(*grids)]
        pts.extend(self.extra)
        return unique_points(pts)
