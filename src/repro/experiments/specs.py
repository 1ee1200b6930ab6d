"""Deterministic run specifications for the experiment executor.

Every paper figure is a grid of fully independent DES runs -- one cell per
(scheme, sweep point, seed).  A :class:`RunSpec` captures *everything* that
determines one run's output: the topology kind, the AQM (by registry name
plus parameters, see :mod:`repro.experiments.schemes`), the workload, the
load point, the flow count, the seed, the transport configuration and the
RTT profile.  Specs are frozen, hashable and JSON-serializable, which makes
them safe to ship across process boundaries (``ProcessPoolExecutor`` with
the spawn start method) and to use as on-disk cache keys.

Because each run constructs its own :class:`~repro.sim.engine.Simulator`
and ``numpy.random.default_rng(seed)``, a spec's result is bit-identical
whether it executes in-process, in a worker process, or is replayed from
the result cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..settings import FIDELITIES

__all__ = [
    "AqmSpec",
    "RunSpec",
    "Cell",
    "seed_specs",
    "resolve_workload",
    "canonical_json",
    "stable_hash",
    "FIDELITIES",
]

Params = Tuple[Tuple[str, Any], ...]

# Rig-specific knobs each RunSpec kind accepts in ``extras``.  Anything
# else raises at construction time: a typo'd key (``fidelity=fliud``,
# ``fanuot=100``) must fail loudly instead of silently running with the
# rig defaults at packet level.
_KNOWN_EXTRAS: Dict[str, frozenset] = {
    "star": frozenset(
        {"n_senders", "link_rate_bps", "link_delay", "buffer_bytes", "fidelity"}
    ),
    "leafspine": frozenset(
        {"dims", "link_rate_bps", "buffer_bytes", "oversubscription", "fidelity"}
    ),
    "microscopic": frozenset(
        {
            "fanout",
            "n_background",
            "background_bytes",
            "warmup",
            "burst_time",
            "end_time",
            "sample_interval",
            "rtt_min",
            "variation",
            "init_cwnd",
            "jitter",
            "fidelity",
        }
    ),
    # Figure 13's DWRR study has no fluid analogue (it measures scheduler
    # interaction, not congestion dynamics), so no ``fidelity`` knob.
    "scheduler": frozenset(
        {"phase", "link_rate_bps", "probe_load", "long_flow_bytes"}
    ),
}


def _freeze_value(value: Any) -> Any:
    """Canonical hashable form of a parameter value (lists become tuples)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    return value


def _freeze_params(params: Dict[str, Any]) -> Params:
    """Sorted key/value tuple form of a parameter dict (hashable, stable)."""
    return tuple(sorted((k, _freeze_value(v)) for k, v in params.items()))


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: Any) -> str:
    """The one canonical JSON encoding: what spec identities hash and what
    a store, sidecar or ledger line is.  ``json.dumps`` with these
    arguments builds this same encoder on every call; one shared encoder
    writes the same bytes without that cost."""
    return _CANONICAL.encode(payload)


def stable_hash(payload: Any) -> str:
    """SHA-256 over a canonical JSON encoding of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def _key_prefix(code_tag: str) -> Tuple[str, bytes]:
    """``code_tag`` and the bytes that precede a spec's canonical JSON in
    the canonical JSON of ``{"code": code_tag, "spec": spec.to_dict()}``
    ("code" sorts before "spec").  One entry, because a process hashes
    under one tag -- and every identity memo built under it then holds the
    same string object, not 4000 copies."""
    prefix = '{"code":' + canonical_json(code_tag) + ',"spec":'
    return code_tag, prefix.encode("utf-8")


@dataclass(frozen=True)
class AqmSpec:
    """An AQM identified by registry name plus constructor parameters.

    Unlike the closure factories in :mod:`repro.experiments.schemes`, an
    ``AqmSpec`` is picklable and hashable, so it can cross process
    boundaries and key the result cache.  ``build()`` is itself a zero-arg
    factory usable anywhere an ``aqm_factory`` callable is expected.
    """

    kind: str
    params: Params = ()

    @classmethod
    def make(cls, kind: str, **params: float) -> "AqmSpec":
        return cls(kind=kind, params=_freeze_params(params))

    def build(self):
        from .schemes import build_aqm  # deferred: schemes imports this module

        return build_aqm(self.kind, dict(self.params))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "AqmSpec":
        return cls.make(data["kind"], **data["params"])


def resolve_workload(name: str):
    """Look up a flow-size distribution by its report name."""
    from ..workloads.datamining import DATA_MINING
    from ..workloads.websearch import WEB_SEARCH

    workloads = {WEB_SEARCH.name: WEB_SEARCH, DATA_MINING.name: DATA_MINING}
    try:
        return workloads[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r} (available: {sorted(workloads)})"
        ) from None


@dataclass(frozen=True)
class RunSpec:
    """One run's full parameter set.

    ``kind`` selects the rig ("star", "leafspine", "microscopic" or
    "scheduler"); fields left at ``None`` fall through to the rig's own
    defaults, so a spec only pins what the experiment varies.  ``extras``
    carries rig-specific knobs (leaf-spine ``dims``, incast ``fanout``,
    scheduler ``phase``, ...) as a sorted key/value tuple.  ``label`` is the
    scheme's display name; it travels with the result (and therefore with
    the cache entry), so it participates in the spec identity.
    """

    kind: str
    aqm: AqmSpec
    seed: int
    label: str = ""
    workload: Optional[str] = None
    load: Optional[float] = None
    n_flows: Optional[int] = None
    variation: Optional[float] = None
    rtt_min: Optional[float] = None
    rtt_shape: Optional[str] = None
    transport: Params = ()
    extras: Params = field(default=())

    def __post_init__(self) -> None:
        known = _KNOWN_EXTRAS.get(self.kind)
        if known is not None:
            unknown = {k for k, _ in self.extras} - known
            if unknown:
                raise ValueError(
                    f"unknown extras for kind {self.kind!r}: {sorted(unknown)} "
                    f"(accepted: {sorted(known)})"
                )
        fidelity = dict(self.extras).get("fidelity")
        if fidelity is not None and fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity {fidelity!r} "
                f"(choose from {', '.join(FIDELITIES)})"
            )

    # ------------------------------------------------------------ builders

    @classmethod
    def star(
        cls,
        aqm: AqmSpec,
        workload: str,
        load: float,
        n_flows: int,
        seed: int,
        label: str = "",
        transport: Optional[Dict[str, Any]] = None,
        **kwargs: Any,
    ) -> "RunSpec":
        """A testbed-style star FCT run (``run_star_fct``)."""
        return cls._fct("star", aqm, workload, load, n_flows, seed, label,
                        transport, kwargs)

    @classmethod
    def leafspine(
        cls,
        aqm: AqmSpec,
        workload: str,
        load: float,
        n_flows: int,
        seed: int,
        label: str = "",
        transport: Optional[Dict[str, Any]] = None,
        **kwargs: Any,
    ) -> "RunSpec":
        """A large-scale leaf-spine FCT run (``run_leafspine_fct``)."""
        return cls._fct("leafspine", aqm, workload, load, n_flows, seed,
                        label, transport, kwargs)

    @classmethod
    def microscopic(
        cls, aqm: AqmSpec, seed: int, label: str = "", **kwargs: Any
    ) -> "RunSpec":
        """A Figure 10/11 incast-burst run (``run_microscopic``)."""
        return cls(kind="microscopic", aqm=aqm, seed=seed, label=label,
                   extras=_freeze_params(kwargs))

    @classmethod
    def scheduler(
        cls, aqm: AqmSpec, seed: int, label: str = "", **kwargs: Any
    ) -> "RunSpec":
        """A Figure 13 DWRR scheduling run (``run_scheduler_experiment``)."""
        return cls(kind="scheduler", aqm=aqm, seed=seed, label=label,
                   extras=_freeze_params(kwargs))

    @classmethod
    def _fct(cls, kind, aqm, workload, load, n_flows, seed, label,
             transport, kwargs) -> "RunSpec":
        variation = kwargs.pop("variation", None)
        rtt_min = kwargs.pop("rtt_min", None)
        rtt_shape = kwargs.pop("rtt_shape", None)
        return cls(
            kind=kind,
            aqm=aqm,
            seed=seed,
            label=label,
            workload=workload,
            load=load,
            n_flows=n_flows,
            variation=variation,
            rtt_min=rtt_min,
            rtt_shape=rtt_shape,
            transport=_freeze_params(transport or {}),
            extras=_freeze_params(kwargs),
        )

    # ---------------------------------------------------------- identity

    def with_seed(self, seed: int) -> "RunSpec":
        return self._sibling(seed, None)

    def _sibling(self, seed: int, family: "Optional[_SeedFamily]") -> "RunSpec":
        """This spec at another seed, built without ``replace``: only the
        seed changes, so there is nothing for ``__post_init__`` to check.
        ``family`` is what the new spec's identity is spliced from (its
        memo slot, until the identity is computed)."""
        twin = object.__new__(type(self))
        state = twin.__dict__
        state.update(self.__dict__)
        state["seed"] = seed
        if family is not None or "_memo" in state:
            state["_memo"] = family
        return twin

    @property
    def fidelity(self) -> str:
        """The spec's simulation fidelity (``packet`` unless overridden)."""
        return dict(self.extras).get("fidelity", "packet")

    def with_fidelity(self, fidelity: str) -> "RunSpec":
        """The same run at another fidelity.

        ``packet`` is the implicit default and is *elided* from ``extras``,
        so round-tripping a pre-fluid spec through ``with_fidelity("packet")``
        leaves its hash (and therefore its cache key) byte-identical.
        """
        if fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity {fidelity!r} "
                f"(choose from {', '.join(FIDELITIES)})"
            )
        extras = dict(self.extras)
        extras.pop("fidelity", None)
        if fidelity != "packet":
            extras["fidelity"] = fidelity
        return replace(self, extras=_freeze_params(extras))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "aqm": self.aqm.to_dict(),
            "seed": self.seed,
            "label": self.label,
            "workload": self.workload,
            "load": self.load,
            "n_flows": self.n_flows,
            "variation": self.variation,
            "rtt_min": self.rtt_min,
            "rtt_shape": self.rtt_shape,
            "transport": dict(self.transport),
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {sorted(unknown)}")
        return cls(
            kind=data["kind"],
            aqm=AqmSpec.from_dict(data["aqm"]),
            seed=data["seed"],
            label=data.get("label", ""),
            workload=data.get("workload"),
            load=data.get("load"),
            n_flows=data.get("n_flows"),
            variation=data.get("variation"),
            rtt_min=data.get("rtt_min"),
            rtt_shape=data.get("rtt_shape"),
            transport=_freeze_params(data.get("transport") or {}),
            extras=_freeze_params(data.get("extras") or {}),
        )

    def spec_hash(self) -> str:
        """Stable content hash of the spec (the token's identity half)."""
        return self._identity()[1]

    def cache_key(self, code_tag: str) -> str:
        """The result-cache key of this spec under ``code_tag``:
        ``stable_hash({"spec": self.to_dict(), "code": code_tag})``."""
        return self._identity(code_tag)[2]

    def _identity(self, code_tag: Optional[str] = None) -> Tuple[str, str, str]:
        """``(code tag, spec hash, cache key under that tag)``, from one
        serialisation per object.

        Both digests are taken from the same canonical bytes the first time
        either is asked for, so whichever comes first -- a campaign builds
        tokens, then the executor looks keys up -- has to know the tag:
        ``spec_hash`` asks the executor module for the current one.  A
        different ``code_tag`` under a live spec drops the memo and hashes
        again.

        The memo holds the tag and two 64-char digests, never the JSON --
        keeping that costs a 1000-cell replay +10 % peak RSS (DESIGN §7).
        Until then the slot may hold the :class:`_SeedFamily` of
        :func:`seed_specs`, which splices this spec's bytes out of a
        sibling's.  It lands in the instance ``__dict__``, outside the
        dataclass fields, so ``==``, ``hash()``, ``to_dict()`` and
        ``replace()`` never see it: every derived spec is a fresh object
        that hashes itself."""
        memo = self.__dict__.get("_memo")
        if memo.__class__ is tuple and (code_tag is None or memo[0] == code_tag):
            return memo
        if code_tag is None:
            code_tag = _executor()._code_tag()
        code_tag, prefix = _key_prefix(code_tag)
        if memo.__class__ is _SeedFamily:
            canon = memo.canonical(self)
        else:
            canon = self._canonical()
        memo = (
            code_tag,
            hashlib.sha256(canon).hexdigest(),
            hashlib.sha256(prefix + canon + b"}").hexdigest(),
        )
        self.__dict__["_memo"] = memo
        return memo

    def _canonical(self) -> bytes:
        """The one place a spec is serialised for hashing: once per spec,
        or once per :func:`seed_specs` family."""
        return canonical_json(self.to_dict()).encode("utf-8")

    def __getstate__(self) -> dict:
        """The fields alone, so the bytes pickled to a pool worker or a
        cache entry do not depend on whether the identity was computed."""
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state

    def token(self) -> str:
        """Human-matchable identity string, ``kind|label|seed=N|hash16``.

        This is what ``REPRO_FAULT_INJECT`` directives substring-match and
        what failure records/summary tables display, so one format serves
        both injection targeting ("seed=4|", "ECN#") and forensics.
        """
        return (
            f"{self.kind}|{self.label or self.aqm.kind}|"
            f"seed={self.seed}|{self.spec_hash()[:16]}"
        )


def _executor():
    """The executor module, imported on first use (it imports this one);
    its ``_code_tag`` is looked up per call, so a patched tag is seen."""
    global _EXECUTOR
    if _EXECUTOR is None:
        from . import executor as module

        _EXECUTOR = module
    return _EXECUTOR


_EXECUTOR = None

_SEED_KEY = b'"seed":'


class _SeedFamily:
    """What the specs of one :func:`seed_specs` expansion share: their
    canonical JSON differs only in the top-level ``seed``, so the first
    member asked serialises itself and every other member's bytes are
    ``head + decimal seed + tail`` -- the same bytes ``json.dumps`` writes
    for an ``int``.

    The split is taken only where it is unambiguous: ``"seed":`` occurs
    once in the bytes (inside a JSON string every quote is escaped, so
    only a key can spell it, and a nested ``seed`` key makes a second
    occurrence) followed by that member's digits and a comma.  Otherwise,
    and for any seed that is not exactly an ``int``, a member serialises
    itself.  The family is dropped by each member as its identity is
    memoised, so the bytes live only while a cell is being hashed."""

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: Optional[Tuple[bytes, ...]] = None  # () when unsplittable

    def canonical(self, spec: RunSpec) -> bytes:
        seed = spec.seed
        if seed.__class__ is not int:
            return spec._canonical()
        parts = self.parts
        if parts is None:
            canon = spec._canonical()
            self.parts = _split_at_seed(canon, seed)
            return canon
        if not parts:
            return spec._canonical()
        return parts[0] + b"%d" % seed + parts[1]


def _split_at_seed(canon: bytes, seed: int) -> Tuple[bytes, ...]:
    """``(head, tail)`` around ``seed``'s digits in ``canon``, or ``()``."""
    digits = b"%d" % seed
    at = canon.find(_SEED_KEY)
    start = at + len(_SEED_KEY)
    end = start + len(digits)
    if (at < 0 or canon.find(_SEED_KEY, start) >= 0
            or canon[start:end] != digits or canon[end:end + 1] != b","):
        return ()
    return canon[:start], canon[end:]


def seed_specs(spec: RunSpec, n_seeds: int) -> List[RunSpec]:
    """The pooled-seed expansion of one cell: seed, seed+1, ...  The specs
    form one :class:`_SeedFamily`, so hashing them costs one
    serialisation."""
    if n_seeds <= 0:
        raise ValueError("n_seeds must be positive")
    family = _SeedFamily()
    return [spec._sibling(spec.seed + offset, family)
            for offset in range(n_seeds)]


@dataclass(frozen=True)
class Cell:
    """One grid cell: the seed-expanded specs of one sweep point.

    ``group`` is the figure or scenario workload component the cell belongs
    to and ``key`` its stable human-readable name within the grid.  A cell
    is sized and iterable like its spec tuple, so a list of cells can go
    wherever a list of per-cell spec lists can
    (:func:`~repro.experiments.executor.run_grid`).

    Build one with :meth:`pooled` or :meth:`single`; :meth:`pool` turns the
    cell's raw runs into the one result its metrics are read from.
    """

    group: str
    key: str
    specs: Tuple[RunSpec, ...]
    metric_source: str
    """``"fct"``: seed runs pooled into one ``ExperimentResult``.
    ``"micro"``: a single run carrying its own ``metrics()``
    (``MicroscopicRun``, ``SchedulerRun``)."""

    @classmethod
    def pooled(cls, group: str, key: str, spec: RunSpec, n_seeds: int) -> "Cell":
        """An FCT cell: ``spec`` at ``n_seeds`` consecutive seeds, pooled."""
        return cls(group, key, tuple(seed_specs(spec, n_seeds)), "fct")

    @classmethod
    def single(cls, group: str, key: str, spec: RunSpec) -> "Cell":
        """A microscopic cell: one run, reported as it is."""
        return cls(group, key, (spec,), "micro")

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def tokens(self) -> List[str]:
        return list(self._tokens)

    @cached_property
    def _tokens(self) -> Tuple[str, ...]:
        """Built once per cell: a campaign asks on every resume walk,
        settle and lease round."""
        return tuple(spec.token() for spec in self.specs)

    def with_fidelity(self, fidelity: str) -> "Cell":
        """The same cell with every spec at another fidelity."""
        return replace(
            self,
            specs=tuple(spec.with_fidelity(fidelity) for spec in self.specs),
        )

    def pool(self, runs: Sequence[Any]) -> Any:
        """The cell's one result from its raw runs (one per spec, failures
        included): an FCT cell pools its seeds
        (:func:`~repro.experiments.runner.pool_results`, which pools around
        failed seeds), a microscopic cell is its one run."""
        if self.metric_source == "fct":
            from .runner import pool_results  # deferred: runner builds rigs

            return pool_results(runs)
        return runs[0]
