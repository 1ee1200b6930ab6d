"""Spec identity is computed once per object and never changes a byte.

``RunSpec`` memoises its 64-char digest and ``Cell`` its token tuple; these
tests pin the digests, tokens and cache keys captured at the commit before
the memo existed, show that no way of deriving a spec can carry a stale
digest, that a warmed memo is invisible to ``==`` / ``hash`` / ``to_dict`` /
pickle, and that a cache and a store laid out by the pre-memo formulas
replay with zero executions.
"""

import copy
import hashlib
import json
import pickle
from dataclasses import fields, replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import executor as executor_module
from repro.experiments.executor import (
    _CHECKSUM_MAGIC,
    CACHE_SCHEMA_VERSION,
    Executor,
    ResultCache,
)
from repro.experiments import specs as specs_module
from repro.experiments.specs import (
    AqmSpec,
    Cell,
    RunSpec,
    canonical_json,
    seed_specs,
    stable_hash,
)
from repro.scenarios import compile_scenario, run_campaign

from test_scenarios_campaign import tiny_scenario


def pinned_specs():
    sharp = AqmSpec.make("ecn-sharp", ins_target=0.0002, pst_target=8.5e-05,
                         pst_interval=0.0002)
    return {
        "star": RunSpec.star(
            sharp, "web-search", 0.5, 200, seed=7, label="ECN#",
            variation=3.0, rtt_min=7e-05),
        "leafspine": RunSpec.leafspine(
            AqmSpec.make("sojourn-red", sojourn=0.00022), "data-mining", 0.4,
            500, seed=11, label="DCTCP-RED-Tail",
            transport={"init_cwnd": 10.0}, dims=(4, 4, 4),
            oversubscription=2.0),
        "microscopic": RunSpec.microscopic(
            AqmSpec.make("codel", target=1e-05, interval=0.00024), seed=3,
            label="CoDel", fanout=100, burst_time=0.05),
        "fluid": RunSpec.star(
            sharp, "web-search", 0.7, 300, seed=2, label="ECN#",
        ).with_fidelity("fluid"),
    }


# name -> (token, spec_hash, ResultCache.key under PINNED_CODE_TAG), captured
# at bb9314c, the last commit that hashed on every call.
PINNED_CODE_TAG = "1.1.0/schema2"
PINNED = {
    "star": (
        "star|ECN#|seed=7|2ddd1e51b63c56cf",
        "2ddd1e51b63c56cf2ab5e90b8fec3d693d5a3bbb954b8eb67ca5fb3fae8e6200",
        "74eb25e6559d0bd131374967ec157e97dde14d015af2d6b36f322b08acfe9949",
    ),
    "leafspine": (
        "leafspine|DCTCP-RED-Tail|seed=11|cdf931c49faad209",
        "cdf931c49faad20919dd66b96cc11cb76796e8cf606dcb0e1fefc0ad31313b72",
        "6a22b6cc105876b21c7913294ae82b0a5db99bb7a2e0ace02f2f544915908923",
    ),
    "microscopic": (
        "microscopic|CoDel|seed=3|98b64aae381c6815",
        "98b64aae381c6815b10da2f69f52f2911cfdf7b1183a5e2e97e07657c2e74bb4",
        "2d44e09447051ed65ac19fcda30ab2a4ae53aef752ddd7277ce7f60b041a7a09",
    ),
    "fluid": (
        "star|ECN#|seed=2|e749a20da9ab8e35",
        "e749a20da9ab8e352b3ad3535d63d55e735446a2f6ebd97b3bb1750489427e41",
        "13e88395586a7bd9e6858cb13325aa80e285273e1c8457e111f0b1e03128ddc8",
    ),
}
# sha256 of pickle.dumps(spec, HIGHEST_PROTOCOL) at the same commit: what a
# pool worker is sent.
PINNED_PICKLE_SHA = {
    "star": "9cdeb7911f57a9149318c9d88a9d6d6fab2359e89baa36771f609a2ba7aa72b8",
    "leafspine":
        "e3e61d24983905cfbc95a090e7968a7f944873d0a665228e8f94d1567f135f68",
    "microscopic":
        "bda61ee463014e55e21d1e29c7d6a9e3a74c334ad53723b0fd0f765137716286",
    "fluid": "4ca9990f2042ab9b0f851388c827b3d1dd6e5fa916aee44a1fef46f66ce333e3",
}


class TestPinnedIdentity:
    def test_token_hash_and_cache_key_literals(self, monkeypatch, tmp_path):
        monkeypatch.setattr(executor_module, "_code_tag",
                            lambda: PINNED_CODE_TAG)
        cache = ResultCache(tmp_path)
        for name, spec in pinned_specs().items():
            for _ in range(2):  # computed, then memoised
                assert (spec.token(), spec.spec_hash(),
                        cache.key(spec)) == PINNED[name]

    def test_pickled_bytes_ignore_the_memo(self):
        for name, spec in pinned_specs().items():
            cold = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
            spec.token()
            assert pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL) == cold
            assert hashlib.sha256(cold).hexdigest() == PINNED_PICKLE_SHA[name]

    def test_warm_memo_is_invisible(self):
        for warm, cold in zip(pinned_specs().values(),
                              pinned_specs().values()):
            warm.spec_hash()
            assert warm == cold and hash(warm) == hash(cold)
            assert warm.to_dict() == cold.to_dict()
            assert repr(warm) == repr(cold)
            assert [f.name for f in fields(warm)] == [
                f.name for f in fields(cold)]

    def test_cell_tokens_memo_hands_out_fresh_lists(self):
        spec = pinned_specs()["star"]
        cell = Cell.pooled("g", "k", spec, 2)
        first = cell.tokens()
        assert first == [spec.token(), spec.with_seed(8).token()]
        first.append("scribble")
        assert cell.tokens() == first[:2]
        fluid = cell.with_fidelity("fluid")
        assert fluid.tokens() == [s.token() for s in fluid.specs] != first[:2]


DERIVATIONS = {
    "with_seed": lambda spec, n: spec.with_seed(spec.seed + n),
    "with_fidelity": lambda spec, n: spec.with_fidelity(
        ("packet", "fluid")[n % 2]),
    "replace": lambda spec, n: replace(spec, label=f"{spec.label}{n}"),
    "round_trip": lambda spec, n: RunSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))),
    "copy": lambda spec, n: copy.copy(spec),
    "deepcopy": lambda spec, n: copy.deepcopy(spec),
    "pickle": lambda spec, n: pickle.loads(pickle.dumps(spec)),
}


class TestMemoSafety:
    @settings(max_examples=150, deadline=None)
    @given(
        start=st.sampled_from(sorted(PINNED)),
        steps=st.lists(
            st.tuples(st.sampled_from(sorted(DERIVATIONS)),
                      st.integers(0, 3), st.booleans()),
            max_size=8),
    )
    def test_no_derivation_carries_a_stale_digest(self, start, steps):
        spec = pinned_specs()[start]
        for name, n, warm_first in steps:
            if warm_first:
                spec.token()
            spec = DERIVATIONS[name](spec, n)
            digest = stable_hash(spec.to_dict())
            assert spec.spec_hash() == digest
            assert spec.token().endswith("|" + digest[:16])


# Characters JSON escapes or encodes: the hand-built cache-key prefix must
# spell them exactly as ``json.dumps`` does.
AWKWARD_TEXT = st.text(
    alphabet=st.sampled_from(
        list('#"\\/|{}:, \n\t\x00\x7f') + list("aZ9éß→𝄞")),
    max_size=12)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**12, 10**12),
    st.floats(allow_nan=False), AWKWARD_TEXT)
PARAM_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6)
PARAM_DICTS = st.dictionaries(AWKWARD_TEXT, PARAM_VALUES, max_size=4)


@st.composite
def run_specs(draw):
    """Specs of every shape ``to_dict`` has: rig kinds through their
    builders (float loads, ``transport`` dicts, nested ``dims``) and a
    free-form kind whose ``extras`` nest arbitrarily."""
    aqm = AqmSpec.make(draw(st.sampled_from(["ecn-sharp", "codel"])),
                       **draw(st.dictionaries(
                           st.sampled_from(["target", "interval", "x"]),
                           st.floats(allow_nan=False), max_size=3)))
    seed = draw(st.integers(0, 2**31))
    label = draw(AWKWARD_TEXT)
    kind = draw(st.sampled_from(["star", "leafspine", "microscopic", "free"]))
    if kind == "free":
        return RunSpec(
            kind="free", aqm=aqm, seed=seed, label=label,
            transport=tuple(sorted(draw(PARAM_DICTS).items())),
            extras=tuple(sorted(draw(PARAM_DICTS).items())))
    if kind == "microscopic":
        return RunSpec.microscopic(aqm, seed, label,
                                   fanout=draw(st.integers(1, 500)),
                                   jitter=draw(st.floats(0, 1)))
    builder = RunSpec.star if kind == "star" else RunSpec.leafspine
    extras = {} if kind == "star" else {
        "dims": tuple(draw(st.lists(st.integers(1, 8), min_size=3,
                                    max_size=3)))}
    return builder(
        aqm, draw(st.sampled_from(["web-search", "data-mining"])),
        draw(st.floats(0.01, 0.99)), draw(st.integers(1, 10**6)), seed,
        label=label, transport=draw(PARAM_DICTS),
        variation=draw(st.one_of(st.none(), st.floats(1, 10))), **extras)


class TestIdentityIsTheSameBytes:
    """One serialisation, two digests: each equals what ``stable_hash``
    makes of the same payload, whatever the spec and the code tag hold."""

    @staticmethod
    def check(spec, tag, key_first):
        cache = ResultCache("unused")
        cold = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        key = stable_hash({"spec": spec.to_dict(), "code": tag})
        digest = stable_hash(spec.to_dict())
        with mock.patch.object(RunSpec, "_canonical", autospec=True,
                               side_effect=RunSpec._canonical) as dumps:
            for _ in range(2):
                if key_first:
                    assert cache.key(spec) == key
                assert spec.spec_hash() == digest
                assert cache.key(spec) == key
                assert cache.path(spec).name == f"{key}.pkl"
        assert dumps.call_count == 1
        assert pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL) == cold

    @settings(max_examples=200, deadline=None)
    @given(spec=run_specs(), tag=AWKWARD_TEXT, other_tag=AWKWARD_TEXT,
           key_first=st.booleans(), n=st.integers(0, 3))
    def test_key_and_hash_equal_stable_hash(self, spec, tag, other_tag,
                                            key_first, n):
        with mock.patch.object(executor_module, "_code_tag", lambda: tag):
            self.check(spec, tag, key_first)
            # Whatever a warm spec begets hashes itself afresh.
            for derive in (DERIVATIONS["with_seed"], DERIVATIONS["replace"],
                           DERIVATIONS["with_fidelity"]):
                self.check(derive(spec, n), tag, not key_first)
        # The code tag moves under the live, warm spec.
        with mock.patch.object(executor_module, "_code_tag",
                               lambda: other_tag):
            if other_tag != tag:
                self.check(spec, other_tag, key_first)
            assert spec.spec_hash() == stable_hash(spec.to_dict())


# Keys that spell ``"seed":`` a second time in a spec's JSON: a splice must
# then give way to a full serialisation per member.
SEEDISH_KEYS = st.sampled_from(["seed", 'a"seed', '"seed', "seeds", "x"])
LABELS = st.one_of(AWKWARD_TEXT, st.sampled_from(
    ['"seed":5,', "seed", 'ECN# "q" é→𝄞', ',"seed":1,"transport":{}']))


@st.composite
def family_bases(draw):
    """The spec a cell expands over its seeds, of all four rig kinds (and
    a free-form one whose nested keys may be ``seed``), at either
    fidelity, with ``transport`` / ``extras`` and awkward labels, at seeds
    up to 2**63."""
    aqm = AqmSpec.make("ecn-sharp", **draw(st.dictionaries(
        st.sampled_from(["ins_target", "pst_interval"]),
        st.floats(1e-6, 1e-2), max_size=2)))
    seed = draw(st.integers(0, 2**63))
    label = draw(LABELS)
    kind = draw(st.sampled_from(
        ["star", "leafspine", "microscopic", "scheduler", "free"]))
    if kind == "free":
        params = st.dictionaries(SEEDISH_KEYS, PARAM_VALUES, max_size=3)
        return RunSpec(
            kind="free", aqm=AqmSpec.make("codel", **draw(st.dictionaries(
                SEEDISH_KEYS, st.floats(0, 1), max_size=2))),
            seed=seed, label=label,
            transport=tuple(sorted(draw(params).items())),
            extras=tuple(sorted(draw(params).items())))
    if kind == "scheduler":
        return RunSpec.scheduler(aqm, seed, label,
                                 phase=draw(st.sampled_from(["a", "b"])),
                                 probe_load=draw(st.floats(0.1, 0.9)))
    if kind == "microscopic":
        spec = RunSpec.microscopic(aqm, seed, label,
                                   fanout=draw(st.integers(1, 500)),
                                   jitter=draw(st.floats(0, 1)))
    else:
        builder = RunSpec.star if kind == "star" else RunSpec.leafspine
        extras = {} if kind == "star" else {"dims": (4, 4, 4)}
        spec = builder(
            aqm, "web-search", draw(st.floats(0.01, 0.99)),
            draw(st.integers(1, 10**6)), seed, label=label,
            transport=draw(st.dictionaries(
                st.sampled_from(["init_cwnd", "min_rto", "seed"]),
                st.floats(1, 100), max_size=2)),
            variation=draw(st.one_of(st.none(), st.floats(1, 10))), **extras)
    return spec.with_fidelity(draw(st.sampled_from(["packet", "fluid"])))


class TestSeedFamiliesSplice:
    """A cell's seeds share one serialisation: each member's bytes, token
    digest and cache key are what a full ``json.dumps`` of that member
    gives, in whatever order the members are asked."""

    @settings(max_examples=300, deadline=None)
    @given(spec=family_bases(), n=st.integers(1, 5), rng=st.randoms(),
           tag=AWKWARD_TEXT, key_first=st.booleans())
    def test_spliced_identity_is_the_full_dumps_identity(
        self, spec, n, rng, tag, key_first
    ):
        family = seed_specs(spec, n)
        full = [canonical_json(member.to_dict()).encode("utf-8")
                for member in family]
        twins = [replace(spec, seed=member.seed) for member in family]
        assert family == twins
        assert [pickle.dumps(member) for member in family] == [
            pickle.dumps(twin) for twin in twins]
        order = list(range(n))
        rng.shuffle(order)

        spliced = seed_specs(spec, n)
        shared = spliced[0].__dict__["_memo"]
        assert isinstance(shared, specs_module._SeedFamily)
        assert all(member.__dict__["_memo"] is shared for member in spliced)
        for i in order:
            assert shared.canonical(spliced[i]) == full[i]

        cache = ResultCache("unused")
        with mock.patch.object(executor_module, "_code_tag", lambda: tag), \
                mock.patch.object(RunSpec, "_canonical", autospec=True,
                                  side_effect=RunSpec._canonical) as dumps:
            for i in order:
                member = family[i]
                key = stable_hash({"spec": member.to_dict(), "code": tag})
                if key_first:
                    assert cache.key(member) == key
                assert member.spec_hash() == stable_hash(member.to_dict())
                assert member.token() == parent_token(member)
                assert cache.key(member) == key
                assert cache.path(member).name == f"{key}.pkl"
        once = full[0].count(b'"seed":') == 1
        assert dumps.call_count == (1 if once else n)
        # memoised members no longer hold their family
        assert all(type(member.__dict__["_memo"]) is tuple
                   for member in family)
        assert [pickle.dumps(member) for member in family] == [
            pickle.dumps(twin) for twin in twins]

    def test_a_seed_that_is_not_an_int_serialises_itself(self):
        spec = replace(pinned_specs()["star"], seed=7.0)
        family = seed_specs(spec, 3)
        with mock.patch.object(RunSpec, "_canonical", autospec=True,
                               side_effect=RunSpec._canonical) as dumps:
            assert [member.spec_hash() for member in family] == [
                stable_hash(member.to_dict()) for member in family]
        assert dumps.call_count == 3
        assert [member.seed for member in family] == [7.0, 8.0, 9.0]

    def test_pinned_identities_hold_inside_a_family(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_code_tag",
                            lambda: PINNED_CODE_TAG)
        cache = ResultCache("unused")
        for name, spec in pinned_specs().items():
            family = seed_specs(replace(spec, seed=spec.seed - 2), 4)
            identities = [(member.token(), member.spec_hash(),
                           cache.key(member)) for member in family]
            assert family[2] == spec  # spliced from family[0]'s bytes
            assert identities[2] == PINNED[name]


def parent_token(spec):
    """``RunSpec.token`` as the pre-memo code spelled it."""
    digest = hashlib.sha256(json.dumps(
        spec.to_dict(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")).hexdigest()
    return (f"{spec.kind}|{spec.label or spec.aqm.kind}|"
            f"seed={spec.seed}|{digest[:16]}")


def write_parent_cache_entry(directory, spec, result):
    """One cache entry laid out by the pre-memo formulas, written without
    going through ``ResultCache``."""
    code = f"{repro.__version__}/schema{CACHE_SCHEMA_VERSION}"
    key = hashlib.sha256(json.dumps(
        {"spec": spec.to_dict(), "code": code},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")).hexdigest()
    payload = pickle.dumps({"spec": spec.to_dict(), "code": code,
                            "result": result},
                           protocol=pickle.HIGHEST_PROTOCOL)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{key}.pkl").write_bytes(
        payload + _CHECKSUM_MAGIC + hashlib.sha256(payload).digest())


class TestParentArtifactsReplay:
    def test_parent_layout_cache_and_store_replay_without_executing(
        self, tmp_path
    ):
        scenario = tiny_scenario()
        compiled = compile_scenario(scenario)
        specs = compiled.specs()
        reference = run_campaign(
            [scenario], tmp_path / "reference.jsonl",
            Executor(jobs=1, cache=False))
        results = Executor(jobs=1, cache=False).run(specs)
        for spec, result in zip(specs, results):
            write_parent_cache_entry(tmp_path / "cache", spec, result)

        executor = Executor(jobs=1, cache=True, cache_dir=tmp_path / "cache")
        replay = run_campaign([scenario], tmp_path / "replay.jsonl", executor)
        assert executor.stats.executed == 0
        assert executor.stats.cache_hits == len(specs)
        assert replay.executed_cells == len(compiled.cells)

        # A store whose lines and tokens are spelled out the pre-memo way.
        parent_store = tmp_path / "parent.jsonl"
        with open(parent_store, "w", encoding="utf-8") as handle:
            for cell, record in zip(compiled.cells, reference.records):
                row = record.to_dict()
                row["tokens"] = [parent_token(spec) for spec in cell.specs]
                handle.write(json.dumps(row, sort_keys=True,
                                        separators=(",", ":")) + "\n")
        assert parent_store.read_bytes() == (
            tmp_path / "replay.jsonl").read_bytes()
        resumed = run_campaign([scenario], parent_store, executor)
        assert resumed.executed_cells == 0
        assert resumed.skipped_cells == len(compiled.cells)
