"""The unified cache-stats vocabulary (repro.driver.stats): one
CacheStats shape for every tier, read through attributes, serialised by
as_dict() and rendered by format_line()."""

import json
from collections.abc import Mapping

import pytest

from repro import Computation, Function, Var
from repro.driver import kernel_registry
from repro.driver.stats import STAT_KEYS, CacheStats, CacheStatsGroup


def build(name="f"):
    f = Function(name)
    with f:
        i, j = Var("i", 0, 8), Var("j", 0, 8)
        Computation("c", [i, j], 2.0 * i + j)
    return f


@pytest.fixture(autouse=True)
def _fresh_cache():
    kernel_registry.clear()
    yield
    kernel_registry.clear()


class TestCacheStats:
    def test_dict_surface_matches_legacy_shape(self):
        cs = CacheStats(tier="memory", hits=3, misses=1, evictions=2,
                        corruptions=0, size=4, maxsize=64)
        # as_dict() must reproduce exactly the pre-unification key set —
        # no 'tier' key leaking into the serialised form.
        assert cs.as_dict() == {"hits": 3, "misses": 1, "evictions": 2,
                                "corruptions": 0, "size": 4,
                                "maxsize": 64}
        assert cs.hits == 3
        assert cs.evictions == 2
        assert set(STAT_KEYS) <= set(cs.as_dict())

    def test_is_not_a_mapping(self):
        cs = CacheStats(tier="memory", hits=1)
        assert not isinstance(cs, Mapping)
        with pytest.raises(TypeError):
            cs["hits"]

    def test_extra_keys_ride_the_mapping(self):
        cs = CacheStats(tier="disk", hits=2, size=1,
                        extra={"bytes": 483, "max_bytes": 1024})
        assert cs.extra["bytes"] == 483
        assert cs.as_dict()["max_bytes"] == 1024

    def test_json_roundtrip(self):
        cs = CacheStats(tier="memory", hits=1, misses=2, size=3,
                        maxsize=64)
        assert json.loads(json.dumps(cs.as_dict())) == cs.as_dict()

    def test_format_line(self):
        cs = CacheStats(tier="memory", hits=1, misses=2, evictions=0,
                        size=3, maxsize=64)
        assert cs.format_line() == "1 hits / 2 misses / 0 evictions " \
                                   "(size 3/64)"


class TestCacheStatsGroup:
    def group(self):
        return CacheStatsGroup(
            CacheStats(tier="isl.empty", hits=4, misses=2, size=2,
                       maxsize=16),
            CacheStats(tier="isl.compose", hits=1, misses=3, size=3,
                       maxsize=8))

    def test_canonical_tier_access(self):
        g = self.group()
        assert g.tier("isl.empty").hits == 4
        assert g.tier("isl.compose").misses == 3

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            self.group().tier("isl.bogus")

    def test_is_not_a_mapping(self):
        assert not isinstance(self.group(), Mapping)


class TestReportUnification:
    def test_every_tier_reports_the_same_vocabulary(self):
        kernel = build().compile("cpu")
        caches = kernel.report.caches
        assert {"memory", "isl.empty", "isl.compose"} <= set(caches)
        for tier_name, stats in caches.items():
            assert stats.tier == tier_name
            for key in STAT_KEYS:
                assert key in stats.as_dict()
                assert hasattr(stats, key)

    def test_registry_stats_is_cachestats(self):
        build().compile("cpu")
        stats = kernel_registry.stats()
        assert isinstance(stats, CacheStats)
        assert stats.tier == "memory"
        assert stats.misses == 1

    def test_isl_stats_group_tiers(self):
        from repro.isl.cache import stats as isl_stats
        build().compile("cpu", check_legality=True)
        g = isl_stats()
        assert isinstance(g, CacheStatsGroup)
        assert set(g.tiers) == {"isl.empty", "isl.compose"}
        for name in ("isl.empty", "isl.compose"):
            tier = g.tier(name)
            for key in ("hits", "misses", "size"):
                assert isinstance(getattr(tier, key), int)
