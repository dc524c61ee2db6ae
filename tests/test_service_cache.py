"""The two cache tiers: accounting, eviction and bit-identity.

The load-bearing test here is :class:`TestOfflineBitIdentity`: a warm
service worker (prepared problem reused from an earlier run) must
produce *exactly* the document a cold offline run produces — caching
may change speed, never results.
"""

from __future__ import annotations

import json

import pytest

from repro.core import emts5
from repro.graph import ptg_to_dict
from repro.mapping import schedule_to_dict
from repro.platform import by_name
from repro.service import ResultCache, WarmCache, parse_request
from repro.service.jobs import JobStore
from repro.service.worker import run_request
from repro.timemodels import TimeTable
from repro.workloads import generate_fft


def make_doc(size=4, seed=7, **extra):
    doc = {
        "ptg": ptg_to_dict(generate_fft(size, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": seed,
    }
    doc.update(extra)
    return doc


class TestWarmCache:
    def test_hit_miss_accounting(self):
        warm = WarmCache(max_problems=4)
        req = parse_request(make_doc())
        p1 = warm.get_or_prepare(req)
        assert (warm.stats.hits, warm.stats.misses) == (0, 1)
        p2 = warm.get_or_prepare(req)
        assert p2 is p1  # same prepared table/kernel object
        assert (warm.stats.hits, warm.stats.misses) == (1, 1)

    def test_different_problems_do_not_collide(self):
        warm = WarmCache(max_problems=4)
        a = warm.get_or_prepare(parse_request(make_doc(size=4)))
        b = warm.get_or_prepare(parse_request(make_doc(size=8)))
        assert a is not b
        assert warm.stats.misses == 2

    def test_lru_eviction(self):
        warm = WarmCache(max_problems=2)
        r4 = parse_request(make_doc(size=4))
        r8 = parse_request(make_doc(size=8))
        r16 = parse_request(make_doc(size=16))
        p4 = warm.get_or_prepare(r4)
        warm.get_or_prepare(r8)
        warm.get_or_prepare(r4)  # refresh 4 so 8 is the LRU victim
        warm.get_or_prepare(r16)
        assert warm.stats.evictions == 1
        assert len(warm) == 2
        assert warm.get_or_prepare(r4) is p4  # still resident
        warm.get_or_prepare(r8)  # evicted: prepared again
        assert warm.stats.misses == 4

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WarmCache(max_problems=0)


class TestResultCache:
    def test_hit_miss_eviction_accounting(self):
        cache = ResultCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}
        cache.put("c", {"v": 3})  # evicts b (a was refreshed)
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        snap = cache.snapshot()
        assert snap["hits"] == 2
        assert snap["misses"] == 2
        assert snap["evictions"] == 1
        assert snap["entries"] == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestOfflineBitIdentity:
    def test_warm_run_matches_cold_and_offline(self):
        """Cold run, warm re-run and the offline stack all agree bitwise."""
        doc = make_doc()
        req = parse_request(doc)
        warm = WarmCache()
        store = JobStore(None)

        cold = run_request(store.create(req), warm)
        # second run on the same worker: prepared problem reused
        assert warm.stats.hits == 0
        second = run_request(store.create(req), warm)
        assert warm.stats.hits == 1
        assert json.dumps(cold, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

        # the exact computation the `repro-emts schedule` CLI performs
        ptg = generate_fft(4, rng=7)
        cluster = by_name("chti")
        from repro.cli import _make_model

        table = TimeTable.build(_make_model("amdahl"), ptg, cluster)
        offline = emts5().schedule(ptg, cluster, table, rng=7)
        assert cold["makespan"] == offline.makespan
        assert cold["evaluations"] == offline.log.total_evaluations
        assert cold["seed_makespans"] == {
            k: float(v) for k, v in offline.seed_makespans.items()
        }
        assert json.dumps(
            cold["schedule"], sort_keys=True
        ) == json.dumps(
            schedule_to_dict(offline.schedule), sort_keys=True
        )

    def test_generation_budget_respected(self):
        req = parse_request(make_doc(generations=2))
        result = run_request(JobStore(None).create(req), WarmCache())
        # generation 0 + 2 evolved generations
        assert result["generations"] == 3
        assert result["interrupted"] is False
