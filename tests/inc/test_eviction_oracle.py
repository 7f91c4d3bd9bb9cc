"""Eviction against independent oracles: no update may be lost (§5.2.2).

The server agent evicts cold mappings every cache-update window, folds
each evicted register into its software map, and re-grants the address
after a quarantine.  Two oracles judge the result:

* the keyed admission rack of ``test_golden_determinism`` (512 Zipf
  keys over 128 registers, 25 us windows, 30 us quarantine) against
  the counts its clients submitted: the software map plus the mapped
  registers must add up exactly, key by key;
* ``apps.wordcount.WordCountJob`` over the ``wordcount_zipf`` corpus
  shape (8,000 words over 4,096 registers) against
  ``repro.workloads.word_count``, counting lost ops the way the
  benchmark does (a wrong word fails its query and every reduce of it).

One defect is still open (ROADMAP item 2): a stale grant can write into
a register that is still in quarantine when its key is queried, and the
write reaches the key only when the address is granted again.  The
word-count ceilings pin what is still lost to it; the strict xfail
demands zero, so a fix shows up here as an unexpected pass.
"""

import functools

import pytest

from repro.apps.wordcount import WordCountJob
from repro.control import build_rack
from repro.netsim import scaled
from repro.workloads import SyntheticCorpus, word_count

from ..experiments.test_golden_determinism import run_keyed_rack

WINDOW_S = 25e-6
QUARANTINES_S = [30e-6, 5e-3]
SEEDS = [0, 1, 2]
# Lost ops per (quarantine, seed) as measured when these were pinned.
# Before control-plane writes were posted (a grant's seed landed one
# control RTT late, as an overwrite), the 30 us runs lost 3,876 / 3,789
# / 3,581.
LOST_OPS_CEILING = {
    (30e-6, 0): 16, (30e-6, 1): 0, (30e-6, 2): 0,
    (5e-3, 0): 39, (5e-3, 1): 45, (5e-3, 2): 30,
}


@pytest.mark.parametrize("seed", [7, 0, 1, 2])
def test_keyed_rack_sums_to_the_submitted_counts(seed):
    dep, _pairs, submitted = run_keyed_rack(seed)
    dep.sim.run(until=dep.sim.now + 0.01)
    server = dep.server_agent(0)
    state = server.app_state("GOLD")
    assert state.mm.stats["evictions"] > 0
    held = state.soft.snapshot()
    for logical in state.mm.mapped_logicals():
        key = state.key_of_logical[logical]
        held[key] = held.get(key, 0) + server.register_value(state, key)
    assert {key: held.get(key, 0) for key in submitted} == submitted
    assert sum(held.values()) == sum(submitted.values())


@functools.lru_cache(maxsize=None)
def _wordcount_lost_ops(quarantine_s, seed):
    cal = scaled(cache_update_window_s=WINDOW_S,
                 mapping_quarantine_s=quarantine_s)
    dep = build_rack(2, 1, cal=cal, seed=seed)
    corpus = SyntheticCorpus(vocabulary_size=8000, zipf_s=1.1,
                             words_per_doc=80, seed=seed)
    docs = list(corpus.documents(1200))
    shards = {mapper: docs[index::2]
              for index, mapper in enumerate(dep.client_names)}
    job = WordCountJob(dep, value_slots=4096)
    counts = job.run(shards).counts
    state = dep.server_agent(0).app_state(job.registered.service.app_name)
    assert state.mm.stats["evictions"] > 0
    return sum(1 + want for word, want in word_count(docs).items()
               if counts.get(word) != want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("quarantine_s", QUARANTINES_S,
                         ids=["quarantine-30us", "quarantine-5ms"])
def test_wordcount_lost_ops_stay_under_the_ceiling(quarantine_s, seed):
    assert _wordcount_lost_ops(quarantine_s, seed) <= \
        LOST_OPS_CEILING[(quarantine_s, seed)]


@pytest.mark.xfail(strict=True, reason="stale-grant writes into registers "
                   "still in quarantine when queried (ROADMAP item 2)")
def test_wordcount_loses_nothing_under_eviction():
    lost = {(quarantine_s, seed): _wordcount_lost_ops(quarantine_s, seed)
            for quarantine_s in QUARANTINES_S for seed in SEEDS}
    assert lost == dict.fromkeys(lost, 0)
