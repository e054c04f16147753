"""serve-run's request sequence: the seed orders it, the mix is fixed."""

import itertools

import serve_wl

PAIRS = [(f"app{i}", f"p{i % 4}") for i in range(36)]


def test_every_cycle_serves_the_same_mix(monkeypatch):
    monkeypatch.setattr(serve_wl, "popularity_ranking", lambda: PAIRS)
    counts = serve_wl.cycle_counts()
    assert sum(counts) == serve_wl.CYCLE
    assert counts == sorted(counts, reverse=True)
    assert min(counts) >= 1
    seq = serve_wl.zipf_requests(7)
    for _ in range(3):
        cycle = list(itertools.islice(seq, serve_wl.CYCLE))
        assert [cycle.count(p) for p in PAIRS] == counts


def test_the_seed_orders_the_requests(monkeypatch):
    monkeypatch.setattr(serve_wl, "popularity_ranking", lambda: PAIRS)

    def first(seed):
        return list(itertools.islice(serve_wl.zipf_requests(seed),
                                     2 * serve_wl.CYCLE))

    assert first(7) == first(7)
    assert first(7) != first(8)
    assert sorted(first(7)) == sorted(first(8))
