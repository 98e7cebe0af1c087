"""The benchmark's accounting probes must find the names they wrap.

``bench/probes.py`` patches functions at the names their callers look up
and treats a missing site as figures that read 0, so a refactor that moves
one of them would silently zero the benchmark's failure count.
"""

from pathlib import Path

from chargegame import qp

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_accounting_probe_sites_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import probes

    sites = [(owner, attr) for owner, attr, _ in probes.SOLVES]
    sites.append((qp.PolytopeProjector, "project_batch"))
    for owner, attr in sites:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
