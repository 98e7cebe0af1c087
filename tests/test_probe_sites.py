"""The benchmark's accounting probes must find the names they wrap.

``bench/probes.py`` patches functions at the names their callers look up
and treats a missing site as figures that read 0, so a refactor that moves
one of them would silently zero the benchmark's failure count. The
benchmark's checks also read fields of the pipeline's outputs; a refactor
that drops one should fail here rather than in a benchmark run.
"""

from pathlib import Path

import numpy as np

from chargegame import qp
from chargegame.harness import ExperimentConfig, run_pipeline
from chargegame.scenario import small_scenario
from chargegame.surge import DriverParams

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_accounting_probe_sites_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import probes

    sites = [(owner, attr) for owner, attr, _ in probes.SOLVES]
    sites.append((qp.PolytopeProjector, "project_batch"))
    for owner, attr in sites:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_pipeline_outputs_the_benchmark_reads(tmp_path):
    # what bench/checks.py and bench/workloads.py read from one run
    res = run_pipeline(ExperimentConfig(out_dir=str(tmp_path), resolution=3),
                       small_scenario())
    for name in ("p_base", "grid", "rsg"):
        j_g, sigma = res.comparison[name]
        assert np.isfinite(j_g) and sigma.shape == (res.build.instance.n_stations,)
    grid = res.grid_result
    assert grid.evaluated_prices.shape[0] == grid.evaluated_j_g.size
    assert grid.j_g == res.comparison["grid"][0] and grid.best_price.size == 4
    for drivers in res.build.drivers:
        for d in drivers:
            assert isinstance(d, DriverParams)
            for attr in ("reachable", "demand", "base_revenue", "surge_gain"):
                assert getattr(d, attr) is not None, attr
    for poly in res.build.instance.polytopes:
        assert poly.g_mat.shape[0] == poly.h.size
    n_companies = res.build.instance.n_companies
    assert len(res.targets) == len(res.prices_at_equilibrium) == n_companies
    for i, sol in enumerate(res.surge_solutions):
        assert sol.surge.shape == (len(res.build.drivers[i]), 4)
    assert res.upper.blocks.shape == (n_companies, 4)
