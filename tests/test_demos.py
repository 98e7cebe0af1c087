"""Smoke runs of every demo."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_pricing_equilibrium_demo(tmp_path, monkeypatch, capsys):
    out = run_demo("01_pricing_equilibrium.py", tmp_path, monkeypatch, capsys)
    assert "feedback prices reach loss" in out


def test_fleet_simulation_demo(tmp_path, monkeypatch, capsys):
    out = run_demo("02_fleet_simulation.py", tmp_path, monkeypatch, capsys)
    assert "drivers carrying surge-game data:" in out


def test_robustness_demo(tmp_path, monkeypatch, capsys):
    out = run_demo("04_robustness.py", tmp_path, monkeypatch, capsys)
    assert "loss-gap bound held on every such sample: True" in out


def test_surge_pricing_demo(tmp_path, monkeypatch, capsys):
    out = run_demo("03_surge_pricing.py", tmp_path, monkeypatch, capsys)
    assert out.count("responses verified: True") == 3
    assert "surge_prices.csv preview" in out


def test_full_pipeline_demo(tmp_path, monkeypatch, capsys):
    out = run_demo("05_full_pipeline.py", tmp_path, monkeypatch, capsys)
    written = {p.name for p in (tmp_path / "out" / "demo_run").iterdir()}
    assert {"allocation.csv", "snapshot.csv", "surge_prices.csv"} <= written
    assert "lower level tracking cost per company: [0.0, 0.0, 0.0]" in out


def test_readme_quick_start(capsys):
    # the README's "Library quick start" block, run as written
    readme = (DEMOS.parent / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.splitlines()[-1].endswith(" 0.0")
