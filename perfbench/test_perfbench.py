"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.prepare(), "run from a checkout that holds src/pdsseries"

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
from pdsseries import montecarlo  # noqa: E402

BENCHMARK_JSON = harness.ROOT / "BENCHMARK.json"

# every metric name the benchmark promises to print, end to end and per layer
PRINTED_NAMES = (
    "setup_s", "reps_per_s", "rep_s_p50", "rep_s_tail", "fits_per_s", "fit_s_p50",
    "failure_rate", "peak_rss_mb", "trace.overhead_s",
)


@pytest.fixture
def workdir():
    path = harness.make_workdir()
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_replication_loop_reproduces_run_monte_carlo(workdir):
    st = harness.setup("mc_high_dim", 0, workdir)
    digests, _, _ = harness.run_units(st, count=3)
    report = montecarlo.run_monte_carlo(st.dgp, estimators=st.estimators, n_reps=3,
                                        base_seed=0, functionals=("avg_deriv",), n_jobs=1)
    for row in report.rows:
        cells = [cells[row.estimator] for _, cells in digests]
        ok = [c for c in cells if "error" not in c]
        med_bias, mad, rp5 = montecarlo.aggregate_metrics(
            [c["theta_hat"] for c in ok], [c["reject"] for c in ok], st.theta)
        assert (med_bias, mad, rp5) == (row.med_bias, row.mad, row.rp5)
        assert (len(ok), len(cells) - len(ok)) == (row.n_reps, row.failures)


def test_traced_units_give_the_same_digest(workdir):
    st = harness.setup("mc_high_dim", 5, workdir)
    plain, _, _ = harness.run_units(st, count=2)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced, _, _ = harness.run_units(st, count=2, trace=tr)
    finally:
        tr.uninstall()
    assert traced == plain
    assert not tr.missing
    names = {span[0] for span in tr.spans}
    assert {"lasso.lasso_solve", "selection.first_stage", "montecarlo.generate_sample"} <= names
    # uninstall restored the originals everywhere
    assert harness.lasso.lasso_solve.__module__ == "pdsseries.lasso"
    assert harness.selection.iterated_lasso is harness.lasso.iterated_lasso


def test_perturbed_reference_fails_the_check(workdir):
    st = harness.setup("mc_high_dim", harness.REFERENCE_SEED, workdir)
    digests, _, _ = harness.run_units(st, count=2)
    reference = harness.load_reference("mc_high_dim")["units"]
    assert harness.check_digests(digests, reference) == []

    shifted = json.loads(json.dumps(reference))
    cell = shifted["1"]["post_double"]
    cell["theta_hat"] *= 1.0 + 1e-6
    assert len(harness.check_digests(digests, shifted)) == 1

    reselected = json.loads(json.dumps(reference))
    reselected["0"]["post_single_2"]["selected"].append(999)
    assert len(harness.check_digests(digests, reselected)) == 1

    bad_se = [(key, {**cells, "oracle": {**cells["oracle"], "se": 0.0}})
              for key, cells in digests]
    assert len(harness.check_digests(bad_se, None)) == 2


def test_run_exits_nonzero_on_a_perturbed_reference(tmp_path, monkeypatch, capsys):
    reference = harness.load_reference("mc_noise_controls")
    reference["units"]["0"]["post_double"]["se"] *= 1.001
    (tmp_path / "mc_noise_controls.json").write_text(json.dumps(reference))
    monkeypatch.setattr(harness, "REFERENCE_DIR", tmp_path)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "mc_noise_controls", "--seed", "0", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False


def test_every_metric_is_printed(monkeypatch, capsys):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    spec = json.loads(BENCHMARK_JSON.read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    printed = ""
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1",
                             "--trace", str(trace)])
            out = capsys.readouterr().out
            assert code == 0, out
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] is True
            assert set(result["metrics"]) == (per_layer if trace else end_to_end)
            printed += out
    for name in PRINTED_NAMES + tuple(per_layer):
        assert name in printed, name


def test_traced_counts_repeat_at_one_seed(capsys):
    counts = []
    for _ in range(2):
        assert run.main(["--workload", "mc_noise_controls", "--seed", "2", "--seconds", "3",
                         "--trace", "1"]) == 0
        metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["lasso.iterated_lasso_calls"] > 0


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (("lasso", "no_such_layer", "x"),))
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == {"lasso.no_such_layer"}


def test_tail_percentile_leaves_ten_samples_beyond():
    assert harness.tail_percentile(19) is None
    assert harness.tail_percentile(20) == 50
    assert harness.tail_percentile(100) == 90
    assert harness.tail_percentile(10_000) == 99
    for n in (20, 37, 85, 1000):
        pct = harness.tail_percentile(n)
        assert n - round(pct / 100 * n) >= harness.TAIL_BEYOND


def test_fit_report_parsing():
    text = ("BIC minimizer: 3; chosen K: 4\n"
            "selected conditioning terms (2): q[1,0,0,0], q[0,1,0,0]\n"
            "theta_hat = 0.1746248629\nse        = 0.04494591712\n")
    assert harness.parse_fit_report(text) == {
        "k": 4, "selected": ["q[1,0,0,0]", "q[0,1,0,0]"],
        "theta_hat": 0.1746248629, "se": 0.04494591712}
    with pytest.raises(harness.CheckError):
        harness.parse_fit_report("theta_hat = 1\n")


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(run.__file__).parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_high_dim"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
