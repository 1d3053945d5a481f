"""The benchmark's own test: every workload at reduced size, every check on."""

import run


def test_smoke_every_workload_checks_clean(tmp_path):
    results = run.smoke(tmp_path)
    assert set(results) == set(run.WORKLOADS)
    for workload, (result, detail) in results.items():
        assert result["attempted"] > 0, workload
        assert result["correct"], (workload, detail["failures"])
        assert set(result["metrics"]) == {"setup_s", "run_s", "slowest_op_s", "peak_rss_mb"}
