"""Scale-smoke validation of the 131,072-endpoint Figure 4 sweep artifact.

No paper-scale Figure 4 artifact is committed yet.  Once one is
generated (``repro fig4 --endpoints 131072 --workloads allreduce --jobs 4
--checkpoint results/fig4_131072.ckpt.jsonl``, writing
``results/fig4_131072.{txt,csv}``), this module proves it internally
consistent: full cell coverage, paper-scale flow counts, the fattree
reference present, and the shape checks the figure renderer stamped
still reading OK.  A checkout with none of the sweep's files skips; one
holding a checkpoint or progress log without the completed report fails,
so an abandoned sweep cannot pass for an artifact.
"""

from __future__ import annotations

import csv
from pathlib import Path

import pytest

pytestmark = pytest.mark.scale_smoke

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "results"
ENDPOINTS = 131072

#: 12 (t,u) points x 2 hybrid families + fattree + torus, allreduce only.
EXPECTED_CELLS = 26

#: AllReduce at N endpoints injects 15 waves of N flows at this scale
#: (the recursive-doubling schedule's depth is log2-driven; the committed
#: 32k artifact shows the same 15 x N shape).
FLOWS_PER_CELL = 15 * ENDPOINTS


def _skip_unless_complete():
    """Skip when no sweep was started; fail when one never finished.

    The renderer writes the report (shape checks included) only after
    the last cell completes, so its presence marks a finished sweep.
    A checkpoint, progress log or CSV without that report is the trace
    of an interrupted or abandoned run — a failure, not a missing
    artifact.
    """
    report = ARTIFACT_DIR / f"fig4_{ENDPOINTS}.txt"
    if report.exists() and "shape checks" in report.read_text():
        return
    traces = [p.name for p in (
        report,
        ARTIFACT_DIR / f"fig4_{ENDPOINTS}.csv",
        ARTIFACT_DIR / f"fig4_{ENDPOINTS}.ckpt.jsonl",
        ARTIFACT_DIR / f"fig4_{ENDPOINTS}_progress.log") if p.exists()]
    if traces:
        pytest.fail(f"fig4_{ENDPOINTS} sweep left {', '.join(traces)} but "
                    f"no completed report; finish the sweep or delete them")
    pytest.skip(f"no fig4_{ENDPOINTS} artifact generated")


class TestFig4PaperScaleArtifact:
    @pytest.fixture(scope="class")
    def rows(self):
        _skip_unless_complete()
        path = ARTIFACT_DIR / f"fig4_{ENDPOINTS}.csv"
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        return rows

    def test_cell_coverage(self, rows):
        assert len(rows) == EXPECTED_CELLS
        assert {r["workload"] for r in rows} == {"allreduce"}
        families = {r["family"] for r in rows}
        assert families == {"nesttree", "nestghc", "fattree", "torus"}
        hybrids = [r for r in rows if r["family"] in ("nesttree",
                                                      "nestghc")]
        assert len(hybrids) == 24
        assert {(r["t"], r["u"]) for r in hybrids} == \
            {(t, u) for t in ("2", "4", "8") for u in ("1", "2", "4", "8")}

    def test_paper_scale_flow_counts(self, rows):
        for r in rows:
            assert int(r["num_flows"]) == FLOWS_PER_CELL, r["topology"]
            assert int(r["events"]) > 0, r["topology"]
            assert float(r["makespan_s"]) > 0.0, r["topology"]

    def test_fattree_is_the_fastest_reference(self, rows):
        by_family = {r["family"]: r for r in rows}
        ref = float(by_family["fattree"]["makespan_s"])
        assert ref > 0.0
        # the paper's central claim at scale: no topology beats the full
        # fat-tree on allreduce, and the torus degrades well past it
        for r in rows:
            assert float(r["makespan_s"]) >= ref * (1.0 - 1e-9), \
                r["topology"]
        assert float(by_family["torus"]["makespan_s"]) > 2.0 * ref

    def test_report_shape_checks_ok(self):
        _skip_unless_complete()
        text = (ARTIFACT_DIR / f"fig4_{ENDPOINTS}.txt").read_text()
        assert f"{ENDPOINTS} endpoints" in text
        assert "[OK ] allreduce" in text
        assert "[FAIL" not in text
