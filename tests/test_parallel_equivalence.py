"""The headline harness guarantees: ``--jobs 4`` == ``--jobs 1``, and
EXPERIMENTS.md reproduces bit for bit.

Runs the document's whole run matrix (every run behind Figures
1/3/4/5/6, Table 4 and the extensions report, all nine workloads)
through the runner serially and with four worker processes.  It asserts
cycle-for-cycle agreement, byte-for-byte agreement of the two generated
documents, and that both equal the checked-in EXPERIMENTS.md.  This is
the slowest test in the suite (it executes the sweep twice); it is the
acceptance test for the runner and the document, not a unit test.
"""

from pathlib import Path

from repro.harness import experiments as E
from repro.harness.docgen import generate_experiments_md
from repro.harness.runner import ExperimentRunner
from repro.timing.run import set_trace_cache_dir
from tests import goldens

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def test_jobs4_matches_jobs1_full_matrix(tmp_path, count_simulations):
    """The serial and the parallel results also equal
    ``tests/data/runresults_golden.json``, field by field.

    Regenerate the golden (only for a change meant to move cycles) with
    ``PYTHONPATH=src python -m tests.goldens``.
    """
    specs = E.doc_matrix()
    assert {s.app for s in specs} == set(E.ALL_APPS)

    serial = ExperimentRunner(jobs=1, cache_dir=tmp_path / "serial")
    out1 = serial.run(specs)
    parallel = ExperimentRunner(jobs=4, cache_dir=tmp_path / "parallel")
    out4 = parallel.run(specs)
    set_trace_cache_dir(None)

    assert not serial.failures and not parallel.failures
    # every field, not only cycles: both paths replay each lane sweep
    # as one group, in a worker or in-process
    records1 = {s: goldens.record(o.result) for s, o in out1.items()}
    records4 = {s: goldens.record(o.result) for s, o in out4.items()}
    assert records1 == records4
    pinned = set(E.matrix_for(goldens.FIGS))
    for out in (out1, out4):
        off = goldens.mismatches({s: o.result for s, o in out.items()
                                  if s in pinned})
        assert not off, f"moved off the golden: {off}"

    # the document only looks runs up: its one simulation site is the
    # extensions report's two phased kernels, which are not workloads
    count_simulations.clear()
    doc1 = generate_experiments_md(runs=serial.results)
    assert count_simulations == [("program", "V4-CMP")] * 2
    doc4 = generate_experiments_md(runs=parallel.results)
    assert doc1 == doc4   # byte-identical documents
    assert doc1 == EXPERIMENTS_MD.read_text()
