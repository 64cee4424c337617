"""The answer fingerprint of ``tests/same_answers.py`` is reproducible.

``same_answers.py`` prints the fingerprints a change that claims the same
answers must keep.  Here the report fingerprint of block 0 of each workload
is taken twice in one process: a build kept by one run and read by the next
must not change what any report says.  No value is pinned, so the check
holds at any BLAS thread count.
"""

import same_answers


def test_the_report_fingerprint_repeats_within_one_process():
    for name in ("tbg_stream", "fluct_chain"):
        first = same_answers.report_hash((name,), seeds=(7,), blocks=range(1))
        assert first[0] > 0
        assert same_answers.report_hash((name,), seeds=(7,), blocks=range(1)) == first
