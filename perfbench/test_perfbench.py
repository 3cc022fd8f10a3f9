"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import random
import sys
import time

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

from roncoalg import free_nil2, h1_adjoint, hl1, hl2, hr0, jsonio, truncate_to_structure, verify_variety  # noqa: E402


def test_self_time_on_nested_spans():
    # a[0,100] holds b[10,40] and c[50,90]; b holds a recursive a[15,25].
    names = ["a", "b", "c"]
    trace = [[0, 0, 100, -1], [1, 10, 40, 0], [0, 15, 25, 1], [2, 50, 90, 0]]
    stats = spans.summarize(names, trace)
    ns = 1e-9
    assert stats["a"]["calls"] == 2
    assert stats["a"]["self_s"] == pytest.approx((100 - 30 - 40 + 10) * ns)
    assert stats["a"]["s"] == pytest.approx(100 * ns)  # the inner call is inside the outer one
    assert stats["b"] == pytest.approx({"calls": 1, "s": 30 * ns, "self_s": 20 * ns})
    assert stats["c"] == pytest.approx({"calls": 1, "s": 40 * ns, "self_s": 40 * ns})


def _homology_dims(a, lie: bool) -> list[int]:
    ops = (hl1, hl2, hr0, h1_adjoint) if lie else (hl1, hl2)
    return [op(a).dimension for op in ops]


def _verdicts(a) -> list[int]:
    return [len(verify_variety(a, v).violations) for v in ("leibniz", "lie", "ronco")]


@pytest.mark.parametrize("algebra, lie", [(free_nil2(3), True), (truncate_to_structure(2, 4), False)],
                         ids=["free_nil2(3)", "truncate_to_structure(2,4)"])
def test_basis_change_keeps_verify_verdicts_and_homology_dims(algebra, lie):
    text = jsonio.dumps_algebra(algebra).encode()
    dim, table = workloads.parse_table(text)
    assert workloads.dump_table(dim, table) == text  # same canonical bytes as the package
    for seed in range(3):
        changed = workloads.dump_table(dim, workloads.change_basis(dim, table, random.Random(seed)))
        assert changed != text
        b = jsonio.loads_algebra(changed)
        assert _verdicts(b) == _verdicts(algebra)
        assert _homology_dims(b, lie) == _homology_dims(algebra, lie)


def test_flipped_stdout_byte_makes_failed_share_positive(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 60)
    jobs = [workloads.Job("graded-kernel-2-5", ["graded-kernel", "--gens", "2", "--deg", "5"],
                          check=workloads.expect_graded_kernel(2, 5))]
    results = [runner.run(job, traced=False) for job in jobs]
    recorded = {r.label: [r.rc, run.digest(r.stdout)] for r in results}
    assert run.failures(jobs, results, recorded) == []

    data = bytearray(results[0].stdout)
    data[len(data) // 2] ^= 1
    results[0].stdout = bytes(data)
    failed = run.failures(jobs, results, recorded)
    assert len(failed) / len(results) > 0
