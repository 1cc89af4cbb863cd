import numpy as np
import pytest

import tracing


def test_self_time_subtracts_nested_children_once():
    #   0: A [0, 10]
    #   1:   B [1, 4]      child of A
    #   2:     C [2, 3]    child of B
    #   3:   D [5, 6]      child of A
    #   4:   E [5.5, 7]    child of A, overlaps D
    #   5:   F [9, 12]     child of A, runs past A's end
    start = [0.0, 1.0, 2.0, 5.0, 5.5, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 7.0, 12.0]
    parent = [-1, 0, 1, 0, 0, 0]
    own = tracing.self_times(start, end, parent)
    # A is covered by [1,4] u [5,7] u [9,10] = 6
    assert own.tolist() == pytest.approx([4.0, 2.0, 1.0, 1.0, 1.5, 3.0])


def test_self_time_without_children_is_duration():
    own = tracing.self_times([0.0, 2.0], [1.0, 5.0], [-1, -1])
    assert own.tolist() == [1.0, 3.0]


def test_layer_self_time_adds_up_over_nested_spans():
    tr = tracing.Tracer()
    with tr.job_span("job"):
        with tr.span("bubble.outer"):
            with tr.span("bubble.inner"):
                with tr.span("special.jv"):
                    pass
    names, start, end, parent, job = tr.arrays()
    assert parent.tolist() == [-1, 0, 1, 2]
    assert set(job.tolist()) == {0}
    m = tr.layer_metrics()
    jv = end[3] - start[3]
    assert m["bubble.self_s"] == pytest.approx((end[1] - start[1]) - jv, abs=1e-12)
    assert m["specfun.jv_s"] == pytest.approx(jv)
    assert m["cli.job_s.job"] == pytest.approx(end[0] - start[0])


def _snapshot():
    import fyk
    from fyk import _quad, bubble, cli, geometry, moments, pohozaev, solver, specfun

    snap = {}
    for mod in (fyk, specfun, _quad, bubble, moments, pohozaev, solver, geometry, cli):
        for attr, val in vars(mod).items():
            snap[(mod.__name__, attr)] = val
    for attr, val in vars(pohozaev.BubbleExtensionField).items():
        snap[("BubbleExtensionField", attr)] = val
    return snap


def test_wrappers_restore_the_originals():
    from fyk import bubble, specfun
    from fyk.specfun import ProblemIndex

    before = _snapshot()
    tr = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed():
            assert bubble.profile_phi is not before[("fyk.bubble", "profile_phi")]
            assert specfun.special is not before[("fyk.specfun", "special")]
            bubble.radial_profiles(ProblemIndex(4, 0.3), np.array([0.5]), np.array([0.2]))
            raise RuntimeError("leave the block by an exception")
    assert tr.counts["bubble.point_calls"] == 1
    recorded = len(tr.start)
    assert recorded > 0
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    # no traced call leaks out of the block
    bubble.radial_profiles(ProblemIndex(4, 0.3), np.array([0.5]), np.array([0.2]))
    specfun.profile_phi(0.3, 1.0)
    assert len(tr.start) == recorded


def test_traced_results_are_identical():
    from fyk import bubble, pohozaev
    from fyk.specfun import ProblemIndex

    idx = ProblemIndex(4, 0.3)
    r, z = np.array([0.1, 0.7, 2.0]), np.array([0.3, 1.1])
    plain = bubble.radial_profiles(idx, r, z, ("W", "Wz"))
    fld = pohozaev.BubbleExtensionField(idx)
    plain_grad = fld.grad(r[:2], z)
    tr = tracing.Tracer()
    with tr.installed():
        traced = bubble.radial_profiles(idx, r, z, ("W", "Wz"))
        traced_grad = fld.grad(r[:2], z)
    for key in plain:
        assert np.array_equal(plain[key], traced[key])
    assert all(np.array_equal(a, b) for a, b in zip(plain_grad, traced_grad))
    assert tr.counts["bubble.points"] == 6 + 2
    assert tr.counts["pohozaev.field_points"] == 2
    assert tr.counts["specfun.jv_calls"] >= 1
