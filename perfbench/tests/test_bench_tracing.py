"""The tracer: restoring wrapped attributes, missing targets, span arithmetic."""

import sys

import run
import tracing


def _namespace_snapshot():
    """Every attribute of every widthcert module and class, by identity."""
    import widthcert.cli  # noqa: F401
    import widthcert.fastdet  # noqa: F401

    snap = {}
    for module in tracing._package_modules():
        for key, value in vars(module).items():
            snap[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("widthcert"):
                for attr, member in vars(value).items():
                    snap[(module.__name__, key, attr)] = member
    return snap


def _small_work():
    from widthcert import deltacert
    from widthcert.widthlab import hollow_check, lattice_width

    model = deltacert.build_delta_model(check=False)
    lattice_width(model.polytope, model.lattice)
    hollow_check(model.polytope, model.lattice)


def test_restore_puts_back_every_wrapped_attribute():
    before = _namespace_snapshot()
    tracer = tracing.Tracer().install()
    assert tracer.missing == []
    assert tracer._saved, "nothing was wrapped"
    _small_work()
    tracer.restore()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_counts_repeat_exactly():
    def counts():
        with tracing.Tracer() as tracer:
            _small_work()
        return tracer.counts, tracer.extra

    assert counts() == counts()
    first, extra = counts()
    assert first["widthlab.candidates"] > 0
    assert extra["widthlab.minimizers"] == 7


def test_missing_target_is_reported_not_raised():
    targets = tracing.TARGETS + (
        tracing.Target("fastdet", "_renamed_away", "fastdet.per_prime"),
        tracing.Target("no_such_module", "f", "widthlab.candidates", timed=False),
    )
    tracer = tracing.Tracer(targets).install()
    try:
        _small_work()
    finally:
        tracer.restore()
    assert tracer.missing == ["fastdet._renamed_away", "no_such_module.f"]
    trace = run.MergedTrace([{**tracer.dump(), "scale": 1.0}])
    metrics, missing = run.per_layer_metrics(trace, {}, {}, 0.0)
    assert set(missing) == {"fastdet.primes", "fastdet.per_prime_s", "widthlab.candidates"}
    assert not set(missing) & metrics.keys()
    assert set(missing) | metrics.keys() == run.PER_LAYER.keys()


def test_span_times_self_and_recursion():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],   # recursive call inside b
        ["c", 5.0, 6.0, 0],
    ]
    inclusive, self_time = tracing.span_times(spans)
    assert inclusive == {"a": 10.0, "b": 3.0, "c": 1.0}
    assert self_time == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_level_pass_accounting_from_arguments():
    import numpy as np

    tracer = tracing.Tracer(targets=())
    coeff_a = np.array([[[1, 0, 0]]])
    coeff_b = np.array([[[0, 2, 0]]])
    out_a = np.zeros((1, 5), dtype=np.int64)
    tracer._hook_level_pass((None, None, None, coeff_a, coeff_b, None, out_a), None)
    assert tracer.extra["kernels.madds"] == 2 * 5
    assert tracer.extra["kernels.bytes_moved"] == (
        2 * 5 * tracing._PAIR_SLOT_BYTES + 1 * 5 * tracing._OUT_SLOT_BYTES)


def test_wrapping_reaches_names_bound_in_other_modules():
    import widthcert.exactlinalg as exactlinalg
    import widthcert.widthlab as widthlab

    original = exactlinalg.det_field
    with tracing.Tracer() as tracer:
        assert widthlab.det_field is exactlinalg.det_field is not original
        _small_work()
    assert widthlab.det_field is original
    assert tracer.counts["exactlinalg.det_field"] > 0
    assert "widthcert.widthlab" in sys.modules
