"""Self-time arithmetic, span nesting, and rebinding of wrapped functions."""

import pytest

import layers
from spans import Patch, Tracer, self_times


def span(span_id, name, start, end, parent):
    return (span_id, name, start, end, parent, 0)


def test_self_time_subtracts_direct_children():
    spans = [
        span(0, "outer", 0.0, 10.0, -1),
        span(1, "mid", 1.0, 5.0, 0),
        span(2, "leaf", 2.0, 3.0, 1),
        span(3, "leaf", 6.0, 9.0, 0),
    ]
    totals = self_times(spans)
    assert totals["outer"] == (1, pytest.approx(10.0 - 4.0 - 3.0))
    assert totals["mid"] == (1, pytest.approx(4.0 - 1.0))
    assert totals["leaf"] == (2, pytest.approx(1.0 + 3.0))
    assert sum(s for _, s in totals.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        span(0, "parent", 0.0, 10.0, -1),
        span(1, "child", 1.0, 4.0, 0),
        span(2, "child", 3.0, 6.0, 0),
        span(3, "child", 2.0, 2.5, 0),
        span(4, "child", 9.0, 12.0, 0),
    ]
    totals = self_times(spans)
    # union of children inside [0, 10] is [1, 6] and [9, 10]
    assert totals["parent"][1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parent_and_request():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.request = 7
    assert outer(1) == 4
    (s_in, n_in, *_, p_in, r_in), (s_out, n_out, *_, p_out, r_out) = tracer.spans()
    assert (n_in, n_out) == ("inner", "outer")
    assert p_in == s_out and p_out == -1
    assert r_in == r_out == 7


def test_tracer_records_span_of_raising_call():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert [s[1] for s in tracer.spans()] == ["boom"]


def test_install_rebinds_every_importer_and_undo_restores(hd):
    import helmdeconv.cli as cli
    import helmdeconv.energy as energy
    import helmdeconv.regularizers as regularizers

    before = (regularizers.solve_shifted, energy.apply_filter, cli.run_rates,
              hd.apply_filter, hd.Field.__add__)
    tracer = Tracer()
    patch = layers.install(hd, tracer)
    try:
        after = (regularizers.solve_shifted, energy.apply_filter, cli.run_rates,
                 hd.apply_filter, hd.Field.__add__)
        assert all(a is not b for a, b in zip(after, before))
        grid = hd.make_grid(1, (0.0, 1.0), 8)
        filt = hd.HelmholtzFilter(grid, 0.1)
        u = hd.sample_function(grid, lambda x: x * (1 - x))
        hd.deconvolve_mtl(filt, u, 0.5)
    finally:
        patch.undo()
    assert (regularizers.solve_shifted, energy.apply_filter, cli.run_rates,
            hd.apply_filter, hd.Field.__add__) == before
    totals = self_times(tracer.spans())
    assert totals["regularizers.deconvolve_mtl"][0] == 1
    assert totals["regularizers.deconvolve_mitlar"][0] == 1
    assert totals["operators.solve_shifted_1d"][0] == 1
    assert tracer.counts["operators.nodes_solved"] == 7


def test_patch_rejects_a_function_no_module_holds():
    with pytest.raises(LookupError):
        Patch("helmdeconv").function(len, len)
