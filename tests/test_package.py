"""The package facade keeps every subpackage reachable by dotted path."""

import importlib


def test_schedule_subpackage_survives_import_repro():
    """``repro`` must not rebind the ``repro.schedule`` package name."""
    import repro
    import repro.schedule.placed as placed

    assert repro.schedule is importlib.import_module("repro.schedule")
    assert placed.build_placed_graph is repro.build_placed_graph


def test_schedule_function_still_importable_from_its_package():
    from repro.schedule import schedule
    from repro.schedule.scheduler import schedule as defined

    assert schedule is defined
