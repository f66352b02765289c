"""Tests for the traffic-sweep harness and small simulator components."""

from __future__ import annotations

import importlib
import sys
import types

import pytest

from repro.analysis.sweeps import metric_series, sweep_table, traffic_sweep
from repro.protocols.registry import get_protocol
from repro.simulator.checker import GoldenChecker
from repro.simulator.memory import MainMemory
from repro.simulator.trace import Access, AccessKind


class TestTrafficSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return traffic_sweep(
            [get_protocol("msi"), get_protocol("firefly")],
            ["hot-block"],
            [2, 4],
            length=1500,
            seed=7,
        )

    def test_point_count(self, points):
        assert len(points) == 2 * 1 * 2

    def test_no_violations_for_verified_protocols(self, points):
        assert all(p.violations == 0 for p in points)

    def test_hit_rates_in_range(self, points):
        assert all(0.0 <= p.hit_rate <= 1.0 for p in points)

    def test_invalidate_vs_update_traffic_split(self, points):
        msi = [p for p in points if p.protocol == "msi"]
        firefly = [p for p in points if p.protocol == "firefly"]
        assert all(p.updates == 0 for p in msi)
        assert all(p.invalidations == 0 for p in firefly)
        assert any(p.invalidations > 0 for p in msi)
        assert any(p.updates > 0 for p in firefly)

    def test_table_renders(self, points):
        text = sweep_table(points, workload="hot-block")
        assert "msi" in text and "firefly" in text
        assert "bus/access" in text

    def test_metric_series_sorted_by_size(self, points):
        series = metric_series(points, "bus_per_access", workload="hot-block")
        assert set(series) == {"msi", "firefly"}
        for values in series.values():
            assert [n for n, _ in values] == [2, 4]

    def test_metric_lookup(self, points):
        point = points[0]
        assert point.metric("invalidations") == float(point.invalidations)


class TestMainMemory:
    def test_unwritten_block_is_zero(self):
        memory = MainMemory()
        assert memory.read(5) == 0
        assert memory.peek(5) == 0

    def test_write_then_read(self):
        memory = MainMemory()
        memory.write(5, 42)
        assert memory.read(5) == 42

    def test_counters(self):
        memory = MainMemory()
        memory.write(1, 2)
        memory.read(1)
        memory.peek(1)  # peek does not count
        assert memory.reads == 1
        assert memory.writes == 1


class TestGoldenChecker:
    def test_clean_read_passes(self):
        checker = GoldenChecker()
        checker.record_write(0, 7)
        access = Access(0, AccessKind.READ, 0)
        assert checker.check_read(0, access, 7) is None
        assert checker.checked == 1

    def test_stale_read_reported(self):
        checker = GoldenChecker()
        checker.record_write(0, 7)
        access = Access(1, AccessKind.READ, 0)
        violation = checker.check_read(3, access, 5)
        assert violation is not None
        assert violation.expected == 7
        assert violation.observed == 5
        assert violation.index == 3
        assert "version 5" in str(violation)

    def test_default_expected_is_zero(self):
        checker = GoldenChecker()
        assert checker.expected(9) == 0


class TestAccessValidation:
    def test_negative_pid_rejected(self):
        with pytest.raises(ValueError):
            Access(-1, AccessKind.READ, 0)

    def test_negative_addr_rejected(self):
        with pytest.raises(ValueError):
            Access(0, AccessKind.READ, -4)

    def test_lock_access_renders(self):
        assert str(Access(2, AccessKind.LOCK, 3)) == "P2 L 0x3"
        assert str(Access(2, AccessKind.UNLOCK, 3)) == "P2 U 0x3"


#: Package roots that re-export their submodules' public names.
PACKAGE_ROOTS = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.engine",
    "repro.enumeration",
    "repro.ir",
    "repro.kernel",
    "repro.lint",
    "repro.liveness",
    "repro.obs",
    "repro.protocols",
)


def _defined_in(value: object, name: str) -> list[str]:
    """The loaded ``repro`` modules, package roots aside, that bind
    ``name`` to ``value`` -- where a class or function was defined."""
    if isinstance(value, types.ModuleType):
        return [value.__name__]
    home = getattr(value, "__module__", None)
    if isinstance(home, str) and home.startswith("repro."):
        return [home] if getattr(sys.modules[home], name, None) is value else []
    return [
        module.__name__
        for module in list(sys.modules.values())
        if isinstance(module, types.ModuleType)
        and module.__name__.startswith("repro.")
        and not hasattr(module, "__path__")
        and vars(module).get(name) is value
    ]


class TestPackageSurface:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports(self):
        import repro.simulator

        for module in (
            *(importlib.import_module(root) for root in PACKAGE_ROOTS),
            repro.simulator,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    @pytest.mark.parametrize("root", PACKAGE_ROOTS)
    def test_exports_are_their_defining_objects(self, root):
        package = importlib.import_module(root)
        listing = dir(package)
        for name in package.__all__:
            if name == "__version__":
                continue
            value = getattr(package, name)
            assert _defined_in(value, name), (root, name)
            assert name in listing, (root, name)

    @pytest.mark.parametrize("root", PACKAGE_ROOTS)
    def test_star_import(self, root):
        namespace: dict = {}
        exec(f"from {root} import *", namespace)
        package = importlib.import_module(root)
        assert set(package.__all__) <= set(namespace)

    def test_one_theorem1_check_lives_in_enumeration(self):
        import repro.enumeration
        import repro.testkit
        from repro.testkit import diff

        oracle = (
            "OracleBudget",
            "OracleReport",
            "SymbolicView",
            "run_oracle",
            "symbolic_view",
        )
        assert {*oracle, "Finding", "is_instance"} <= set(repro.enumeration.__all__)
        assert not {"cross_validate", "CrossValResult"} & set(dir(repro.enumeration))
        for name in oracle:
            assert getattr(repro.testkit, name) is getattr(repro.enumeration, name)
        assert repro.testkit.Finding is diff.Finding is repro.enumeration.Finding

    def test_unknown_name_is_an_attribute_error(self):
        import repro.core

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.core.no_such_name

    def test_version(self):
        import repro

        assert repro.__version__
