"""The repro.analysis suite: determinism lint, pickle safety, contracts, sanitizer.

Lock-down for the project-specific static analysis (DESIGN.md section 12):

* **Rule fixtures**: one snippet per DET rule, including *verbatim*
  regression fixtures re-introducing PR 1's ``id()``-keyed dimensioner
  cache and PR 2's ``hash()``-based policy RNG -- the two shipped
  determinism bugs this lint exists to catch.
* **Suppressions and baseline**: reasoned ``# repro: noqa`` comments
  silence findings, malformed/unused ones are themselves findings, and
  the committed baseline keeps CI failing only on *new* findings.
* **Pickle safety**: hazardous attributes on pool-boundary classes are
  flagged through the static closure; ``__getstate__`` classes are
  trusted; the real source tree is clean.
* **Contracts**: the real replay loops satisfy the documented event
  ordering, and a fixture copy with fault/sample ordering swapped fails.
* **Sanitizer**: deliberately corrupted engine/ledger state trips the
  ``REPRO_SANITIZE`` invariants; clean replay sequences do not.
"""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.contracts import check_contracts, check_pump
from repro.analysis.det_rules import lint_source
from repro.analysis.findings import (
    Finding,
    diff_against_baseline,
    load_baseline,
    parse_suppressions,
    write_baseline,
)
from repro.analysis.perf_floors import check_perf_floors, check_reports
from repro.analysis.pickle_safety import check_pickle_safety
from repro.analysis import sanitizer
from repro.cluster.engine import ArrayPlacementEngine
from repro.cluster.pool_topology import PoolGroupLedger
from repro.cluster.server import ServerConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def rules_of(findings):
    return [f.rule for f in findings]


def lint(snippet, suppress=True):
    return lint_source(textwrap.dedent(snippet), "fixture.py",
                       suppress=suppress)


class TestDetRules:
    def test_det001_hash_call(self):
        findings = lint("key = hash((vm_id, seed)) % 1024\n")
        assert rules_of(findings) == ["DET001"]

    def test_det002_direct_id_key(self):
        findings = lint("cache[id(trace)] = value\n")
        assert rules_of(findings) == ["DET002"]

    def test_det002_tainted_name(self):
        findings = lint("""\
            def f(self, trace):
                key = id(trace)
                if key not in self._cache:
                    self._cache[key] = compute(trace)
                return self._cache[key]
            """)
        assert rules_of(findings).count("DET002") >= 2

    def test_det003_unseeded(self):
        assert rules_of(lint(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )) == ["DET003"]
        assert rules_of(lint(
            "rng = np.random.default_rng(None)\n")) == ["DET003"]

    def test_det003_optional_param_flagged(self):
        findings = lint("""\
            def f(seed=None):
                return np.random.default_rng(seed)
            """)
        assert rules_of(findings) == ["DET003"]

    def test_det003_narrowed_by_early_return(self):
        findings = lint("""\
            def f(seed=None):
                if seed is None:
                    return None
                return np.random.default_rng(seed)
            """)
        assert findings == []

    def test_det003_narrowed_by_guard(self):
        findings = lint("""\
            def f(seed=None):
                if seed is not None:
                    return np.random.default_rng(seed)
                return None
            """)
        assert findings == []

    def test_det004_conditional_fallback(self):
        findings = lint("""\
            def f(seed=None):
                rng = np.random.default_rng(seed) if seed is not None else None
                return rng
            """)
        assert rules_of(findings) == ["DET004"]

    def test_det005_set_iteration(self):
        findings = lint("""\
            def f(items):
                out = []
                for item in set(items):
                    out.append(item)
                return out
            """)
        assert rules_of(findings) == ["DET005"]
        assert rules_of(lint("order = list({1, 2, 3})\n")) == ["DET005"]

    def test_det005_sorted_exempt(self):
        assert lint("order = sorted(set(items))\n") == []
        assert lint("total = sum(set(items))\n") == []

    def test_det006_wall_clock(self):
        findings = lint("import time\nstamp = time.time()\n")
        assert rules_of(findings) == ["DET006"]
        assert lint("import time\nt0 = time.perf_counter()\n") == []

    def test_det007_dict_view(self):
        findings = lint("""\
            def f(mapping):
                out = []
                for key, value in mapping.items():
                    out.append(value)
                return out
            """)
        assert rules_of(findings) == ["DET007"]


class TestRegressionFixtures:
    """The two shipped determinism bugs, re-introduced verbatim."""

    PR1_ID_CACHE = """\
        class UniformPoolDimensioner:
            def _core_only_rejections(self, trace):
                key = id(trace)
                if key not in self._rejection_cache:
                    result = self._simulate(trace, None, 0, float("inf"), None)
                    self._rejection_cache[key] = result.rejected_vms
                return self._rejection_cache[key]

            def peak_baseline_required_dram_gb(self, trace):
                key = ("peak", id(trace))
                if key not in self._baseline_cache:
                    result = self._simulate(trace, None, 0, 0.0, None)
                    self._baseline_cache[key] = result.uniform_required_local_dram_gb
                return self._baseline_cache[key]
        """

    PR2_HASH_RNG = """\
        class StaticFractionPolicy:
            def _vm_rng(self, record):
                digest = abs(hash((record.vm_id, self.seed))) % (2**32)
                return np.random.default_rng(digest)
        """

    def test_pr1_id_keyed_cache_detected(self):
        findings = lint(self.PR1_ID_CACHE)
        det002 = [f for f in findings if f.rule == "DET002"]
        assert det002, "PR 1's id()-keyed cache must be flagged"
        # Both the tainted `key = id(trace)` uses and the tuple key.
        assert len(det002) >= 3

    def test_pr2_hash_rng_detected(self):
        findings = lint(self.PR2_HASH_RNG)
        assert "DET001" in rules_of(findings), \
            "PR 2's hash()-derived RNG digest must be flagged"


class TestSuppressions:
    def test_valid_suppression_silences(self):
        findings = lint(
            "cache[id(node)] = 1  "
            "# repro: noqa DET002 -- node pinned alive by the tree\n"
        )
        assert findings == []

    def test_missing_reason_is_noq001(self):
        findings = lint("cache[id(node)] = 1  # repro: noqa DET002\n")
        assert set(rules_of(findings)) == {"DET002", "NOQ001"}

    def test_unused_suppression_is_noq002(self):
        findings = lint("x = 1  # repro: noqa DET001 -- stale excuse\n")
        assert rules_of(findings) == ["NOQ002"]

    def test_docstring_mention_is_not_a_suppression(self):
        source = '"""Docs: use ``# repro: noqa DET001 -- reason``."""\n'
        assert parse_suppressions(source) == {}
        assert lint(source) == []

    def test_wrong_code_does_not_silence(self):
        findings = lint(
            "cache[id(node)] = 1  # repro: noqa DET001 -- wrong code\n")
        assert "DET002" in rules_of(findings)


class TestBaseline:
    def test_roundtrip_and_diff(self, tmp_path):
        findings = lint("key = hash(name)\n", suppress=False)
        path = tmp_path / "baseline.json"
        write_baseline(findings, path)
        baseline = load_baseline(path)
        assert diff_against_baseline(findings, baseline) == []
        extra = findings + [Finding("DET001", "fixture.py", 9,
                                    "new", snippet="other = hash(x)")]
        new = diff_against_baseline(extra, baseline)
        assert [f.snippet for f in new] == ["other = hash(x)"]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_committed_baseline_matches_tree(self):
        """`repro.analysis lint src` must exit clean against the repo root
        baseline -- the acceptance gate the CI lint job enforces."""
        from repro.analysis.det_rules import lint_paths

        repo = SRC.parent
        findings = lint_paths([SRC])
        baseline = load_baseline(repo / "repro_analysis_baseline.json")
        new = diff_against_baseline(findings, baseline)
        assert new == [], "\n".join(f.format() for f in new)


class TestPickleSafety:
    def _tree(self, tmp_path, root_body, child_body=""):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text('"""fixture package."""\n')
        (pkg / "root.py").write_text(textwrap.dedent(root_body))
        if child_body:
            (pkg / "child.py").write_text(textwrap.dedent(child_body))
        return tmp_path

    def test_lock_and_rng_hazards_through_closure(self, tmp_path):
        root = self._tree(
            tmp_path,
            """\
            import threading
            from pkg.child import Child

            class Root:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.child = Child()
            """,
            """\
            import numpy as np

            class Child:
                def __init__(self, seed=0):
                    self._rng = np.random.default_rng(seed)

            class Scrubbed:
                def __init__(self):
                    self._rng = np.random.default_rng(0)

                def __getstate__(self):
                    return {}
            """,
        )
        findings = check_pickle_safety(root, roots=("pkg.root.Root",))
        rules = rules_of(findings)
        assert "PCK002" in rules  # the lock on Root
        assert "PCK004" in rules  # Child._rng, reached via the closure
        assert not any("Scrubbed" in f.message for f in findings)

    def test_getstate_trusted(self, tmp_path):
        root = self._tree(tmp_path, """\
            import numpy as np

            class Root:
                def __init__(self):
                    self._rng = np.random.default_rng(7)

                def __getstate__(self):
                    return {k: v for k, v in self.__dict__.items()
                            if k != "_rng"}
            """)
        assert check_pickle_safety(root, roots=("pkg.root.Root",)) == []

    def test_weakref_and_stored_generator(self, tmp_path):
        root = self._tree(tmp_path, """\
            import weakref

            class Root:
                def __init__(self, obj):
                    self.ref = weakref.ref(obj)
                    self.gen = (x for x in range(3))
                    self.items = tuple(x for x in range(3))
            """)
        findings = check_pickle_safety(root, roots=("pkg.root.Root",))
        assert sorted(rules_of(findings)) == ["PCK001", "PCK003"]

    def test_unknown_root_is_pck005(self, tmp_path):
        root = self._tree(tmp_path, "class Root:\n    pass\n")
        findings = check_pickle_safety(root, roots=("pkg.root.Missing",))
        assert rules_of(findings) == ["PCK005"]

    def test_real_pool_boundary_closure_is_clean(self):
        assert check_pickle_safety(SRC) == []


class TestContracts:
    POOL_TOPOLOGY = SRC / "repro" / "cluster" / "pool_topology.py"

    def mutated_pump(self, tmp_path, mutate):
        """A copy of the real pool_topology.py after ``mutate``."""
        source = self.POOL_TOPOLOGY.read_text()
        mutated = mutate(source)
        assert mutated != source, "anchor text changed; update this test"
        fixture = tmp_path / "pool_topology_mutated.py"
        fixture.write_text(mutated)
        return fixture

    def test_real_loops_pass(self):
        assert check_pump(self.POOL_TOPOLOGY) == []
        assert check_contracts() == []

    def test_swapped_fault_sample_ordering_fails(self, tmp_path):
        """Swapping the fault and sample heap priorities in a copy of the
        real pump module must fail the checker (acceptance criterion)."""
        def swap(source):
            return (source.replace("_KIND_FAULT = 1", "_KIND_FAULT = @")
                    .replace("_KIND_SAMPLE = 2", "_KIND_SAMPLE = 1")
                    .replace("_KIND_FAULT = @", "_KIND_FAULT = 2"))
        findings = check_pump(self.mutated_pump(tmp_path, swap))
        assert "ORD005" in rules_of(findings)

    def test_sample_arm_order_swap_fails(self, tmp_path):
        """Moving the QoS tick ahead of take_sample in a copy of the real
        pump must fail ORD007."""
        def move_qos_tick(source):
            source, removed = re.subn(
                r"\n\s+if mitigate:\n(?:\s+#.*\n)*\s+qos_tick\(shard\)\n",
                "\n", source, count=1)
            assert removed == 1
            anchor = "                take_sample(shard, event[0])\n"
            assert source.count(anchor) == 1
            return source.replace(
                anchor, "                qos_tick(shard)\n" + anchor)
        findings = check_pump(self.mutated_pump(tmp_path, move_qos_tick))
        assert "ORD007" in rules_of(findings)

    def test_missing_anchor_fails_loudly(self, tmp_path):
        fixture = tmp_path / "empty.py"
        fixture.write_text("x = 1\n")
        assert "ORD001" in rules_of(check_pump(fixture))

    PUMP_TEMPLATE = """\
        _KIND_DEPARTURE = {dep}
        _KIND_FAULT = {fault}
        _KIND_SAMPLE = {sample}
        _KIND_HORIZON = 3
        _KIND_ARRIVAL = 4

        def _replay_crossshard_events():
            def pump(limit):
                while events and events[0] < limit:
                    event = heappop(events)
                    kind = event[1]
                    if kind == _KIND_DEPARTURE:
                        injector.on_departure(event[4])
                    elif kind == _KIND_FAULT:
                        injector.fire_next()
                    elif kind == _KIND_SAMPLE:
                        take_sample(shard, event[0])
                        heappush(events, (event[0] + s, _KIND_SAMPLE, shard))
                        if mitigate:
                            qos_tick(shard)
                        if injector is not None:
                            injector.retry_tick(shard)
                    else:
                        done[shard] = True
        """

    def test_minimal_pump_fixture_passes(self, tmp_path):
        fixture = tmp_path / "pump.py"
        fixture.write_text(textwrap.dedent(
            self.PUMP_TEMPLATE.format(dep=0, fault=1, sample=2)))
        assert check_pump(fixture) == []

    def test_sample_dispatched_before_fault_fails(self, tmp_path):
        source = textwrap.dedent(
            self.PUMP_TEMPLATE.format(dep=0, fault=1, sample=2))
        fault_arm = source[source.index("        elif kind == _KIND_FAULT:"):
                           source.index("        elif kind == _KIND_SAMPLE:")]
        sample_arm = source[source.index("        elif kind == _KIND_SAMPLE:"):
                            source.index("        else:")]
        swapped = source.replace(fault_arm + sample_arm,
                                 sample_arm + fault_arm)
        assert swapped != source
        fixture = tmp_path / "pump.py"
        fixture.write_text(swapped)
        assert "ORD006" in rules_of(check_pump(fixture))

    def test_kind_priority_swap_fails(self, tmp_path):
        fixture = tmp_path / "pump.py"
        fixture.write_text(textwrap.dedent(
            self.PUMP_TEMPLATE.format(dep=0, fault=2, sample=1)))
        assert "ORD005" in rules_of(check_pump(fixture))


@pytest.fixture
def sanitized():
    sanitizer.install()
    try:
        yield
    finally:
        sanitizer.uninstall()


def make_engine(pool_capacity=100.0):
    config = ServerConfig(name="san", sockets=2, cores_per_socket=8,
                          dram_per_socket_gb=32.0)
    return ArrayPlacementEngine(
        2, config, group_of=[0, 0], pool_free_gb={0: pool_capacity},
    )


class TestSanitizer:
    def test_clean_sequence_passes(self, sanitized):
        engine = make_engine()
        handle = engine.place(2, 8.0, 4.0)
        assert handle >= 0
        assert engine.migrate_pool_to_local(handle) >= 0.0
        engine.remove(handle)

    def test_double_remove_trips(self, sanitized):
        engine = make_engine()
        handle = engine.place(2, 8.0, 4.0)
        engine.remove(handle)
        with pytest.raises(sanitizer.SanitizerError, match="already free"):
            engine.remove(handle)

    def test_corrupted_pool_used_trips(self, sanitized):
        engine = make_engine()
        engine.pool_used_gb[0] = -5.0
        with pytest.raises(sanitizer.SanitizerError, match="negative"):
            engine.place(2, 8.0, 4.0)

    def test_conservation_drift_trips(self, sanitized):
        ledger = PoolGroupLedger({0: 100.0})
        config = ServerConfig(name="san", sockets=2, cores_per_socket=8,
                              dram_per_socket_gb=32.0)
        engine = ArrayPlacementEngine(
            2, config, group_of=[0, 0],
            pool_free_gb=ledger.free_gb, pool_used_gb=ledger.used_gb,
            pool_peak_gb=ledger.peak_gb,
        )
        # A corrupted ledger: free credited without a matching used debit.
        ledger.free_gb[0] += 7.0
        with pytest.raises(sanitizer.SanitizerError, match="drifted"):
            engine.place(2, 8.0, 4.0)

    def test_corrupted_ledger_trips_on_degrade(self, sanitized):
        ledger = PoolGroupLedger({0: 100.0})
        ledger.used_gb[0] = -3.0
        with pytest.raises(sanitizer.SanitizerError, match="negative"):
            ledger.degrade(0, 0.5)

    def test_degraded_group_transient_is_tolerated(self, sanitized):
        """The documented fault protocol: unmediated frees on a degraded
        group are legal until the injector's resync re-clamps."""
        ledger = PoolGroupLedger({0: 100.0})
        config = ServerConfig(name="san", sockets=2, cores_per_socket=8,
                              dram_per_socket_gb=32.0)
        engine = ArrayPlacementEngine(
            2, config, group_of=[0, 0],
            pool_free_gb=ledger.free_gb, pool_used_gb=ledger.used_gb,
            pool_peak_gb=ledger.peak_gb,
        )
        handle = engine.place(2, 8.0, 10.0)
        ledger.degrade(0, 1.0)  # total group loss: capacity pinned to 0
        engine.remove(handle)  # unmediated free += on the dead group
        ledger.resync(0)

    def test_uninstall_restores(self):
        sanitizer.install()
        sanitizer.uninstall()
        assert not sanitizer.is_installed()
        engine = make_engine()
        handle = engine.place(2, 8.0, 0.0)
        engine.remove(handle)
        # Unwrapped path: whatever the raw engine does on a double remove,
        # it is no longer the sanitizer's structured diagnosis.
        with pytest.raises(Exception) as excinfo:
            engine.remove(handle)
        assert not isinstance(excinfo.value, sanitizer.SanitizerError)


class TestPerfFloors:
    def _report(self, tmp_path, name="demo", **extra):
        payload = {
            "benchmark": name, "smoke": True, "unix_time": 0.0,
            "python": "3", "platform": "test", "cpu_count": 1, **extra,
        }
        path = tmp_path / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload))
        return path

    def test_ok_and_floor_violation(self, tmp_path):
        self._report(tmp_path, speedup=2.0, speedup_floor=1.5)
        assert check_reports([tmp_path], emit=lambda _line: None) == 0
        self._report(tmp_path, name="slow", speedup=1.0, speedup_floor=1.5)
        assert check_reports([tmp_path], emit=lambda _line: None) == 1

    def test_required_report_missing_fails(self, tmp_path):
        self._report(tmp_path)
        assert check_reports([tmp_path], require=["absent"],
                             emit=lambda _line: None) == 1
        assert check_reports([tmp_path], require=["demo"],
                             emit=lambda _line: None) == 0

    def test_skipped_floor_with_reason_passes(self):
        report = {"speedup": 1.2, "speedup_floor_skipped": "2 CPUs"}
        assert check_perf_floors(report, "r") == []

    @pytest.mark.parametrize("reason", ["", "   ", None, 1.5])
    def test_skipped_floor_needs_reason_string(self, reason):
        with pytest.raises(ValueError, match="non-empty reason"):
            check_perf_floors(
                {"speedup": 1.2, "speedup_floor_skipped": reason}, "r")

    def test_floor_and_skip_together_rejected(self):
        with pytest.raises(ValueError, match="either asserted or skipped"):
            check_perf_floors({"speedup": 2.0, "speedup_floor": 1.5,
                               "speedup_floor_skipped": "2 CPUs"}, "r")

    def test_skipped_floor_report_on_disk(self, tmp_path):
        self._report(tmp_path, speedup=1.2,
                     speedup_floor_skipped="smoke mode")
        assert check_reports([tmp_path], emit=lambda _line: None) == 0
        self._report(tmp_path, name="both", speedup=1.2, speedup_floor=1.0,
                     speedup_floor_skipped="smoke mode")
        assert check_reports([tmp_path], emit=lambda _line: None) == 1


class TestCLI:
    def test_lint_subcommand_exit_codes(self, tmp_path):
        from repro.analysis.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("key = hash(name)\n")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 1
        assert main(["lint", str(bad), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 0

    def test_contracts_subcommand_clean(self):
        from repro.analysis.cli import main

        assert main(["contracts"]) == 0

    def test_explain_knows_every_rule(self):
        from repro.analysis.cli import main

        assert main(["explain"]) == 0
        assert main(["explain", "DET002", "PCK004", "ORD005"]) == 0
        assert main(["explain", "ZZZ999"]) == 1
