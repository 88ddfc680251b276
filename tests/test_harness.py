import copy
import importlib
import json
import random

import pytest

import quasidet.catalog as catalog_module
from quasidet.catalog import (
    CATALOG,
    CheckContext,
    IdentityDescriptor,
    catalog,
    get_identity,
    identity,
)
from quasidet.harness import (
    RunConfig,
    identity_lines,
    load_report,
    replay_counterexample,
    replay_from_report,
    ring_for_dimension,
    run_identity,
    run_suite,
    write_report,
)
from quasidet.matrix import MatrixRing, NcMatrix, ring_from_spec
from quasidet.rings import SquareMatrices
from quasidet.sampling import Draw

FAST = RunConfig(seed=0xC0FFEE, samples=3)


def test_one_evaluation_ring_per_dimension():
    assert [ring_for_dimension(d).name for d in (1, 2, 3)] == ["Q", "M2(Q)", "M3(Q)"]
    assert all(ring_for_dimension(d) is ring_for_dimension(d) for d in (1, 2, 3))


def strip_timing(report):
    out = copy.deepcopy(report)
    out.pop("elapsed_s", None)
    return out


class TestCatalog:
    def test_census_at_least_thirty(self):
        assert len(catalog()) >= 30

    def test_ids_unique(self):
        ids = [d.ident for d in catalog()]
        assert len(ids) == len(set(ids))

    def test_expected_ids_present(self):
        ids = {d.ident for d in catalog()}
        for wanted in (
            "SYLVESTER",
            "GAUSS-DECOMP",
            "PROD-QPC",
            "CAYLEY-HAMILTON",
            "ROGERS-RAMANUJAN",
            "FALSE-QDET-ENTRY",
        ):
            assert wanted in ids

    def test_listing_mentions_every_id(self):
        text = "\n".join(identity_lines())
        for desc in catalog():
            assert desc.ident in text

    def test_every_descriptor_names_operations(self):
        for desc in catalog():
            assert desc.operations, desc.ident

    def test_every_operation_name_resolves(self):
        # the report pins these strings: each is a module, a module
        # attribute, or (under matrix) an NcMatrix method
        def resolves(name):
            mod, _, path = name.partition(".")
            obj = importlib.import_module(f"quasidet.{mod}")
            for part in path.split(".") if path else ():
                if not hasattr(obj, part):
                    return mod == "matrix" and hasattr(NcMatrix, path)
                obj = getattr(obj, part)
            return True

        names = {op for desc in catalog() for op in desc.operations}
        assert len(names) >= 57
        assert sorted(op for op in names if not resolves(op)) == []

    def test_identity_decorator_returns_check_and_rejects_duplicate_ids(self):
        before = list(CATALOG)
        fields = dict(
            ident="DECORATOR-PROBE",
            module="core",
            statement="probe",
            cells=((1, 1),),
            operations=("catalog.identity",),
        )

        def check(ctx):
            pass

        try:
            assert identity(**fields)(check) is check
            assert CATALOG[-1].ident == "DECORATOR-PROBE"
            assert CATALOG[-1].check is check
            registered = list(CATALOG)
            with pytest.raises(ValueError, match="duplicate identity id RING-AXIOMS"):
                identity(**{**fields, "ident": "RING-AXIOMS"})(check)
            assert CATALOG == registered
        finally:
            CATALOG[:] = before


class TestDeterminism:
    def test_identical_reports_for_identical_config(self):
        cfg = RunConfig(seed=123, samples=2, modules=["core", "harness"])
        a = run_suite(cfg)
        b = run_suite(cfg)
        assert strip_timing(a) == strip_timing(b)

    def test_seed_changes_draws(self):
        c1 = run_identity(get_identity("FALSE-QDET-ENTRY"), RunConfig(seed=1, samples=2))
        c2 = run_identity(get_identity("FALSE-QDET-ENTRY"), RunConfig(seed=2, samples=2))
        assert c1.counterexample["draws"] != c2.counterexample["draws"]

    def test_verdicts_independent_of_execution_order(self):
        # per-(identity, n, d, sample) streams make any scheduling
        # (parallel included) produce the verdicts of a serial run
        cfg = RunConfig(seed=31, samples=2, modules=["contfrac"])
        report = run_suite(cfg)
        idents = [e["id"] for e in report["identities"]]
        reversed_runs = {
            ident: run_identity(get_identity(ident), cfg).to_json()
            for ident in reversed(idents)
        }
        for entry in report["identities"]:
            solo = reversed_runs[entry["id"]]
            assert solo["status"] == entry["status"]
            assert solo["cells"] == entry["cells"]


class TestControls:
    def test_negative_controls_produce_counterexamples(self):
        for ident in ("FALSE-QDET-ENTRY", "FALSE-COMMUTE"):
            verdict = run_identity(get_identity(ident), FAST)
            assert verdict.status == "counterexample"

    def test_witness_entries_find_their_witnesses(self):
        for ident in ("ASYMM-Y1Y2", "ASYMM-S2-MISORDERED"):
            verdict = run_identity(get_identity(ident), RunConfig(seed=5, samples=20))
            assert verdict.status == "counterexample"

    def test_controls_meeting_expectation_exit_zero(self):
        report = run_suite(RunConfig(seed=9, samples=2, only=["FALSE-QDET-ENTRY"]))
        assert report["exit_code"] == 0
        assert report["identities"][0]["status"] == "counterexample"
        assert report["identities"][0]["met_expectation"]

    def test_vacuous_witness_cells_fail_the_run(self):
        # filtering away the only cell leaves the witness unfound
        report = run_suite(RunConfig(seed=9, samples=2, only=["ASYMM-Y1Y2"], dims=[1]))
        assert report["exit_code"] == 1
        assert not report["identities"][0]["met_expectation"]


def _live_record(ident, n, d, seed=1):
    """A counterexample-shaped record of one live run of ``ident``'s check
    at the cell (n, d); its replay finds no mismatch."""
    draw = Draw(random.Random(seed))
    get_identity(ident).check(CheckContext(draw=draw, ring=ring_for_dimension(d), n=n, d=d))
    return {"identity": ident, "n": n, "d": d, "draws": draw.log}


class TestReplay:
    def test_control_replays_bit_exactly(self):
        verdict = run_identity(get_identity("FALSE-QDET-ENTRY"), FAST)
        result = replay_counterexample(verdict.counterexample)
        assert result["reproduced"]
        assert result["lhs"] == verdict.counterexample["lhs"]

    def test_replay_across_serialization(self, tmp_path):
        cfg = RunConfig(seed=0xBEEF, samples=5, only=["FALSE-COMMUTE"])
        report = run_suite(cfg)
        path = tmp_path / "report.json"
        write_report(report, str(path))
        loaded = load_report(str(path))
        result = replay_from_report(loaded, "FALSE-COMMUTE")
        assert result["reproduced"]

    def test_written_bytes_match_json_dump(self, tmp_path):
        cfg = RunConfig(seed=0xBEEF, samples=2, only=["FALSE-COMMUTE", "RING-AXIOMS"])
        report = run_suite(cfg)
        report["config"]["note"] = "non-ASCII \u00e9 and \u2211"
        path, ref = tmp_path / "report.json", tmp_path / "reference.json"
        write_report(report, str(path))
        with open(ref, "w") as handle:
            json.dump(report, handle, sort_keys=True)
            handle.write("\n")
        assert path.read_bytes() == ref.read_bytes()

    def test_indented_report_of_earlier_versions_still_replays(self, tmp_path):
        report = run_suite(RunConfig(seed=0xBEEF, samples=5, only=["FALSE-COMMUTE"]))
        path, indented = tmp_path / "report.json", tmp_path / "indented.json"
        write_report(report, str(path))
        assert path.read_text().count("\n") == 1
        with open(indented, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        loaded = load_report(str(indented))
        assert loaded == load_report(str(path))
        assert replay_from_report(loaded, "FALSE-COMMUTE")["reproduced"]

    def test_records_left_unread_are_a_replay_mismatch(self):
        verdict = run_identity(get_identity("FALSE-COMMUTE"), FAST)
        record = copy.deepcopy(verdict.counterexample)
        record["draws"].append({"t": "int", "v": 1})
        with pytest.raises(ValueError, match="1 record\\(s\\) left unread"):
            replay_counterexample(record)

    def test_records_left_after_a_check_that_passes_are_a_replay_mismatch(self):
        def check(ctx):
            x = ctx.draw.scalar(ctx.ring)
            ctx.compare("equal", x, x)

        desc = IdentityDescriptor(
            ident="SYNTHETIC-PASS", module="harness", statement="passes", cells=((0, 1),),
            check=check,
        )
        draws = [{"t": "scalar", "ring": {"kind": "rationals"}, "v": "1/2"}]
        record = {"identity": desc.ident, "n": 0, "d": 1, "draws": draws}
        assert replay_counterexample(record, desc)["label"] == "no-mismatch-on-replay"
        with pytest.raises(ValueError, match="left unread"):
            replay_counterexample({**record, "draws": draws * 2}, desc)

    @pytest.mark.parametrize(
        "field,value",
        [("d", "2"), ("d", [2]), ("d", True), ("d", 0), ("d", 2.0), ("n", -1), ("n", "0"), ("n", False)],
    )
    def test_cell_of_the_wrong_type_is_a_value_error(self, field, value):
        record = copy.deepcopy(run_identity(get_identity("FALSE-COMMUTE"), FAST).counterexample)
        record[field] = value
        with pytest.raises(ValueError, match="int n >= 0 and d >= 1"):
            replay_counterexample(record)

    @pytest.mark.parametrize(
        "report",
        [[], {"identities": {"FALSE-COMMUTE": {}}}, {"identities": None}, {}],
        ids=["list", "identities-object", "identities-null", "no-identities"],
    )
    def test_report_of_the_wrong_shape_is_a_value_error(self, report):
        with pytest.raises(ValueError, match="list of identities"):
            replay_from_report(report, "FALSE-COMMUTE")

    @pytest.mark.parametrize("record", [[], None, "FALSE-COMMUTE"], ids=["list", "null", "string"])
    def test_counterexample_that_is_not_an_object_is_a_value_error(self, record):
        with pytest.raises(ValueError, match="JSON object"):
            replay_counterexample(record)

    @pytest.mark.parametrize(
        "draws", [None, {"t": "int", "v": 0}, "draws", 7], ids=["null", "object", "string", "int"]
    )
    def test_draw_log_that_is_not_a_list_is_a_value_error(self, draws):
        record = copy.deepcopy(run_identity(get_identity("FALSE-COMMUTE"), FAST).counterexample)
        record["draws"] = draws
        with pytest.raises(ValueError, match="list of records"):
            replay_counterexample(record)

    @pytest.mark.parametrize(
        "first", [7, ["scalar"], {"v": "1"}, "scalar"], ids=["int", "list", "no-t", "string"]
    )
    def test_record_that_is_not_an_object_with_a_string_t_is_a_replay_mismatch(self, first):
        record = copy.deepcopy(run_identity(get_identity("FALSE-COMMUTE"), FAST).counterexample)
        record["draws"][0] = first
        with pytest.raises(ValueError, match="record 0 is not an object with a string t"):
            replay_counterexample(record)

    @pytest.mark.parametrize(
        "value", [0.5, 1.0, "1", True], ids=["half", "float-one", "string", "true"]
    )
    def test_int_record_of_another_type_is_a_replay_mismatch(self, value):
        record = _live_record("QDET-DEF-AGREE", 2, 1)
        assert replay_counterexample(record)["label"] == "no-mismatch-on-replay"
        pos, first_int = next((i, r) for i, r in enumerate(record["draws"]) if r["t"] == "int")
        first_int["v"] = value
        with pytest.raises(ValueError, match=f"int record {pos} does not fit"):
            replay_counterexample(record)

    @pytest.mark.parametrize(
        "value", [[1, 2.0], [True, 2], 12, None], ids=["float", "true", "int", "null"]
    )
    def test_ints_record_with_a_non_int_is_a_replay_mismatch(self, value):
        record = _live_record("HOMOLOGICAL-ROW", 3, 1)
        assert replay_counterexample(record)["label"] == "no-mismatch-on-replay"
        pos, ints = next((i, r) for i, r in enumerate(record["draws"]) if r["t"] == "ints")
        ints["v"] = value
        with pytest.raises(ValueError, match=f"ints record {pos} does not fit"):
            replay_counterexample(record)

    @pytest.mark.parametrize("value", [7, ["1", "2"], None], ids=["int", "list", "null"])
    def test_matrix_record_that_is_not_an_object_is_a_replay_mismatch(self, value):
        record = _live_record("QDET-DEF-AGREE", 2, 1)
        assert record["draws"][0]["t"] == "matrix"
        record["draws"][0]["v"] = value
        with pytest.raises(ValueError, match="matrix record 0 does not fit"):
            replay_counterexample(record)

    def test_synthetic_injected_mismatch(self):
        # a one-off descriptor whose check always mis-compares: the
        # recorded draw log must replay to the same mismatch
        def check(ctx):
            x = ctx.draw.scalar(ctx.ring)
            ctx.compare("off-by-one", x, x + ctx.ring.one)

        desc = IdentityDescriptor(
            ident="SYNTHETIC-MISMATCH",
            module="harness",
            statement="synthetic control",
            cells=((0, 1),),
            check=check,
            expect="counterexample",
            operations=("none",),
        )
        CATALOG.append(desc)
        try:
            verdict = run_identity(desc, FAST)
            assert verdict.status == "counterexample"
            result = replay_counterexample(verdict.counterexample)
            assert result["reproduced"]
        finally:
            CATALOG.remove(desc)

    def test_missing_counterexample_raises(self):
        report = run_suite(RunConfig(seed=9, samples=1, only=["RING-AXIOMS"]))
        with pytest.raises(KeyError):
            replay_from_report(report, "RING-AXIOMS")


def _plant_fault(monkeypatch, ident):
    """Make ``ident``'s check raise after its draws, as a slip in a kernel would."""
    desc = get_identity(ident)
    original = desc.check

    def check(ctx):
        original(ctx)
        raise ZeroDivisionError(f"planted fault at d={ctx.d}")

    monkeypatch.setattr(desc, "check", check)
    return desc


class TestErrorIsolation:
    def test_fault_in_a_check_is_an_error_verdict(self, monkeypatch):
        desc = _plant_fault(monkeypatch, "QDET-DEF-AGREE")
        verdict = run_identity(desc, RunConfig(samples=2, dims=[2]))
        assert verdict.status == "error"
        assert verdict.attempted == 1 and verdict.succeeded == 0
        assert verdict.cells[-1]["status"] == "error"
        record = verdict.counterexample
        assert record["error"] == {
            "type": "ZeroDivisionError",
            "message": "planted fault at d=2",
        }
        assert record["draws"] and (record["d"], record["sample"]) == (2, 0)

    def test_fault_fails_the_run_and_later_identities_still_run(self, monkeypatch):
        _plant_fault(monkeypatch, "RING-AXIOMS")
        only = ["RING-AXIOMS", "SERIES-INVERSION", "QDET-DEF-AGREE"]
        report = run_suite(RunConfig(samples=1, only=only))
        # the faulted identity comes first in catalog order
        assert [e["id"] for e in report["identities"]] == only
        statuses = [e["status"] for e in report["identities"]]
        assert statuses == ["error", "verified", "verified"]
        assert report["summary"]["unexpected"] == ["RING-AXIOMS"]
        assert report["exit_code"] == 1

    def test_replay_of_an_error_raises_the_same_exception(self, monkeypatch, tmp_path):
        _plant_fault(monkeypatch, "QDET-DEF-AGREE")
        report = run_suite(RunConfig(samples=1, only=["QDET-DEF-AGREE"]))
        path = tmp_path / "report.json"
        write_report(report, str(path))
        with pytest.raises(ZeroDivisionError, match="planted fault"):
            replay_from_report(load_report(str(path)), "QDET-DEF-AGREE")


class TestCellRings:
    def test_d1_cells_never_build_m1(self, monkeypatch):
        # a d = 1 cell samples Q as Rationals; every ring its check
        # derives must come from that ring, not from a SquareMatrices(1)
        init = SquareMatrices.__init__

        def refuse_d1(self, d):
            if d == 1:
                raise AssertionError("a d = 1 cell built SquareMatrices(1)")
            init(self, d)

        monkeypatch.setattr(SquareMatrices, "__init__", refuse_d1)
        config = RunConfig(samples=1, dims=[1])
        errors = {}
        for desc in CATALOG:
            if any(d == 1 for _, d in desc.cells):
                verdict = run_identity(desc, config)
                if verdict.status == "error":
                    errors[desc.ident] = verdict.counterexample["error"]["message"]
        assert errors == {}


class TestMatrixComparisons:
    def test_counterexample_stores_the_compared_matrices(self, monkeypatch):
        real = catalog_module.hadamard_inverse

        def planted(A):
            # one added to every entry: no longer an involution
            H = real(A)
            shifted = [[x + A.ring.one for x in row] for row in H.entries]
            return NcMatrix(A.ring, shifted, H.row_labels, H.col_labels)

        monkeypatch.setattr(catalog_module, "hadamard_inverse", planted)
        verdict = run_identity(get_identity("HADAMARD-INVOLUTION"), RunConfig(samples=1, dims=[2]))
        assert verdict.status == "counterexample"
        record = json.loads(json.dumps(verdict.counterexample))
        assert record["label"] == "involution"
        R = ring_from_spec(record["ring"])
        assert isinstance(R, MatrixRing) and R.n == record["n"]
        assert R.base.spec() == SquareMatrices(2).spec()
        # rhs is the drawn matrix, lhs the planted map applied to it twice
        A, HH = R.deserialize(record["rhs"]), R.deserialize(record["lhs"])
        assert HH == planted(planted(A)) and HH != A
        assert replay_counterexample(record)["reproduced"]


class TestRunSemantics:
    def test_unknown_identity_rejected(self):
        with pytest.raises(KeyError):
            run_suite(RunConfig(only=["NOT-AN-ID"]))

    @pytest.mark.parametrize("field", ["samples"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_nonpositive_sample_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("filters", [{"dims": [7]}, {"sizes": [99]}])
    def test_identity_left_without_cells_is_not_verified(self, filters):
        report = run_suite(RunConfig(seed=3, samples=1, only=["QDET-DEF-AGREE"], **filters))
        entry = report["identities"][0]
        assert entry["status"] == "no_cells"
        assert entry["cells"] == [] and entry["attempted"] == 0
        assert not entry["met_expectation"]
        assert report["summary"]["verified"] == 0
        assert report["summary"]["unexpected"] == ["QDET-DEF-AGREE"]
        assert report["exit_code"] == 1

    def test_filters_by_module(self):
        report = run_suite(RunConfig(seed=3, samples=1, modules=["contfrac"]))
        assert report["identities"]
        assert all(e["module"] == "contfrac" for e in report["identities"])

    def test_cells_record_successes(self):
        verdict = run_identity(get_identity("QDET-CLOSED-FORMS"), FAST)
        assert verdict.cells
        for cell in verdict.cells:
            assert cell["succeeded"] >= 1 or cell["status"] == "domain_exhausted"

    def test_non_vacuity_bookkeeping(self):
        verdict = run_identity(get_identity("CRAMER"), FAST)
        for cell in verdict.cells:
            assert cell["attempted"] >= cell["succeeded"] >= 1

    def test_report_schema_fields(self):
        report = run_suite(RunConfig(seed=3, samples=1, only=["RING-AXIOMS"]))
        assert report["schema_version"] == 1
        assert set(report["summary"]) == {
            "total",
            "verified",
            "counterexamples",
            "domain_exhausted",
            "unexpected",
        }
        entry = report["identities"][0]
        assert {"id", "module", "statement", "status", "cells"} <= set(entry)
        json.dumps(report)  # JSON-serializable end to end


class TestRepeatedQuasideterminants:
    # a repeat is a minor-inverse call on a (labels, entries, pivot) key that
    # the same identity already computed; what is left is a direct route
    # recomputing a value its compared route also holds, and 1 x 1 entries
    # that recur across samples
    @pytest.mark.parametrize(
        "ident,repeats",
        [("ALMOST-TRIANGULAR-QDET", 16), ("BEZOUT-FACTOR", 10), ("S-ROUTE-AGREE", 0)],
    )
    def test_repeat_count_is_pinned(self, ident, repeats, monkeypatch):
        qdet_module = importlib.import_module("quasidet.qdet")
        minor_inverse = qdet_module._qdet_minor_inverse
        seen, counts = set(), {"calls": 0, "repeats": 0}

        def counting(A, p, q):
            key = (A.row_labels, A.col_labels, A.entries, p, q)
            counts["calls"] += 1
            counts["repeats"] += key in seen
            seen.add(key)
            return minor_inverse(A, p, q)

        monkeypatch.setattr(qdet_module, "_qdet_minor_inverse", counting)
        verdict = run_identity(get_identity(ident), RunConfig(samples=2, dims=[1, 2]))
        assert verdict.status == "verified"
        assert counts["calls"] > 0
        assert counts["repeats"] == repeats
