"""Protocol layer: request validation and content-addressed sweep identity."""

from __future__ import annotations

import json

import pytest

from repro.exec.journal import grid_digest
from repro.exec.sweep import expand_grid, grid_key
from repro.serve.protocol import RequestError, SweepRequest, cell_event, status_event
from repro.sim.config import CACHE_BACKENDS, DEFAULT_CACHE_BACKEND

TINY = {
    "apps": ["ft"],
    "policies": ["shared", "static-equal"],
    "intervals": 3,
    "interval_instructions": 2000,
}


class TestValidation:
    def test_minimal_request_parses_with_defaults(self):
        req = SweepRequest.from_dict(TINY)
        assert req.apps == ("ft",)
        assert req.policies == ("shared", "static-equal")
        assert req.seeds == (1,)
        assert req.thread_counts == (4,)
        assert req.baseline == "shared"
        assert req.client == "anonymous"
        assert req.resume is True

    def test_non_object_body_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            SweepRequest.from_dict([1, 2, 3])

    def test_missing_apps_rejected(self):
        with pytest.raises(RequestError, match="'apps'"):
            SweepRequest.from_dict({"policies": ["shared"]})

    def test_unknown_workload_rejected_with_known_list(self):
        with pytest.raises(RequestError, match="unknown workloads: nope"):
            SweepRequest.from_dict({**TINY, "apps": ["nope"]})

    def test_unknown_policy_rejected(self):
        with pytest.raises(RequestError, match="unknown policies: bogus"):
            SweepRequest.from_dict({**TINY, "policies": ["bogus"]})

    def test_baseline_must_be_swept(self):
        with pytest.raises(RequestError, match="baseline 'model-based' is not among"):
            SweepRequest.from_dict({**TINY, "baseline": "model-based"})

    def test_baseline_defaults_to_first_policy_without_shared(self):
        req = SweepRequest.from_dict({**TINY, "policies": ["static-equal", "throughput"]})
        assert req.baseline == "static-equal"

    def test_bad_seed_list_rejected(self):
        with pytest.raises(RequestError, match="'seeds'"):
            SweepRequest.from_dict({**TINY, "seeds": ["one"]})

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(RequestError, match="'seeds'"):
            SweepRequest.from_dict({**TINY, "seeds": [True]})

    def test_zero_thread_count_rejected(self):
        with pytest.raises(RequestError, match="'thread_counts'"):
            SweepRequest.from_dict({**TINY, "thread_counts": [0]})

    def test_bad_backend_rejected(self):
        with pytest.raises(RequestError, match="cache_backend"):
            SweepRequest.from_dict({**TINY, "cache_backend": "magic"})

    @pytest.mark.parametrize("backend", CACHE_BACKENDS)
    def test_every_backend_accepted(self, backend):
        req = SweepRequest.from_dict({**TINY, "cache_backend": backend})
        assert req.cache_backend == backend == req.config().cache_backend

    def test_backend_defaults_to_the_shared_constant(self):
        assert SweepRequest.from_dict(TINY).cache_backend == DEFAULT_CACHE_BACKEND

    @pytest.mark.parametrize("surface", ("cli-flag", "spec-file", "serve-body"))
    def test_unknown_backend_rejected_on_every_surface(self, surface, tmp_path, capsys):
        """``fast`` names no backend: the flag, a spec file and a serve
        body all reject it through the one declared backend list."""
        if surface == "cli-flag":
            from repro.__main__ import main

            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--apps", "ft", "--cache-backend", "fast"])
            assert exc.value.code == 2
            assert "invalid choice: 'fast'" in capsys.readouterr().err
        elif surface == "spec-file":
            from repro.spec import SpecError, load_spec

            spec_file = tmp_path / "fast.json"
            spec_file.write_text(json.dumps({
                "spec_version": 1,
                "grid": {"apps": ["ft"], "policies": ["shared"]},
                "config": {"cache_backend": "fast"},
            }))
            with pytest.raises(SpecError, match="spec.config.cache_backend"):
                load_spec(spec_file)
        else:
            with pytest.raises(RequestError, match="cache_backend"):
                SweepRequest.from_dict({**TINY, "cache_backend": "fast"})

    def test_empty_client_rejected(self):
        with pytest.raises(RequestError, match="'client'"):
            SweepRequest.from_dict({**TINY, "client": ""})

    def test_bad_intervals_rejected(self):
        with pytest.raises(RequestError, match="'intervals'"):
            SweepRequest.from_dict({**TINY, "intervals": 0})


class TestIdentity:
    def test_sweep_id_matches_journal_grid_digest(self):
        """The service's sweep id IS the digest `repro sweep --journal`
        stamps in its header — one identity across both entry points."""
        req = SweepRequest.from_dict(TINY)
        key = grid_key(
            req.apps, req.policies, req.seeds, req.thread_counts,
            req.baseline, req.config(),
        )
        assert req.sweep_id == grid_digest(key)

    def test_identical_payloads_share_an_id(self):
        assert SweepRequest.from_dict(TINY).sweep_id == SweepRequest.from_dict(TINY).sweep_id

    def test_client_and_resume_do_not_change_identity(self):
        a = SweepRequest.from_dict({**TINY, "client": "alice"})
        b = SweepRequest.from_dict({**TINY, "client": "bob", "resume": False})
        assert a.sweep_id == b.sweep_id

    def test_grid_changes_change_the_id(self):
        base = SweepRequest.from_dict(TINY).sweep_id
        assert SweepRequest.from_dict({**TINY, "seeds": [2]}).sweep_id != base
        assert SweepRequest.from_dict({**TINY, "intervals": 4}).sweep_id != base
        assert (
            SweepRequest.from_dict({**TINY, "cache_backend": "reference"}).sweep_id != base
        )

    def test_unset_backend_gives_one_digest_on_every_surface(self, tmp_path, capsys):
        """CLI flags, a spec file and a serve JSON body that all leave the
        backend unset name the same grid."""
        from repro.__main__ import main
        from repro.exec.journal import SweepJournal
        from repro.spec import load_spec

        journal = tmp_path / "flags.jsonl"
        rc = main([
            "sweep", "--apps", "ft", "--policies", "shared", "static-equal",
            "--intervals", "3", "--interval-instructions", "2000",
            "--journal", str(journal),
        ])
        capsys.readouterr()
        assert rc == 0
        header, _, _ = SweepJournal.load(journal)
        spec_file = tmp_path / "tiny.json"
        spec_file.write_text(json.dumps({
            "spec_version": 1,
            "grid": {"apps": ["ft"], "policies": ["shared", "static-equal"]},
            "config": {"intervals": 3, "interval_instructions": 2000},
        }))
        spec_grid = load_spec(spec_file).grid
        request = SweepRequest.from_dict(TINY)
        assert header["grid_digest"] == spec_grid.digest == request.sweep_id
        assert spec_grid.cache_backend == request.cache_backend == DEFAULT_CACHE_BACKEND

    def test_specs_are_the_canonical_grid_expansion(self):
        req = SweepRequest.from_dict({**TINY, "seeds": [1, 2], "thread_counts": [2, 4]})
        expected = expand_grid(
            req.apps, req.policies, req.seeds, req.thread_counts, req.config()
        )
        assert [s.digest for s in req.specs()] == [s.digest for s in expected]
        assert req.n_cells == len(expected) == 8


class TestEvents:
    def test_cell_event_shape(self):
        from repro.exec.sweep import SweepCell

        cell = SweepCell(app="ft", policy="shared", seed=1, n_threads=4,
                         total_cycles=123.0, source="run")
        event = cell_event(cell, key="abc", completed=1, total=4)
        assert event["event"] == "cell"
        assert event["ok"] is True
        assert event["completed"] == 1 and event["total"] == 4
        assert event["replayed"] is False

    def test_status_event_passthrough(self):
        event = status_event({"sweep_id": "x", "status": "done"})
        assert event == {"event": "status", "sweep_id": "x", "status": "done"}
