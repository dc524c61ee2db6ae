"""Request parsing, fingerprints and cache keys of the service protocol."""

from __future__ import annotations

import pytest

from repro._rng import DEFAULT_SEED
from repro.exceptions import ServiceError
from repro.graph import ptg_to_dict
from repro.platform import by_name
from repro.service import (
    KNOWN_MODELS,
    KNOWN_PLATFORMS,
    parse_request,
    problem_digest,
    result_key,
)
from repro.service.cache import prepare_problem
from repro.timemodels import ExecutionTimeModel, model_by_name
from repro.workloads import generate_fft


@pytest.fixture
def request_doc():
    return {
        "ptg": ptg_to_dict(generate_fft(4, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": 7,
    }


class TestParseRequest:
    def test_roundtrip(self, request_doc):
        req = parse_request(request_doc)
        assert req.platform == "chti"
        assert req.model == "amdahl"
        assert req.algorithm == "emts5"
        assert req.seed == 7
        assert req.tenant == "default"
        assert req.priority == 0

    def test_defaults(self, request_doc):
        doc = {"ptg": request_doc["ptg"]}
        req = parse_request(doc)
        assert req.platform == "chti"
        assert req.algorithm == "emts5"
        # seed null resolves deterministically, so it is cacheable
        assert req.seed == DEFAULT_SEED

    def test_seed_null_equals_default_seed(self, request_doc):
        explicit = dict(request_doc, seed=DEFAULT_SEED)
        implicit = dict(request_doc, seed=None)
        assert result_key(parse_request(explicit)) == result_key(
            parse_request(implicit)
        )

    @pytest.mark.parametrize(
        "patch",
        [
            {"platform": "nonsuch"},
            {"model": "nonsuch"},
            {"algorithm": "mcpa"},  # heuristics are offline-only
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"generations": 0},
            {"max_wall_time": 0},
            {"max_wall_time": "fast"},
            {"priority": 10},
            {"priority": -1},
            {"tenant": ""},
            {"tenant": 42},
        ],
    )
    def test_rejects_bad_fields(self, request_doc, patch):
        doc = dict(request_doc, **patch)
        with pytest.raises(ServiceError) as err:
            parse_request(doc)
        assert err.value.status == 400

    def test_rejects_non_object(self):
        with pytest.raises(ServiceError):
            parse_request([1, 2, 3])

    def test_rejects_missing_ptg(self):
        with pytest.raises(ServiceError):
            parse_request({"platform": "chti"})

    def test_rejects_wrong_ptg_format(self, request_doc):
        doc = dict(request_doc, ptg={"format": "not-a-ptg"})
        with pytest.raises(ServiceError):
            parse_request(doc)


class TestKnownNames:
    def test_every_accepted_name_builds_a_model_and_a_platform(
        self, request_doc
    ):
        """The names a request may carry are the registries' own, so
        every model and platform the protocol accepts prepares."""
        for model in KNOWN_MODELS:
            assert isinstance(model_by_name(model), ExecutionTimeModel)
            for platform in KNOWN_PLATFORMS:
                doc = dict(request_doc, model=model, platform=platform)
                prepared = prepare_problem(parse_request(doc))
                assert prepared.cluster == by_name(platform)
                assert prepared.table.model_name == model_by_name(model).name


class TestFingerprints:
    def test_problem_digest_ignores_algorithm_and_seed(self, request_doc):
        a = parse_request(dict(request_doc, seed=1, algorithm="emts5"))
        b = parse_request(dict(request_doc, seed=2, algorithm="emts10"))
        assert problem_digest(a) == problem_digest(b)

    def test_problem_digest_tracks_problem(self, request_doc):
        base = parse_request(request_doc)
        other_platform = parse_request(
            dict(request_doc, platform="grelon")
        )
        other_model = parse_request(dict(request_doc, model="downey"))
        other_ptg = parse_request(
            dict(request_doc, ptg=ptg_to_dict(generate_fft(8, rng=7)))
        )
        digests = {
            problem_digest(r)
            for r in (base, other_platform, other_model, other_ptg)
        }
        assert len(digests) == 4

    def test_result_key_tracks_answer_inputs(self, request_doc):
        base = parse_request(request_doc)
        variants = [
            parse_request(dict(request_doc, seed=8)),
            parse_request(dict(request_doc, algorithm="emts10")),
            parse_request(dict(request_doc, generations=3)),
            parse_request(dict(request_doc, max_wall_time=9.0)),
        ]
        keys = {result_key(r) for r in [base, *variants]}
        assert len(keys) == 5

    def test_result_key_ignores_queueing_metadata(self, request_doc):
        a = parse_request(dict(request_doc, tenant="alice", priority=3))
        b = parse_request(dict(request_doc, tenant="bob", priority=0))
        assert result_key(a) == result_key(b)
