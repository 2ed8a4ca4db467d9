import json

import pytest

from admal.config import ALL_PARTNERS, OPINIONS, ConfigError, load_config


def resolver(**settings):
    return {"resolvers": [{"provider_id": "a", "filtered_address": "1.1.1.1", **settings}]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def minimal(tmp_path, extra=None, name="config.json"):
    doc = {"repository": str(tmp_path / "repo"), "campaign": "t1"}
    doc.update(extra or {})
    return write_config(tmp_path, doc, name)


class TestDefaults:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(minimal(tmp_path))
        assert cfg.campaign == "t1"
        assert [p.provider_id for p in cfg.resolvers] == ["cloudflare", "quad9", "cisco"]
        assert cfg.ti_mode == "off"
        assert cfg.ti_requests_per_minute == 4.0
        assert cfg.limits.max_inflight == 64
        assert cfg.limits.per_provider_qps == 20.0
        assert cfg.agreement_denominator == OPINIONS
        assert cfg.formats == ["json", "plotdata"]
        assert cfg.subdomain_matching == "strict"

    def test_paths(self, tmp_path):
        cfg = load_config(minimal(tmp_path))
        repo = str(tmp_path / "repo")
        assert cfg.corpus_path("t1") == f"{repo}/corpus-t1.txt"


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1,2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path))

    def test_repository_required(self, tmp_path):
        with pytest.raises(ConfigError, match="repository"):
            load_config(write_config(tmp_path, {"campaign": "x"}))

    def test_api_key_refused_in_config(self, tmp_path):
        path = minimal(tmp_path, {"ti": {"mode": "live", "base_url": "https://x",
                                         "api_key": "secret"}})
        with pytest.raises(ConfigError, match="ADMAL_TI_API_KEY"):
            load_config(path)

    @pytest.mark.parametrize("ti", [
        {"mode": "weird"},
        {"mode": "fixture"},
        {"mode": "live"},
        {"mode": "fixture", "fixture": "x.jsonl", "requests_per_minute": 0},
    ])
    def test_bad_ti_section(self, tmp_path, ti):
        with pytest.raises(ConfigError):
            load_config(minimal(tmp_path, {"ti": ti}))

    @pytest.mark.parametrize("setting", [
        {"requests_per_minute": "fast"}, {"requests_per_minute": True},
        {"requests_per_minute": -1}, {"requests_per_minute": float("inf")},
        {"timeout_s": "30"}, {"timeout_s": 0}, {"timeout_s": None},
        {"retries": "3"}, {"retries": -1}, {"retries": 1.5}, {"retries": False},
    ])
    def test_bad_ti_number(self, tmp_path, setting):
        ti = {"mode": "live", "base_url": "https://x", **setting}
        with pytest.raises(ConfigError, match=f"ti.{next(iter(setting))}"):
            load_config(minimal(tmp_path, {"ti": ti}))

    def test_ti_numbers_reach_the_provider(self, tmp_path):
        cfg = load_config(minimal(tmp_path, {"ti": {
            "mode": "live", "base_url": "https://x", "requests_per_minute": 600,
            "timeout_s": 2.5, "retries": 0}}))
        assert cfg.ti_requests_per_minute == 600.0
        assert cfg.ti_options == {"timeout_s": 2.5, "retries": 0}

    @pytest.mark.parametrize("extra", [
        {"resolvers": [{"provider_id": "a", "filtered_address": "1.1.1.1"},
                       {"provider_id": "a", "filtered_address": "2.2.2.2"}]},
        {"resolvers": [{"provider_id": "a"}]},
        {"lists": {"format_hint": "csv"}},
        {"lists": {"subdomain_matching": "sometimes"}},
        {"analytics": {"agreement_denominator": "everyone"}},
        {"analytics": {"ti_figure_base": -5}},
        {"analytics": {"corpus_size": 0}},
        {"analytics": {"formats": ["xml"]}},
        resolver(blocked_signatures=[{"kind": "nxdomian"}]),
        *(resolver(timeout_ms=value) for value in (-1, 0, "3000", 2.9, True)),
        *(resolver(retries=value) for value in (-1, "2", 2.9, True)),
        *({"limits": {"max_inflight": value}} for value in (-1, 0, "8", 2.9, True)),
        *({"limits": {"per_provider_qps": value}}
          for value in (-1, 0, "8", True, float("inf"))),
        resolver(filtered_address="127.0.0.1:70000"),
        resolver(filtered_address="127.0.0.1:-1"),
        resolver(control_address="[::1]:70000"),
        {"campaign": 5},
        {"input": {"url_list": ["urls.txt"]}},
        {"input": {"capture": 1}},
        {"input": {"psl_file": True}},
        {"ti": {"mode": "fixture", "fixture": ["ti.jsonl"]}},
        {"ti": {"fixture": 5}},
        {"ti": {"mode": "live", "base_url": {"host": "x"}}},
        {"mock_farm": ["farm.json"]},
        {"input": {"collapse_registrable": "no"}},
        {"input": {"collapse_registrable": 1}},
        {"analytics": {"ti_figure_base": True}},
        {"analytics": {"corpus_size": True}},
    ])
    def test_bad_sections(self, tmp_path, extra):
        with pytest.raises(ConfigError):
            load_config(minimal(tmp_path, extra))

    def test_custom_resolvers(self, tmp_path):
        path = minimal(tmp_path, {"resolvers": [{
            "provider_id": "mock1",
            "filtered_address": "127.0.0.1:9953",
            "control_address": "127.0.0.1:9954",
            "blocked_signatures": [{"kind": "sinkhole_a", "ips": ["0.0.0.0"]}],
            "timeout_ms": 500,
            "retries": 0,
        }]})
        cfg = load_config(path)
        profile = cfg.resolvers[0]
        assert profile.filtered_address == ("127.0.0.1", 9953)
        assert profile.control_address == ("127.0.0.1", 9954)
        assert profile.blocked_signatures[0].kind == "sinkhole_a"
        assert profile.timeout_ms == 500


class TestAnalysisDigest:
    def test_stable_across_loads(self, tmp_path):
        path = minimal(tmp_path)
        assert load_config(path).analysis_digest() == load_config(path).analysis_digest()

    def test_ignores_runtime_limits(self, tmp_path):
        base = load_config(minimal(tmp_path, name="a.json"))
        fast = load_config(minimal(
            tmp_path, {"limits": {"max_inflight": 4, "per_provider_qps": 1000}},
            name="b.json"))
        assert base.analysis_digest() == fast.analysis_digest()

    def test_sensitive_to_analytics_settings(self, tmp_path):
        base = load_config(minimal(tmp_path, name="a.json"))
        other = load_config(minimal(
            tmp_path, {"analytics": {"agreement_denominator": ALL_PARTNERS}},
            name="b.json"))
        assert base.analysis_digest() != other.analysis_digest()
