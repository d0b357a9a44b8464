"""The document vector's schema is recorded once per process and every
document table is typed from it (``text.features.feature_schema``)."""

import pyarrow as pa
import pytest

from tscan_ray.config import DEFAULT_CONFIG
from tscan_ray.text import features as F


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    F.set_custom_groups({})


def _long_ratio():
    """A group that gives 0 (an int) for an empty caption and a float
    otherwise.  A closure, which cloudpickle ships by value: a Ray
    worker cannot import this test module."""
    def long_ratio(doc, out, cfg):
        if not doc.words:
            return {"long_ratio": 0}
        return {"long_ratio": sum(len(w.word) > 3 for w in doc.words)
                / len(doc.words)}
    return long_ratio


CAPTIONS = ["", "de kat slaapt op de mat ."]


class TestRecordedSchema:
    def test_types_come_from_the_dummy_document(self):
        schema = F.feature_schema()
        probe = F.featurize_document("x .")
        assert schema.names == list(probe) == F.feature_names()
        for f in schema:
            want = pa.int64() if isinstance(probe[f.name], int) else pa.float64()
            assert f.type == want, f.name
        assert F.feature_groups() == {
            g: [f.name for f in schema
                if f.metadata[b"group"].decode() == g]
            for g in F.feature_groups()}

    def test_skip_groups_select_columns(self):
        from tscan_ray.config import EngineConfig

        cfg = EngineConfig(skip_groups=("surprisal", "lint"))
        full = F.feature_groups()
        assert F.feature_names(cfg) == [
            n for g, cols in full.items() if g not in cfg.skip_groups
            for n in cols]
        assert list(F.featurize_document("de kat slaapt .", cfg=cfg)) \
            == F.feature_names(cfg)

    def test_same_code_closures_are_two_registry_states(self):
        """Two closures of one factory share ``__code__``; a registry
        holding the second must not keep the first one's schema."""
        def make_group(col):
            def group(doc, out, cfg):
                return {col: 1.0}
            return group

        F.set_custom_groups({"g": make_group("a_cnt")})
        assert F.feature_names()[-1] == "a_cnt"
        F.set_custom_groups({"g": make_group("b_cnt")})
        assert F.feature_names()[-1] == "b_cnt"
        assert "a_cnt" not in F.feature_names()

    def test_one_emit_per_registry_state(self, monkeypatch):
        """Ten stage builds and ten ``feature_names()`` calls make one
        dummy-document emit, then none once the schema is recorded."""
        from tscan_ray.stages.featurizer import CaptionFeaturizer

        calls = []
        emit = F._emit_doc

        def counted(*a, **kw):
            calls.append(1)
            return emit(*a, **kw)

        def build_and_name():
            for _ in range(10):
                CaptionFeaturizer()
                F.feature_names()

        monkeypatch.setattr(F, "_emit_doc", counted)
        F.set_custom_groups({"long": _long_ratio()})  # a new registry state
        build_and_name()
        assert len(calls) == 1
        build_and_name()
        assert len(calls) == 1


class TestDeclaredTypesHold:
    def test_int_for_empty_caption_through_map_slices(self):
        """A group that gives an int on an empty caption and a float
        otherwise: every 1-row slice is typed from the declared float64,
        so the slices concatenate."""
        from tscan_ray.stages import map_slices
        from tscan_ray.stages.featurizer import CaptionFeaturizer

        F.register_feature_group("long", _long_ratio())
        out = map_slices(pa.table({"caption": CAPTIONS}),
                         stage=CaptionFeaturizer, kwargs={}, batch_size=1)
        assert out.schema.field("long_ratio").type == pa.float64()
        assert out.column("long_ratio").to_pylist() == [
            0.0, F.featurize_document(CAPTIONS[1])["long_ratio"]]

    def test_int_for_empty_caption_through_flagship(self, tmp_path):
        import dataclasses

        import pyarrow.parquet as pq

        from tscan_ray.pipelines.flagship import flagship
        from tscan_ray.sources.images import synth_images_batch

        docs = pa.table({"doc_id": [1, 2], "text": CAPTIONS})
        pq.write_table(synth_images_batch(docs, n_entities=2),
                       tmp_path / "part-0.parquet")
        F.register_feature_group("long", _long_ratio())
        cfg = dataclasses.replace(DEFAULT_CONFIG, featurizer_batch_size=1)
        out = flagship(None, images_path=str(tmp_path), n_entities=2,
                       cfg=cfg, num_buckets=2).to_pandas()
        got = dict(zip(out["caption"], out["long_ratio"]))
        assert got == {"": 0.0, CAPTIONS[1]:
                       F.featurize_document(CAPTIONS[1])["long_ratio"]}

    def test_float_in_an_int_column_names_group_and_column(self):
        from tscan_ray.stages.featurizer import CaptionFeaturizer

        def odd(doc, out, cfg):  # an int on the dummy document
            return {"odd_cnt": len(doc.words) if len(doc.words) < 3
                    else 1.5}

        F.register_feature_group("odd", odd)
        assert F.feature_schema().field("odd_cnt").type == pa.int64()
        stage = CaptionFeaturizer()
        stage(pa.table({"caption": ["x ."]}))  # fits its type
        with pytest.raises(ValueError, match=r"'odd_cnt' \(feature group 'odd'\)"):
            stage(pa.table({"caption": ["de kat slaapt op de mat ."]}))
