"""Feature-group plugin registry (SURVEY §2.10): section map, skip
toggles, and user-registered groups — including through the distributed
featurizer tasks (the driver-side registry must reach worker processes)."""

import pyarrow as pa
import pytest

import ray.data

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.text import features as F


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    for name in list(F._CUSTOM_GROUPS):
        F.unregister_feature_group(name)


class TestGroupMap:
    def test_groups_partition_schema(self):
        groups = F.feature_groups()
        names = F.feature_names()
        flat = [c for cols in groups.values() for c in cols]
        assert len(flat) == len(set(flat)), "groups overlap"
        assert set(flat) == set(names)

    def test_reference_section_names_present(self):
        groups = F.feature_groups()
        for g in ("topPredictors", "wordDifficulties", "compound",
                  "sentDifficulties", "infoDensity", "coherence",
                  "concreteness", "persoonlijkheid", "verb", "imperative",
                  "wordSort", "prepPhrase", "intensifiers", "formal",
                  "surprisal", "lint", "counts"):
            assert g in groups and groups[g], g

    def test_skip_group_removes_only_its_columns(self):
        cfg = EngineConfig(skip_groups=("surprisal",))
        full = set(F.feature_names())
        skipped = set(F.feature_names(cfg))
        gone = full - skipped
        assert gone == set(F.feature_groups()["surprisal"])
        assert not any("Log_prob" in c or "Perplexiteit" in c for c in skipped)

    def test_default_schema_unchanged_by_registry_machinery(self):
        f = F.featurize_document("De man gaat naar huis .")
        assert set(f) == set(F.feature_names())


class TestCustomGroups:
    def test_register_and_compute(self):
        F.register_feature_group(
            "caps", lambda doc, out, cfg: {
                "caps_cnt": sum(w.word[:1].isupper() for w in doc.words)})
        f = F.featurize_document("De Man ziet Amsterdam .")
        assert f["caps_cnt"] == 3
        assert "caps" in F.feature_groups()
        assert "caps_cnt" in F.feature_names()

    def test_plugin_may_read_builtins_not_overwrite(self):
        F.register_feature_group(
            "derived", lambda doc, out, cfg: {
                "word_per_sent": out["Wrd_per_zin"]})
        f = F.featurize_document("De man gaat naar huis .")
        assert f["word_per_sent"] == f["Wrd_per_zin"]
        F.register_feature_group(
            "clash", lambda doc, out, cfg: {"Wrd_per_zin": 0.0})
        with pytest.raises(ValueError, match="overwrites"):
            F.featurize_document("De man gaat naar huis .")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already exists"):
            F.register_feature_group("verb", lambda doc, out, cfg: {})

    def test_skip_applies_to_custom_group(self):
        F.register_feature_group(
            "caps", lambda doc, out, cfg: {"caps_cnt": 1})
        cfg = EngineConfig(skip_groups=("caps",))
        assert "caps_cnt" not in F.featurize_document("x .", cfg=cfg)


class TestDistributedPlugins:
    def test_custom_group_reaches_actor_pool(self):
        from tscan_ray.stages.featurizer import featurize

        # define the plugin as a closure: cloudpickle ships closures by
        # VALUE, while module-level functions in a test module would be
        # pickled by reference to a module the Ray worker cannot import
        def caps_group(doc, out, cfg):
            return {"caps_cnt":
                    float(sum(w.word[:1].isupper() for w in doc.words))}

        F.register_feature_group("caps", caps_group)
        ds = ray.data.from_arrow(pa.table({
            "caption": ["De Man ziet Amsterdam .", "de kat slaapt ."]}))
        out = featurize(ds).to_pandas()
        assert list(out["caps_cnt"]) == [3.0, 0.0]

    def test_custom_group_reaches_paragraph_table(self):
        """Every text stage re-registers the caller's groups, so the
        paragraph table carries a custom column like the document
        table does."""
        from tscan_ray.stages.featurizer import featurize
        from tscan_ray.stages.paragraphs import explode_paragraphs

        def caps_group(doc, out, cfg):
            return {"caps_cnt":
                    float(sum(w.word[:1].isupper() for w in doc.words))}

        F.register_feature_group("caps", caps_group)
        ds = ray.data.from_arrow(pa.table({
            "doc_id": [1],
            "caption": ["De Man ziet Amsterdam .\n\nde kat slaapt ."]}))
        docs = featurize(ds).to_pandas()
        pars = explode_paragraphs(ds, "caption", ["doc_id"]).to_pandas()
        assert list(docs["caps_cnt"]) == [3.0]
        assert list(pars.sort_values("par_idx")["caps_cnt"]) == [3.0, 0.0]

    def test_custom_group_reaches_flagship_table(self, tmp_path):
        """The flagship's decode+featurize tasks adopt the caller's groups
        for that job only: a worker reused by the next job must not
        keep emitting a group the caller has since unregistered."""
        import pyarrow.parquet as pq

        from tscan_ray.pipelines.flagship import flagship
        from tscan_ray.sources.images import synth_images_batch

        vocab = ["de", "kat", "slaapt", "vandaag", "buiten", "ondanks",
                 "regen", "hond", "wandelt", "langzaam"]
        docs = pa.table({
            "doc_id": list(range(40)),
            "text": [" ".join(vocab[(i * 7 + j) % len(vocab)]
                              for j in range(3 + i % 6)) + " ."
                     for i in range(40)]})
        images = synth_images_batch(docs, n_entities=4)
        for k in range(4):  # four blocks, so several workers featurize
            pq.write_table(images.slice(10 * k, 10),
                           tmp_path / f"part-{k}.parquet")

        def long_words(doc, out, cfg):
            return {"long_cnt":
                    float(sum(len(w.word) > 5 for w in doc.words))}

        F.register_feature_group("long", long_words)
        out = flagship(None, images_path=str(tmp_path), n_entities=4,
                       num_buckets=2).to_pandas()
        assert "long_cnt" in out.columns
        want = [F.featurize_document(c)["long_cnt"] for c in out["caption"]]
        assert list(out["long_cnt"]) == want
        assert len(set(want)) > 1  # the group separates the captions

        F.unregister_feature_group("long")
        again = flagship(None, images_path=str(tmp_path), n_entities=4,
                         num_buckets=2)
        assert "long_cnt" not in again.schema().names

    def test_skip_groups_through_stage(self):
        from tscan_ray.stages.featurizer import featurize

        cfg = EngineConfig(skip_groups=("surprisal", "lint"))
        ds = ray.data.from_arrow(pa.table({"caption": ["de kat slaapt ."]}))
        out = featurize(ds, cfg=cfg)
        cols = set(out.schema().names)
        assert "LiNT_score1" not in cols and "Log_prob_fwd" not in cols
        assert "Wrd_per_zin" in cols
