"""Tests for the synthetic workload generators (dataset substitutes)."""

import pytest

from repro.workloads import (
    MODELS,
    ModelProfile,
    SyntheticCorpus,
    SyntheticTrace,
    ZipfGenerator,
    synthetic_gradient,
    word_count,
)


class TestZipf:
    def test_deterministic_with_seed(self):
        a = ZipfGenerator(100, seed=1)
        b = ZipfGenerator(100, seed=1)
        assert [a.sample_index() for _ in range(50)] == \
            [b.sample_index() for _ in range(50)]

    def test_keys_within_universe(self):
        gen = ZipfGenerator(10, seed=0)
        assert all(0 <= gen.sample_index() < 10 for _ in range(200))

    def test_skew_concentrates_on_low_ranks(self):
        gen = ZipfGenerator(1000, s=1.2, seed=0)
        samples = [gen.sample_index() for _ in range(5000)]
        head = sum(1 for s in samples if s < 100)
        assert head / len(samples) > 0.5

    def test_zero_exponent_is_roughly_uniform(self):
        gen = ZipfGenerator(10, s=0.0, seed=0)
        samples = [gen.sample_index() for _ in range(10_000)]
        counts = [samples.count(i) for i in range(10)]
        assert max(counts) < 2 * min(counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
        with pytest.raises(ValueError):
            ZipfGenerator(10, s=-1)


class TestCorpus:
    def test_documents_draw_from_vocabulary(self):
        corpus = SyntheticCorpus(vocabulary_size=50, seed=0)
        vocab = set(corpus.vocabulary)
        for doc in corpus.documents(5):
            assert all(word in vocab for word in doc.split())

    def test_word_frequencies_are_skewed(self):
        corpus = SyntheticCorpus(vocabulary_size=500, zipf_s=1.2, seed=0)
        counts = word_count(corpus.documents(100))
        ordered = sorted(counts.values(), reverse=True)
        assert ordered[0] > 10 * ordered[-1]

    def test_word_count_reference(self):
        assert word_count(["a b a", "b c"]) == {"a": 2, "b": 2, "c": 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticCorpus(vocabulary_size=0)


class TestTrace:
    def test_heavy_tail(self):
        trace = SyntheticTrace(n_flows=1000, seed=0)
        counts = trace.exact_counts(trace.packets(20_000))
        ordered = sorted(counts.values(), reverse=True)
        top_mass = sum(ordered[:10])
        assert top_mass > 0.2 * sum(ordered)

    def test_flow_ids_look_like_five_tuples(self):
        trace = SyntheticTrace(n_flows=5, seed=0)
        record = next(iter(trace.packets(1)))
        assert "->" in record.flow_id and ":" in record.flow_id

    def test_deterministic(self):
        a = [r.flow_id for r in SyntheticTrace(100, seed=3).packets(50)]
        b = [r.flow_id for r in SyntheticTrace(100, seed=3).packets(50)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticTrace(n_flows=0)


class TestModels:
    def test_profiles_present(self):
        assert {"VGG16", "AlexNet", "ResNet50"} <= set(MODELS)

    def test_vgg_is_communication_bound_relative_to_resnet(self):
        vgg = MODELS["VGG16"].comm_to_comp_ratio(100e9)
        resnet = MODELS["ResNet50"].comm_to_comp_ratio(100e9)
        assert vgg > 5 * resnet

    def test_gradient_bytes(self):
        assert MODELS["AlexNet"].gradient_bytes == 61_000_000 * 4

    def test_synthetic_gradient_shape(self):
        grad = synthetic_gradient(100, seed=1)
        assert len(grad) == 100
        assert abs(sum(grad) / len(grad)) < 0.01  # zero-centred

    def test_synthetic_gradient_deterministic(self):
        assert synthetic_gradient(10, seed=2) == \
            synthetic_gradient(10, seed=2)
