// Pinned digests of trained models: the class sums, binarized class HVs and
// cached class norms that Owner::train / Owner::rotate / HdcClassifier::fit
// produce at fixed seeds.  The constants were recorded with the two-pass
// ColumnCounter training encode (every row encoded once for its sums and
// again for its binarization) and per-repair norm updates; the one-pass
// block-major encode and the once-per-train binary norms must reproduce
// them bit for bit, on every kernel backend.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "api/facades.hpp"
#include "data/synthetic.hpp"
#include "hdc/classifier.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace hdlock;
namespace kernels = util::kernels;

std::uint64_t model_digest(const hdc::HdcModel& model) {
    std::uint64_t digest = 0;
    for (int c = 0; c < model.n_classes(); ++c) {
        digest = util::hash_mix(digest, util::fnv1a_of(model.class_sum(c).values()));
        if (model.kind() == hdc::ModelKind::binary) {
            digest = util::hash_mix(digest, util::fnv1a_of(model.class_binary(c).words()));
        }
        digest = util::hash_mix(digest, std::bit_cast<std::uint64_t>(model.class_norm(c)));
    }
    return util::hash_mix(digest, static_cast<std::uint64_t>(model.epochs_run()));
}

data::SyntheticSpec digest_spec() {
    data::SyntheticSpec spec;
    spec.name = "digest";
    spec.n_features = 64;  // even: ties occur and draw the tie stream
    spec.n_classes = 4;
    spec.n_train = 240;
    spec.n_test = 10;
    spec.n_levels = 8;
    spec.noise = 0.3;
    spec.seed = 12;
    return spec;
}

}  // namespace

TEST(TrainingDigest, OwnerTrainAndRotateArePinned) {
    const auto benchmark = data::make_benchmark(digest_spec());
    DeploymentConfig config;
    config.dim = 2000;  // a partial last word and a partial last 512-bit block
    config.n_features = 64;
    config.n_levels = 8;
    config.n_layers = 2;
    config.seed = 41;
    for (const kernels::Backend kind : kernels::available_backends()) {
        const kernels::ScopedBackend pin(kind);
        api::Owner owner = api::Owner::provision(config);
        owner.train(benchmark.train);
        EXPECT_EQ(model_digest(owner.model()), 0xdcdda913521e7e4cULL)
            << kernels::backend_name(kind);

        api::RotateOptions rotate;
        rotate.seed = 5;
        owner.rotate(benchmark.train, rotate);
        EXPECT_EQ(model_digest(owner.model()), 0xe93a9bff563a7c58ULL)
            << kernels::backend_name(kind);

        rotate.seed = 6;
        rotate.train.kind = hdc::ModelKind::non_binary;
        owner.rotate(benchmark.train, rotate);
        EXPECT_EQ(model_digest(owner.model()), 0x8bc6bc4f72591541ULL)
            << kernels::backend_name(kind);
    }
}

TEST(TrainingDigest, RecordEncoderFitIsPinned) {
    data::SyntheticSpec spec = digest_spec();
    spec.n_features = 33;  // odd: no ties
    spec.n_levels = 4;
    spec.seed = 13;
    const auto benchmark = data::make_benchmark(spec);
    hdc::ItemMemoryConfig memory;
    memory.dim = 777;
    memory.n_features = 33;
    memory.n_levels = 4;
    memory.seed = 14;
    const auto encoder = std::make_shared<const hdc::RecordEncoder>(
        std::make_shared<const hdc::ItemMemory>(hdc::ItemMemory::generate(memory)), 9);
    hdc::PipelineConfig pipeline;
    pipeline.train.kind = hdc::ModelKind::binary;
    pipeline.train.retrain_epochs = 5;
    pipeline.train.seed = 3;
    for (const kernels::Backend kind : kernels::available_backends()) {
        const kernels::ScopedBackend pin(kind);
        const auto classifier = hdc::HdcClassifier::fit(benchmark.train, encoder, pipeline);
        EXPECT_EQ(model_digest(classifier.model()), 0x6c249a9d634ca34eULL)
            << kernels::backend_name(kind);
    }
}
