// Integration: failure injection across artifact boundaries — corrupted,
// truncated, mistyped and missing files must fail loudly with the library's
// error types, never crash or silently misload; API misuse across modules
// must be caught by contract checks.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "attack/ip_theft.hpp"
#include "attack/locked_theft.hpp"
#include "core/locked_encoder.hpp"
#include "data/synthetic.hpp"
#include "hdc/classifier.hpp"
#include "util/serialize.hpp"

namespace {

using namespace hdlock;
namespace fs = std::filesystem;

class ScratchDir {
public:
    // One directory per process: ctest runs each test as its own process,
    // in parallel, and a shared directory would be removed under a sibling.
    ScratchDir()
        : dir_(fs::temp_directory_path() /
               ("hdlock_failure_injection_" + std::to_string(::getpid()))) {
        fs::create_directories(dir_);
    }
    ~ScratchDir() { fs::remove_all(dir_); }
    fs::path operator/(const std::string& name) const { return dir_ / name; }

private:
    fs::path dir_;
};

Deployment small_deployment(std::size_t n_layers = 2) {
    DeploymentConfig config;
    config.dim = 512;
    config.n_features = 8;
    config.n_levels = 4;
    config.n_layers = n_layers;
    config.seed = 3;
    return provision(config);
}

void truncate_file(const fs::path& path, std::uintmax_t keep) {
    fs::resize_file(path, keep);
}

void flip_byte(const fs::path& path, std::uintmax_t offset) {
    std::fstream stream(path, std::ios::in | std::ios::out | std::ios::binary);
    stream.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    stream.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    stream.seekp(static_cast<std::streamoff>(offset));
    stream.write(&byte, 1);
}

}  // namespace

TEST(FailureInjection, MissingFileThrowsIoError) {
    EXPECT_THROW(util::load_file<LockKey>("/nonexistent/dir/key.bin"), IoError);
    EXPECT_THROW(util::save_file(LockKey::plain_random(4, 4, 1), "/nonexistent/dir/key.bin"),
                 IoError);
}

TEST(FailureInjection, TruncatedStoreThrowsFormatError) {
    const ScratchDir scratch;
    const auto deployment = small_deployment();
    const auto path = scratch / "store.bin";
    util::save_file(*deployment.store, path);

    const auto full_size = fs::file_size(path);
    for (const auto keep : {full_size / 2, full_size / 8, std::uintmax_t{5}}) {
        truncate_file(path, keep);
        EXPECT_THROW(util::load_file<PublicStore>(path), FormatError) << "kept " << keep;
    }
}

TEST(FailureInjection, WrongArtifactTypeIsRejectedByTag) {
    const ScratchDir scratch;
    const auto deployment = small_deployment();
    const auto path = scratch / "store.bin";
    util::save_file(*deployment.store, path);
    // A PublicStore file is not a LockKey, a model, or a discretizer.
    EXPECT_THROW(util::load_file<LockKey>(path), FormatError);
    EXPECT_THROW(util::load_file<hdc::HdcModel>(path), FormatError);
    EXPECT_THROW(util::load_file<hdc::MinMaxDiscretizer>(path), FormatError);
}

TEST(FailureInjection, CorruptedHeaderIsDetected) {
    const ScratchDir scratch;
    const auto path = scratch / "key.bin";
    util::save_file(LockKey::random(8, 2, 16, 512, 7), path);
    flip_byte(path, 0);  // first tag byte
    EXPECT_THROW(util::load_file<LockKey>(path), FormatError);
}

TEST(FailureInjection, CorruptedLengthFieldCannotAllocateAbsurdly) {
    // Flip a byte inside the length region: the reader must throw (length
    // check or premature EOF) instead of attempting a hundred-GiB resize.
    const ScratchDir scratch;
    const auto path = scratch / "key.bin";
    util::save_file(LockKey::random(8, 2, 16, 512, 7), path);
    for (const std::uintmax_t offset : {5u, 6u, 9u, 12u}) {
        auto copy = scratch / ("key_" + std::to_string(offset) + ".bin");
        fs::copy_file(path, copy);
        flip_byte(copy, offset);
        EXPECT_THROW((void)util::load_file<LockKey>(copy), Error) << "offset " << offset;
    }
}

TEST(FailureInjection, EncoderRejectsMalformedInputs) {
    const auto deployment = small_deployment();
    EXPECT_THROW((void)deployment.encoder->encode(std::vector<int>(7, 0)), ContractViolation);
    EXPECT_THROW((void)deployment.encoder->encode(std::vector<int>(9, 0)), ContractViolation);
    EXPECT_THROW((void)deployment.encoder->encode(std::vector<int>(8, 4)), ContractViolation);
    EXPECT_THROW((void)deployment.encoder->encode(std::vector<int>(8, -1)), ContractViolation);
}

TEST(FailureInjection, TheftExperimentsRejectMismatchedDeployments) {
    data::SyntheticSpec spec;
    spec.n_features = 8;
    spec.n_classes = 2;
    spec.n_train = 40;
    spec.n_test = 20;
    spec.n_levels = 4;
    spec.seed = 9;
    const auto data = data::make_benchmark(spec);

    // A locked deployment fed to the unprotected experiment and vice versa.
    attack::IpTheftConfig plain_config;
    plain_config.dim = 512;
    plain_config.n_levels = 4;
    EXPECT_THROW(
        attack::steal_model(small_deployment(2), data.train, data.test, plain_config),
        ContractViolation);

    attack::LockedTheftConfig locked_config;
    locked_config.dim = 512;
    locked_config.n_levels = 4;
    locked_config.n_layers = 1;
    EXPECT_THROW(attack::steal_locked_model(small_deployment(0), data.train, data.test,
                                            locked_config),
                 ContractViolation);
}

TEST(FailureInjection, ClassifierRejectsShapeMismatches) {
    data::SyntheticSpec spec;
    spec.n_features = 12;  // != deployment's 8
    spec.n_classes = 2;
    spec.n_train = 40;
    spec.n_test = 20;
    spec.n_levels = 4;
    spec.seed = 9;
    const auto data = data::make_benchmark(spec);
    const auto deployment = small_deployment();

    hdc::PipelineConfig pipeline;
    EXPECT_THROW(hdc::HdcClassifier::fit(data.train, deployment.encoder, pipeline),
                 ContractViolation);
}

TEST(FailureInjection, RoundTrippedDeploymentAttacksIdentically) {
    // Control: after a full save/load cycle the reassembled deployment is
    // attack-equivalent to the original (same recovered mapping).
    const ScratchDir scratch;
    const auto deployment = small_deployment(0);
    util::save_file(*deployment.store, scratch / "store.bin");
    util::save_file(deployment.secure->key(), scratch / "key.bin");

    Deployment restored;
    restored.store = std::make_shared<const PublicStore>(
        util::load_file<PublicStore>(scratch / "store.bin"));
    auto key = util::load_file<LockKey>(scratch / "key.bin");
    auto mapping = deployment.secure->value_mapping();
    restored.encoder = std::make_shared<const LockedEncoder>(
        restored.store, key.clone(), mapping, deployment.encoder->tie_seed());
    restored.secure = std::make_shared<SecureStore>(std::move(key), std::move(mapping));

    const attack::EncodingOracle original_oracle(deployment.encoder);
    const attack::EncodingOracle restored_oracle(restored.encoder);
    const auto original = attack::extract_value_mapping(*deployment.store, original_oracle, true);
    const auto again = attack::extract_value_mapping(*restored.store, restored_oracle, true);
    EXPECT_EQ(original.level_to_slot, again.level_to_slot);
}
