// Fuzz-style robustness tests for the `.hdlk` loader (src/api/bundle.*):
// systematic truncation sweeps and header/byte corruption over both bundle
// kinds and both reader transports (stream and span/mmap).  The contract
// under attack: a hostile or damaged artifact may only ever produce a typed
// hdlock::Error (FormatError for malformed bytes) — never a crash, an OOB
// read, an unbounded allocation, or a silently wrong bundle.

#include "api/bundle.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/facades.hpp"
#include "data/synthetic.hpp"
#include "util/error.hpp"

namespace {

using namespace hdlock;

api::Owner trained_owner() {
    DeploymentConfig config;
    config.dim = 512;
    config.n_features = 12;
    config.n_levels = 4;
    config.n_layers = 2;
    config.seed = 31;
    data::SyntheticSpec spec;
    spec.name = "fuzz";
    spec.n_features = 12;
    spec.n_classes = 3;
    spec.n_train = 90;
    spec.n_test = 30;
    spec.n_levels = 4;
    spec.seed = 8;
    api::Owner owner = api::Owner::provision(config);
    owner.train(data::make_benchmark(spec).train);
    return owner;
}

std::string serialize(const api::DeploymentBundle& bundle) {
    std::ostringstream out(std::ios::binary);
    util::BinaryWriter writer(out);
    bundle.save(writer);
    return out.str();
}

/// Outcome of one hostile-load attempt.
enum class LoadOutcome { loaded, typed_error, wrong_exception };

LoadOutcome try_load_stream(const std::string& bytes) {
    try {
        std::istringstream in(bytes, std::ios::binary);
        util::BinaryReader reader(in);
        (void)api::DeploymentBundle::load(reader);
        return LoadOutcome::loaded;
    } catch (const Error&) {
        return LoadOutcome::typed_error;
    } catch (...) {
        return LoadOutcome::wrong_exception;
    }
}

LoadOutcome try_load_span(const std::string& bytes) {
    try {
        util::BinaryReader reader(std::as_bytes(std::span<const char>(bytes)));
        (void)api::DeploymentBundle::load(reader);
        return LoadOutcome::loaded;
    } catch (const Error&) {
        return LoadOutcome::typed_error;
    } catch (...) {
        return LoadOutcome::wrong_exception;
    }
}

/// The two serialized corpora every sweep runs against.
std::vector<std::pair<std::string, std::string>> corpora() {
    const api::Owner owner = trained_owner();
    return {{"owner", serialize(owner.to_bundle())},
            {"device", serialize(owner.to_device_bundle())}};
}

TEST(BundleFuzz, EveryTruncationRaisesATypedError) {
    for (const auto& [kind, bytes] : corpora()) {
        // Every length in the header region, then a stride through the bulk
        // sections: cheap enough to run exhaustively where structure is
        // dense, sampled where it is a flat word array.
        std::vector<std::size_t> lengths;
        for (std::size_t n = 0; n < std::min<std::size_t>(bytes.size(), 96); ++n) {
            lengths.push_back(n);
        }
        for (std::size_t n = 96; n < bytes.size(); n += 101) lengths.push_back(n);
        lengths.push_back(bytes.size() - 1);

        for (const std::size_t n : lengths) {
            const std::string truncated = bytes.substr(0, n);
            EXPECT_EQ(try_load_stream(truncated), LoadOutcome::typed_error)
                << kind << " truncated to " << n << " of " << bytes.size() << " bytes (stream)";
            EXPECT_EQ(try_load_span(truncated), LoadOutcome::typed_error)
                << kind << " truncated to " << n << " of " << bytes.size() << " bytes (span)";
        }
        // Sanity: the untruncated corpus loads on both transports.
        EXPECT_EQ(try_load_stream(bytes), LoadOutcome::loaded) << kind;
        EXPECT_EQ(try_load_span(bytes), LoadOutcome::loaded) << kind;
    }
}

TEST(BundleFuzz, TrailingGarbageAfterHendIsHarmless) {
    // load() consumes through HEND; bytes past it belong to the caller
    // (bundles embed in larger files).  Nothing to reject, nothing to read.
    for (const auto& [kind, bytes] : corpora()) {
        EXPECT_EQ(try_load_stream(bytes + std::string(64, '\xee')), LoadOutcome::loaded) << kind;
    }
}

TEST(BundleFuzz, HeaderByteFlipsNeverEscapeTheTypedErrorContract) {
    // Flip every byte of the structured prefix (tag, version, kind,
    // tie_seed, flags, epoch, first section header) through hostile values.
    // Any outcome is acceptable except a non-hdlock exception or a crash:
    // some flips are benign (tie_seed, epoch), the rest must be FormatError.
    for (const auto& [kind, bytes] : corpora()) {
        const std::size_t prefix = std::min<std::size_t>(bytes.size(), 64);
        for (std::size_t i = 0; i < prefix; ++i) {
            for (const unsigned char value : {0x00, 0xFF, 0x80, 0x01}) {
                std::string mutated = bytes;
                if (static_cast<unsigned char>(mutated[i]) == value) continue;
                mutated[i] = static_cast<char>(value);
                EXPECT_NE(try_load_stream(mutated), LoadOutcome::wrong_exception)
                    << kind << ": byte " << i << " set to " << static_cast<int>(value)
                    << " (stream)";
                EXPECT_NE(try_load_span(mutated), LoadOutcome::wrong_exception)
                    << kind << ": byte " << i << " set to " << static_cast<int>(value)
                    << " (span)";
            }
        }
    }
}

TEST(BundleFuzz, OversizedCountsAreRejectedNotAllocated) {
    // Hand-build a header whose section count field claims 2^60 entries: the
    // loader must reject it as FormatError without attempting the
    // allocation.  (The count caps in bundle.cpp / serialize.hpp are the
    // fix this test pins.)
    const auto corpus = corpora();
    const auto& [kind, bytes] = corpus.front();
    for (const std::size_t offset : {std::size_t{9}, std::size_t{17}, std::size_t{25}}) {
        std::string mutated = bytes;
        if (mutated.size() < offset + 8) continue;
        const std::uint64_t absurd = 1ULL << 60;
        std::memcpy(mutated.data() + offset, &absurd, sizeof(absurd));
        const LoadOutcome outcome = try_load_stream(mutated);
        EXPECT_NE(outcome, LoadOutcome::wrong_exception)
            << kind << ": u64 at offset " << offset << " set to 2^60";
    }
}

TEST(BundleFuzz, AbsurdVersionIsNamedInTheError) {
    std::string mutated = corpora().front().second;
    mutated[4] = '\x2a';  // version 42
    mutated[5] = mutated[6] = mutated[7] = '\x00';
    try {
        std::istringstream in(mutated, std::ios::binary);
        util::BinaryReader reader(in);
        (void)api::DeploymentBundle::load(reader);
        FAIL() << "version 42 should not load";
    } catch (const FormatError& error) {
        EXPECT_NE(std::string(error.what()).find("42"), std::string::npos) << error.what();
    }
}

/// `bytes` with its DSC1 (discretizer) section replaced by one written from
/// the given fields — the section is variable-length, so it is spliced
/// rather than patched in place.
std::string with_dsc1(const std::string& bytes, std::uint64_t n_levels, std::uint8_t mode,
                      const std::vector<float>& mins, const std::vector<float>& maxs) {
    const std::size_t at = bytes.find("DSC1");
    EXPECT_NE(at, std::string::npos);
    EXPECT_EQ(bytes.find("DSC1", at + 1), std::string::npos) << "ambiguous DSC1 tag";
    const auto u64_at = [&bytes](std::size_t offset) {
        std::uint64_t value = 0;
        std::memcpy(&value, bytes.data() + offset, sizeof(value));
        return value;
    };
    // tag, u64 n_levels, u8 mode, then two (u64 count, float[count]) vectors.
    std::size_t end = at + 4 + 8 + 1;
    end += 8 + 4 * static_cast<std::size_t>(u64_at(end));
    end += 8 + 4 * static_cast<std::size_t>(u64_at(end));

    std::ostringstream section(std::ios::binary);
    util::BinaryWriter writer(section);
    writer.write_tag("DSC1");
    writer.write_u64(n_levels);
    writer.write_u8(mode);
    writer.write_span(std::span<const float>(mins));
    writer.write_span(std::span<const float>(maxs));
    return bytes.substr(0, at) + section.str() + bytes.substr(end);
}

/// The FormatError message of loading `bytes` on both transports (they must
/// agree); empty when it loaded.
std::string dsc1_load_error(const std::string& bytes) {
    std::string stream_error;
    std::string span_error;
    try {
        std::istringstream in(bytes, std::ios::binary);
        util::BinaryReader reader(in);
        (void)api::DeploymentBundle::load(reader);
    } catch (const FormatError& error) {
        stream_error = error.what();
    }
    try {
        util::BinaryReader reader(std::as_bytes(std::span<const char>(bytes)));
        (void)api::DeploymentBundle::load(reader);
    } catch (const FormatError& error) {
        span_error = error.what();
    }
    EXPECT_EQ(stream_error, span_error);
    return stream_error;
}

TEST(BundleFuzz, CorruptDiscretizerSectionsAreRejectedByField) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const std::uint8_t global = 0;
    const std::uint8_t per_feature = 1;
    const std::vector<float> twelve(12, 0.0f);
    const std::vector<float> twelve_ones(12, 1.0f);
    struct Case {
        const char* what;
        std::uint64_t n_levels;
        std::uint8_t mode;
        std::vector<float> mins, maxs;
        const char* field;  // must appear in the FormatError message
    };
    const std::vector<Case> cases = {
        {"zero levels", 0, global, {0.0f}, {1.0f}, "n_levels"},
        {"one level", 1, global, {0.0f}, {1.0f}, "n_levels"},
        {"2^40 levels", 1ULL << 40, global, {0.0f}, {1.0f}, "n_levels"},
        {"global, no ranges", 4, global, {}, {}, "ranges"},
        {"per-feature, no ranges", 4, per_feature, {}, {}, "ranges"},
        {"global, two ranges", 4, global, {0.0f, 0.0f}, {1.0f, 1.0f}, "ranges"},
        {"min above max", 4, global, {2.0f}, {1.0f}, "min"},
        {"NaN min", 4, global, {nan}, {1.0f}, "min"},
        {"NaN max", 4, global, {0.0f}, {nan}, "min"},
        {"per-feature NaN bound", 4, per_feature, twelve, [&] {
             auto maxs = twelve_ones;
             maxs[7] = nan;
             return maxs;
         }(), "range 7"},
    };
    for (const auto& [kind, bytes] : corpora()) {
        // Control: a well-formed replacement section of the original length
        // loads (a longer one would misalign the 64-byte-aligned sections
        // after it; the corrupt cases fail before those are read).
        EXPECT_EQ(dsc1_load_error(with_dsc1(bytes, 4, global, {0.0f}, {1.0f})), "") << kind;
        for (const Case& c : cases) {
            const std::string error =
                dsc1_load_error(with_dsc1(bytes, c.n_levels, c.mode, c.mins, c.maxs));
            EXPECT_NE(error.find(c.field), std::string::npos)
                << kind << ", " << c.what << ": error was \"" << error << "\"";
        }
    }
}

// load() rejects NaN discretizer bounds, so training must never produce
// them: an owner trained on data whose first value is NaN (the CSV loader
// accepts NaN by default) exports bundles that load on both transports.
TEST(BundleFuzz, OwnerTrainedOnNanFirstValueExportsLoadableBundles) {
    DeploymentConfig config;
    config.dim = 512;
    config.n_features = 12;
    config.n_levels = 4;
    config.n_layers = 2;
    config.seed = 31;
    data::SyntheticSpec spec;
    spec.name = "fuzz-nan";
    spec.n_features = 12;
    spec.n_classes = 3;
    spec.n_train = 90;
    spec.n_test = 30;
    spec.n_levels = 4;
    spec.seed = 8;
    data::Dataset train = data::make_benchmark(spec).train;
    train.X(0, 0) = std::numeric_limits<float>::quiet_NaN();
    api::Owner owner = api::Owner::provision(config);
    owner.train(train);

    for (const auto& [kind, bytes] : {std::pair{"owner", serialize(owner.to_bundle())},
                                      std::pair{"device", serialize(owner.to_device_bundle())}}) {
        EXPECT_EQ(try_load_stream(bytes), LoadOutcome::loaded) << kind;
        EXPECT_EQ(try_load_span(bytes), LoadOutcome::loaded) << kind;
    }
}

}  // namespace
