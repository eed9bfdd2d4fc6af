// Golden renders: the PPM bytes `/api/rep` serves for a fixed-seed corpus,
// pinned as FNV-1a hashes recorded before the vectorized noise kernel
// existed. Whatever SIMD level this host dispatches, `Render` must still
// produce exactly those bytes.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/core/distance_kernels.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/image/ppm_io.h"

namespace qdcbir {
namespace {

// FNV-1a of EncodePpm(Render(id)) for ids 0, 4, ..., 252.
constexpr std::uint64_t kGoldenHashes[64] = {
    0x5af3af721029dd02ull, 0xcc69ae9280226947ull, 0x73fd606731c80e91ull,
    0x437996a009d89cbeull, 0x121d7a77d2a427bbull, 0xc3619fe631a03514ull,
    0x69fa8a5cb09123d8ull, 0x6704315900b47e0aull, 0xe1da76c208c09200ull,
    0xb1a3f672f62116c5ull, 0xeb96d260104fdcf1ull, 0x7f2c07948c751807ull,
    0x2e6bef7b0095deb5ull, 0xf12d88396e00d71full, 0x96b0e06aea4d0e36ull,
    0xb031ad5c415b1c13ull, 0xf86c4e799c6d599cull, 0x3ce75f8ecfa563e3ull,
    0x8d7abb114c509e7full, 0xa3dcf123b534e46eull, 0x1b1e04306d7f2d7full,
    0x1940e0344149864aull, 0xda2ffc4b1cc455fcull, 0xd3250566d5164b88ull,
    0x8a091b3089ab6ce1ull, 0x12b8acaa4d0178bfull, 0x1112f78a0d6c8a96ull,
    0xc6de904ab0015eb6ull, 0xe0aef3e64f4c3fd0ull, 0x76a780294036df5bull,
    0x9811a7ec3970db37ull, 0xd430337f66e22bffull, 0x39e0ebf5d09db171ull,
    0xe8fe2004d457d194ull, 0x2e2b4b7eadca941aull, 0x2f8596f39232b2c9ull,
    0x7ca98398d7333b83ull, 0x13d44a8630f52409ull, 0xe92c2e77df5efa4full,
    0x28326f49712bf792ull, 0xe3973ee73a7e3af5ull, 0xd53a7d36f9163037ull,
    0x436cdec01925e013ull, 0x8c3a3ea94cbbb299ull, 0xbf75af69664aeec0ull,
    0x56ee6f70286459fdull, 0xe61351a4f6ae5bdfull, 0x740c41d3107abed8ull,
    0xb7222f02d6665ac4ull, 0xbfa97d19522edffdull, 0x8cb5e28cda9f8158ull,
    0xe48e2821dfe53e24ull, 0x3bfc8e3cc3e495fcull, 0xaea1f64c2c11146full,
    0x25a9f64b79e1daa2ull, 0x9895c4fdd1acdbf9ull, 0xad52987236098d11ull,
    0x5ce70c8b4a98d001ull, 0xd1a7e3ffe7382d63ull, 0x7db105534f119847ull,
    0x5a91eb6375941ad8ull, 0x22e12a34cd2adc02ull, 0x613472e4ab62cb14ull,
    0xfc44911a6119c216ull,
};

TEST(RenderGoldenTest, PpmBytesMatchPinnedHashes) {
  CatalogOptions catalog_options;
  catalog_options.num_categories = 40;
  const Catalog catalog = Catalog::Build(catalog_options).value();
  SynthesizerOptions options;
  options.total_images = 256;
  options.seed = 7;
  options.extract_viewpoint_channels = false;
  const ImageDatabase db =
      DatabaseSynthesizer::Synthesize(catalog, options).value();
  SCOPED_TRACE(::testing::Message() << "simd " << ActiveSimdName());
  for (ImageId id = 0; id < 256; id += 4) {
    const std::string ppm = EncodePpm(db.Render(id));
    EXPECT_EQ(cache::HashBytes(ppm.data(), ppm.size()), kGoldenHashes[id / 4])
        << "image " << id;
  }
}

}  // namespace
}  // namespace qdcbir
