// Stream-encoded exchange wire format: null bitmaps,
// cross-batch dictionary carryover, and epoch resets (reconnect/replay)
// leaving already-decoded batches intact.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire_format.h"
#include "tests/testing/batch_builder.h"

namespace pushsip {
namespace {

using testing::BatchBuilder;

void ExpectSameContent(const Batch& got, const Batch& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.num_cols(), want.num_cols());
  for (size_t r = 0; r < got.size(); ++r) {
    for (size_t c = 0; c < got.num_cols(); ++c) {
      const Value g = got.ValueAt(r, c);
      const Value w = want.ValueAt(r, c);
      EXPECT_EQ(g.type(), w.type()) << "row " << r << " col " << c;
      EXPECT_EQ(g.Compare(w), 0) << "row " << r << " col " << c;
    }
  }
}

TEST(WireStreamTest, NullBitmapsRoundTripEveryColumnKind) {
  const Batch batch = BatchBuilder()
                          .I64({1, std::nullopt, 3, std::nullopt})
                          .F64({std::nullopt, 2.5, std::nullopt, 4.5})
                          .Str({"x", std::nullopt, std::nullopt, "y"})
                          .Date({std::nullopt, 10957, 11000, std::nullopt})
                          .Nulls(4)
                          .Build();
  WireStreamEncoder enc;
  WireStreamDecoder dec;
  const std::string bytes =
      enc.SerializeFrame(/*sender=*/0, /*epoch=*/0, /*seq=*/0,
                         /*replayable=*/true, batch);
  Result<BatchFrame> frame = dec.DecodeFrame(bytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_FALSE(frame->stale);
  ExpectSameContent(frame->batch, batch);
  for (size_t c = 0; c < batch.num_cols(); ++c) {
    EXPECT_EQ(frame->batch.col(c).NullCount(), batch.col(c).NullCount());
  }
}

TEST(WireStreamTest, DictionaryCarriesOverAcrossBatchBoundaries) {
  // The same three strings repeat across many batches: the stream encoder
  // must ship each entry exactly once and later frames shrink to codes.
  WireStreamEncoder enc;
  WireStreamDecoder dec;
  size_t first_frame_size = 0;
  std::shared_ptr<StringDict> stream_dict;
  for (uint64_t seq = 0; seq < 8; ++seq) {
    const Batch batch = BatchBuilder()
                            .Str({"alpha", "beta", "gamma", "alpha"})
                            .Build();
    const std::string bytes =
        enc.SerializeFrame(0, 0, seq, true, batch);
    if (seq == 0) first_frame_size = bytes.size();
    if (seq > 0) {
      // No dictionary entries in the frame: codes only.
      EXPECT_LT(bytes.size(), first_frame_size)
          << "frame " << seq << " re-shipped dictionary entries";
    }
    Result<BatchFrame> frame = dec.DecodeFrame(bytes);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ExpectSameContent(frame->batch, batch);
    // Every decoded batch of the stream references one shared dictionary.
    if (stream_dict == nullptr) {
      stream_dict = frame->batch.col(0).dict();
    } else {
      EXPECT_EQ(frame->batch.col(0).dict(), stream_dict);
    }
  }
  EXPECT_EQ(enc.dict_reships(), 0);
  EXPECT_EQ(enc.dict_entries_shipped(), 3);
  EXPECT_EQ(stream_dict->size(), 3u);
}

TEST(WireStreamTest, NewStringsExtendTheStreamDictionaryIncrementally) {
  WireStreamEncoder enc;
  WireStreamDecoder dec;
  const Batch first = BatchBuilder().Str({"a", "b"}).Build();
  const Batch second = BatchBuilder().Str({"b", "c", "a"}).Build();
  ASSERT_TRUE(dec.DecodeFrame(enc.SerializeFrame(0, 0, 0, true, first)).ok());
  Result<BatchFrame> frame =
      dec.DecodeFrame(enc.SerializeFrame(0, 0, 1, true, second));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ExpectSameContent(frame->batch, second);
  // Only "c" was new in the second frame.
  EXPECT_EQ(enc.dict_entries_shipped(), 3);
  EXPECT_EQ(enc.dict_reships(), 0);
}

TEST(WireStreamTest, EpochResetDoesNotCorruptAlreadyDecodedBatches) {
  // Reconnect/replay: the producer restarts (epoch bump), its encoder
  // resets, and the decoder must start fresh dictionaries for the new
  // epoch WITHOUT mutating the dictionary that batches decoded under the
  // old epoch still reference.
  WireStreamEncoder enc;
  WireStreamDecoder dec;
  const Batch old_epoch_batch =
      BatchBuilder().Str({"old0", "old1", "old0"}).Build();
  Result<BatchFrame> old_frame =
      dec.DecodeFrame(enc.SerializeFrame(0, /*epoch=*/0, 0, true,
                                         old_epoch_batch));
  ASSERT_TRUE(old_frame.ok());
  const Batch kept = std::move(old_frame->batch);  // receiver holds on to it

  // Restart: the new epoch's stream re-uses the same codes for different
  // strings. A decoder that recycled the old dictionary in place would
  // rewrite `kept`'s entries.
  enc.Reset();
  const Batch new_epoch_batch =
      BatchBuilder().Str({"new0", "new1", "new1"}).Build();
  Result<BatchFrame> new_frame =
      dec.DecodeFrame(enc.SerializeFrame(0, /*epoch=*/1, 0, true,
                                         new_epoch_batch));
  ASSERT_TRUE(new_frame.ok()) << new_frame.status().ToString();
  EXPECT_FALSE(new_frame->stale);
  ExpectSameContent(new_frame->batch, new_epoch_batch);
  EXPECT_NE(new_frame->batch.col(0).dict(), kept.col(0).dict());

  // The old-epoch batch still reads its original strings.
  EXPECT_EQ(kept.col(0).StringAt(0), "old0");
  EXPECT_EQ(kept.col(0).StringAt(1), "old1");
  EXPECT_EQ(kept.col(0).StringAt(2), "old0");
}

TEST(WireStreamTest, StaleEpochFrameIsFlaggedAndSkipped) {
  WireStreamEncoder current;
  WireStreamEncoder straggler;
  WireStreamDecoder dec;
  const Batch batch = BatchBuilder().Str({"live"}).I64({1}).Build();
  ASSERT_TRUE(
      dec.DecodeFrame(current.SerializeFrame(0, /*epoch=*/2, 0, true, batch))
          .ok());
  // A queued frame from the pre-restart connection arrives late.
  Result<BatchFrame> stale = dec.DecodeFrame(
      straggler.SerializeFrame(0, /*epoch=*/1, 7, true, batch));
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_TRUE(stale->stale);
  EXPECT_TRUE(stale->batch.empty());
  // The stream's current-epoch state survives the straggler.
  Result<BatchFrame> next = dec.DecodeFrame(
      current.SerializeFrame(0, /*epoch=*/2, 1, true, batch));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_FALSE(next->stale);
  ExpectSameContent(next->batch, batch);
}

TEST(WireStreamTest, ReplayAfterResetShipsTheDictionaryAgain) {
  // After Reset() the encoder may not assume anything reached the decoder:
  // the first frame of the new epoch must be self-sufficient.
  WireStreamEncoder enc;
  const Batch batch = BatchBuilder().Str({"p", "q"}).Build();
  (void)enc.SerializeFrame(0, 0, 0, true, batch);
  EXPECT_EQ(enc.dict_entries_shipped(), 2);
  enc.Reset();
  // Fresh decoder (new connection): decoding must not depend on epoch-0
  // frames ever having been seen.
  WireStreamDecoder fresh;
  Result<BatchFrame> frame =
      fresh.DecodeFrame(enc.SerializeFrame(0, 1, 0, true, batch));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ExpectSameContent(frame->batch, batch);
  EXPECT_EQ(enc.dict_entries_shipped(), 4);  // both entries shipped again
  EXPECT_EQ(enc.dict_reships(), 0);  // post-reset shipments are not re-ships
}

TEST(WireStreamTest, FreshSourceDictionaryPerBatchIsNotConfused) {
  // Batches built row by row each own a fresh dictionary, freed with the
  // batch; the next one may reuse its address. The encoder's code cache
  // must not mistake the new dictionary for the old one.
  WireStreamEncoder enc;
  WireStreamDecoder dec;
  for (uint64_t seq = 0; seq < 50; ++seq) {
    const Batch batch =
        BatchBuilder().Str({std::to_string(seq), "shared"}).Build();
    Result<BatchFrame> frame =
        dec.DecodeFrame(enc.SerializeFrame(0, 0, seq, true, batch));
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ExpectSameContent(frame->batch, batch);
  }
  EXPECT_EQ(enc.dict_entries_shipped(), 51);
}

}  // namespace
}  // namespace pushsip
