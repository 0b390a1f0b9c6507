#include "exec/key_codec.hpp"

#include <algorithm>
#include <bit>

namespace quotient {

void KeyCodec::Seal() {
  shifts_.assign(dicts_.size(), 0);
  masks_.assign(dicts_.size(), 0);
  uint32_t offset = 0;
  bool overflow = false;
  for (size_t c = 0; c < dicts_.size(); ++c) {
    size_t n = dicts_[c].size();
    // Minimal width for ids 0..n-1; an empty or single-value dictionary
    // contributes no bits (its id is always 0).
    uint32_t width = n <= 1 ? 0 : static_cast<uint32_t>(std::bit_width(n - 1));
    if (offset + width > 64) {
      overflow = true;
      break;
    }
    shifts_[c] = offset;
    masks_[c] = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    offset += width;
  }
  spilled_ = overflow;
  sealed_ = true;
}

void KeyCodec::AppendTranslated(const KeyCodec& part) {
  size_t nc = dicts_.size();
  if (part.num_rows_ == 0 || nc == 0) {
    num_rows_ += part.num_rows_;
    return;
  }
  // Lazy per-column translation: part id -> this codec's id, resolved once
  // per (column, distinct part value). kNotFound marks unfilled slots — a
  // translated id is always a real dense id, so it can never collide.
  std::vector<std::vector<uint32_t>> xlat(nc);
  for (size_t c = 0; c < nc; ++c) xlat[c].assign(part.dicts_[c].size(), ValueDict::kNotFound);
  // Translate a block of rows, then append it whole: past the spill
  // watermark every Append is one partition, one charge and one flush
  // check, so appending per row would write one-row runs.
  constexpr size_t kBlockRows = 1024;
  for (size_t first = 0; first < part.num_rows_; first += kBlockRows) {
    size_t n = std::min(kBlockRows, part.num_rows_ - first);
    scratch_.resize(n * nc);
    uint32_t* dst = scratch_.data();
    for (size_t r = first; r < first + n; ++r, dst += nc) {
      const uint32_t* src = part.ids_.Row(r);
      for (size_t c = 0; c < nc; ++c) {
        uint32_t& slot = xlat[c][src[c]];
        if (slot == ValueDict::kNotFound) slot = dicts_[c].GetOrAdd(part.dicts_[c].At(src[c]));
        dst[c] = slot;
      }
    }
    ids_.Append(scratch_.data(), n);
  }
  num_rows_ += part.num_rows_;
}

}  // namespace quotient
