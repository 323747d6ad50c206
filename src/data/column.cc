#include "data/column.h"

#include <bit>

namespace fastod {

CodeColumn CodeColumn::FromRanks(const std::vector<int32_t>& ranks,
                                 int32_t num_distinct) {
  std::vector<uint32_t> codes(ranks.size());
  for (size_t i = 0; i < ranks.size(); ++i) {
    FASTOD_DCHECK(ranks[i] >= 0 && ranks[i] < num_distinct);
    codes[i] = static_cast<uint32_t>(ranks[i]);
  }
  return CodeColumn(std::move(codes), num_distinct);
}

void ValueDictionary::Builder::Add(const ValueView& value) {
  tags_.push_back(static_cast<uint8_t>(value.type));
  switch (value.type) {
    case DataType::kNull:
      slots_.push_back(0);
      break;
    case DataType::kInt:
      slots_.push_back(value.i);
      break;
    case DataType::kDouble:
      slots_.push_back(std::bit_cast<int64_t>(value.d));
      break;
    case DataType::kString:
      slots_.push_back(static_cast<int64_t>(arena_.size()));
      arena_ += value.s;
      break;
  }
}

ValueDictionary ValueDictionary::Builder::Build() {
  ValueDictionary dict;
  dict.tags_ = std::move(tags_);
  dict.slots_ = std::move(slots_);
  dict.arena_ = std::move(arena_);
  dict.tags_.shrink_to_fit();
  dict.slots_.shrink_to_fit();
  dict.arena_.shrink_to_fit();
  return dict;
}

ValueView ValueDictionary::View(int32_t code) const {
  FASTOD_DCHECK(code >= 0 && code < size());
  ValueView v;
  v.type = static_cast<DataType>(tags_[code]);
  switch (v.type) {
    case DataType::kNull:
      break;
    case DataType::kInt:
      v.i = slots_[code];
      break;
    case DataType::kDouble:
      v.d = std::bit_cast<double>(slots_[code]);
      break;
    case DataType::kString: {
      size_t begin = static_cast<size_t>(slots_[code]);
      // Strings occupy a contiguous code suffix in arena order, so the
      // next entry's offset (or the arena end) bounds this one.
      size_t end = code + 1 < size() ? static_cast<size_t>(slots_[code + 1])
                                     : arena_.size();
      v.s = std::string_view(arena_.data() + begin, end - begin);
      break;
    }
  }
  return v;
}

Value ValueDictionary::At(int32_t code) const {
  return Value::FromView(View(code));
}

}  // namespace fastod
