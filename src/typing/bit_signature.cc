#include "typing/bit_signature.h"

#include <bit>

namespace schemex::typing {

BitSignatureIndex::BitSignatureIndex(const TypingProgram& program) {
  for (const TypeDef& t : program.types()) {
    for (const TypedLink& l : t.signature.links()) {
      bit_of_.try_emplace(l, static_cast<uint32_t>(bit_of_.size()));
    }
  }
}

BitSignature BitSignatureIndex::EncodeFrozen(const TypeSignature& sig) const {
  BitSignature out;
  for (const TypedLink& l : sig.links()) {
    auto it = bit_of_.find(l);
    if (it == bit_of_.end()) {
      ++out.extra;
      continue;
    }
    size_t word = it->second / 64;
    if (word >= out.words.size()) out.words.resize(word + 1, 0);
    out.words[word] |= uint64_t{1} << (it->second % 64);
  }
  return out;
}

size_t BitSignatureIndex::Distance(const BitSignature& a,
                                   const BitSignature& b) {
  const std::vector<uint64_t>& shorter =
      a.words.size() <= b.words.size() ? a.words : b.words;
  const std::vector<uint64_t>& longer =
      a.words.size() <= b.words.size() ? b.words : a.words;
  size_t d = static_cast<size_t>(a.extra) + static_cast<size_t>(b.extra);
  size_t w = 0;
  for (; w < shorter.size(); ++w) {
    d += static_cast<size_t>(std::popcount(shorter[w] ^ longer[w]));
  }
  for (; w < longer.size(); ++w) {
    d += static_cast<size_t>(std::popcount(longer[w]));
  }
  return d;
}

}  // namespace schemex::typing
