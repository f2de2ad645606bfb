#ifndef SCHEMEX_TYPING_BIT_SIGNATURE_H_
#define SCHEMEX_TYPING_BIT_SIGNATURE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "typing/type_signature.h"
#include "typing/typing_program.h"

namespace schemex::typing {

/// A TypeSignature packed into fixed-width bit-vector form: one bit per
/// distinct typed link of the owning BitSignatureIndex's universe, so the
/// paper's symmetric-difference distance d(t1, t2) (§5.2) becomes an
/// XOR + popcount loop over uint64_t words instead of a sorted-vector
/// merge. `extra` counts links of the source signature that lie OUTSIDE
/// the universe (e.g. Stage-3 object pictures); each such link can never
/// match a universe-only signature, so it contributes exactly +1 to any
/// distance against one.
struct BitSignature {
  std::vector<uint64_t> words;
  uint32_t extra = 0;
};

/// Maps the distinct typed links of one program to dense bit positions,
/// assigned in first-encounter order (type order, then link order), so
/// rebuilding the index over the same program always yields the same
/// packing. The universe is fixed at construction: the program's own
/// rule bodies encode with no extras, and any other signature (an object
/// picture, a probe) tallies its out-of-universe links in `extra`.
///
/// An encoding's word vector ends at its highest set bit; Distance
/// zero-extends the shorter one.
///
/// Immutable after construction, so safe to share across threads.
class BitSignatureIndex {
 public:
  /// Registers every distinct typed link of `program`, in type order.
  explicit BitSignatureIndex(const TypingProgram& program);

  /// Number of distinct typed links in the universe (the program's L).
  size_t NumBits() const { return bit_of_.size(); }

  /// Words needed to hold every registered bit.
  size_t NumWords() const { return (NumBits() + 63) / 64; }

  /// Packs `sig`; links outside the universe are tallied in the result's
  /// `extra`.
  BitSignature EncodeFrozen(const TypeSignature& sig) const;

  /// |a Δ b| over the packed words (+ both extras). Exactly equal to
  /// TypeSignature::SymmetricDifferenceSize for encodings of this index
  /// whenever at most one side carries extras, e.g. a probe against a
  /// program rule body.
  static size_t Distance(const BitSignature& a, const BitSignature& b);

 private:
  struct LinkHash {
    size_t operator()(const TypedLink& l) const {
      return static_cast<size_t>(HashTypedLink(l));
    }
  };

  std::unordered_map<TypedLink, uint32_t, LinkHash> bit_of_;
};

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_BIT_SIGNATURE_H_
