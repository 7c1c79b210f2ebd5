// The reuse layer's content-addressed key: which function ran on which
// payload, as a 16-byte value. The payload is hashed (Fnv1a64), never
// stored, so key size is independent of payload size; the function is a
// dense id interned by the owning ReuseLayer.
//
// The key also carries the length of its text form (function + 0x1f + 16
// hex digits, rendered by ReuseLayer::KeyText for the recurrence
// sketches), so the result cache's byte budget charges an entry exactly
// what it charged when the key was that string. Hash and equality read
// only the value fields: no address enters either, so every container
// keyed by it iterates and evicts the same way on every run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/hash.h"

namespace taureau::reuse {

struct ContentKey {
  uint32_t function = 0;      ///< Dense id, interned per ReuseLayer.
  uint32_t text_bytes = 0;    ///< Length of the text form (name + 17).
  uint64_t payload_hash = 0;  ///< Fnv1a64(payload).

  friend bool operator==(const ContentKey&, const ContentKey&) = default;
};
static_assert(sizeof(ContentKey) == 16);

struct ContentKeyHash {
  size_t operator()(const ContentKey& k) const noexcept {
    return size_t(HashCombine(k.payload_hash, k.function));
  }
};

/// Bytes a key costs against a result cache's budget.
inline size_t KeyBytes(const ContentKey& k) { return k.text_bytes; }

}  // namespace taureau::reuse
