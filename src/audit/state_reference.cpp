#include "audit/state_reference.hpp"

#include <algorithm>
#include <vector>

#include "chain/state.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace mc::audit {

namespace {

struct Entry {
  chain::Address addr;
  chain::Account acct;
};

unsigned nibble(const chain::Address& a, unsigned depth) {
  const std::uint8_t byte = a.data[depth / 2];
  return (depth % 2 == 0 ? byte >> 4 : byte) & 0xFu;
}

/// Digest of the subtree over sorted entries [lo, hi) (hi - lo >= 1)
/// whose addresses share their first `depth` nibbles.
Hash256 subtree(const std::vector<Entry>& sorted, std::size_t lo,
                std::size_t hi, unsigned depth) {
  ByteWriter w;
  if (hi - lo == 1) {  // a single account collapses to its leaf
    w.u8(0x00);
    w.raw(BytesView(sorted[lo].addr.data));
    w.u64(sorted[lo].acct.balance);
    w.u64(sorted[lo].acct.nonce);
    return crypto::sha256(BytesView(w.data()));
  }
  std::uint16_t bitmap = 0;
  std::vector<Hash256> children;
  std::size_t at = lo;
  for (unsigned k = 0; k < 16; ++k) {
    std::size_t end = at;
    while (end < hi && nibble(sorted[end].addr, depth) == k) ++end;
    if (end > at) {
      bitmap = static_cast<std::uint16_t>(bitmap | (1u << k));
      children.push_back(subtree(sorted, at, end, depth + 1));
    }
    at = end;
  }
  w.u8(0x01);
  w.u16(bitmap);
  for (const Hash256& c : children) w.hash(c);
  return crypto::sha256(BytesView(w.data()));
}

}  // namespace

Hash256 reference_state_digest(const chain::WorldState& state) {
  std::vector<Entry> sorted;
  sorted.reserve(state.account_count());
  state.for_each_account(
      [&](const chain::Address& a, const chain::Account& acct) {
        sorted.push_back(Entry{a, acct});
      });
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry& a, const Entry& b) { return a.addr < b.addr; });
  const Hash256 root =
      sorted.empty() ? Hash256{} : subtree(sorted, 0, sorted.size(), 0);

  Hash256 acc{};
  for (const chain::AnchorRecord& r : state.anchors()) {
    ByteWriter w;
    w.u8(0x02);
    w.hash(acc);
    w.raw(BytesView(r.owner.data));
    w.hash(r.digest);
    w.u64(r.height);
    acc = crypto::sha256(BytesView(w.data()));
  }

  ByteWriter w;
  w.u8(0x03);
  w.hash(root);
  w.hash(acc);
  w.u64(state.anchors().size());
  return crypto::sha256(BytesView(w.data()));
}

}  // namespace mc::audit
