// From-scratch reference for the ledger state commitment (DESIGN.md §16).
//
// WorldState::digest() maintains its account trie incrementally and
// rehashes only dirty paths through the multi-lane SHA-256 engine. This
// is the deliberately naive oracle it is checked against: sort every
// account, build the same 16-ary trie bottom-up with scalar SHA-256 and
// fold every anchor in order. The two implement one format
// independently, so changing the format takes an edit in both places.
#pragma once

#include "common/bytes.hpp"

namespace mc::chain {
class WorldState;
}

namespace mc::audit {

/// WorldState::digest() recomputed from nothing in O(state log state).
/// Used by ChainAuditor::audit_state_roots, the audit-build check after
/// every Node commit, and the state-commitment tests.
[[nodiscard]] Hash256 reference_state_digest(const chain::WorldState& state);

}  // namespace mc::audit
