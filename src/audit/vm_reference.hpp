// Byte-at-a-time reference interpreter for the contract VM (DESIGN.md §12).
//
// vm::execute runs a program lowered once at deployment: fixed-width
// instructions, jump targets resolved to indices, gas and steps charged
// per straight-line run, and no per-op stack checks for analyzer-clean
// code. This is the deliberately naive oracle it is checked against: it
// decodes every instruction from the bytes as it reaches it and charges
// and checks every step. Audit builds run both on every ContractStore
// run; the VM property tests, the fuzz harness and the limit sweep
// compare the two everywhere else. The two implement one instruction
// set independently, so changing it takes an edit in both places.
#pragma once

#include "common/bytes.hpp"
#include "vm/vm.hpp"

namespace mc::audit {

/// Same contract as vm::execute: `code` over committed `storage`,
/// SSTOREs buffered into the returned write-set, events delivered to
/// `host` only on success, ExecContext::trace recorded when set.
[[nodiscard]] vm::ExecResult reference_execute(BytesView code,
                                               const vm::Storage& storage,
                                               const vm::ExecContext& ctx,
                                               vm::Host& host);

}  // namespace mc::audit
