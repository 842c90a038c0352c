#include "chain/vm_hook.hpp"

#include <string>

#include "common/serial.hpp"

namespace mc::chain {

Bytes encode_call_payload(vm::Word contract_id,
                          const std::vector<vm::Word>& calldata) {
  ByteWriter w;
  w.u64(contract_id);
  w.varint(calldata.size());
  for (const vm::Word word : calldata) w.u64(word);
  return w.take();
}

std::optional<DecodedCall> decode_call_payload(BytesView payload) {
  try {
    ByteReader r(payload);
    DecodedCall call;
    call.contract_id = r.u64();
    const std::uint64_t n = r.varint();
    if (n > 4'096) return std::nullopt;  // sanity cap on calldata words
    call.calldata.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) call.calldata.push_back(r.u64());
    if (!r.done()) return std::nullopt;
    return call;
  } catch (const SerialError&) {
    return std::nullopt;
  }
}

namespace {

/// VM context of a Call tx at `height`.
vm::ExecContext call_context(const Transaction& tx, Height height,
                             std::vector<vm::Word> calldata) {
  vm::ExecContext ctx;
  ctx.caller = fnv1a(BytesView(tx.from.data));
  ctx.call_value = tx.amount;
  ctx.height = height;
  ctx.gas_limit = tx.gas_limit;
  ctx.calldata = std::move(calldata);
  return ctx;
}

}  // namespace

std::string CallRun::error() const {
  if (!call.has_value()) return unresolved;
  return "contract trapped: " + std::string(vm::halt_name(call->result.halt));
}

std::optional<Gas> VmExecutionHook::deploy(const Transaction& tx,
                                           Height height, std::string& error) {
  if (!vm::code_well_formed(BytesView(tx.payload))) {
    error = "malformed contract bytecode";
    return std::nullopt;
  }
  vm::Word id = 0;
  try {
    // This hook is the one sanctioned route from a Deploy transaction to
    // the store; the admission gate and footprint summaries run inside.
    // medchain-lint: allow(footprint-bypass)
    id = store_.deploy(tx.payload, fnv1a(BytesView(tx.from.data)), height);
  } catch (const vm::AdmissionError& rejected) {
    error = rejected.what();
    return std::nullopt;
  }
  // tx.id() here is a cache hit: the id was memoized when the tx was
  // signed/decoded, so indexing by it costs no re-hash even though every
  // member re-executes the deployment.
  deployed_[tx.id()] = id;
  // Deployment gas: proportional to code size (storage rent analogue).
  return 200 * static_cast<Gas>(tx.payload.size());
}

CallRun VmExecutionHook::call_speculative(const Transaction& tx,
                                          Height height) const {
  CallRun run;
  auto call = decode_call_payload(BytesView(tx.payload));
  if (!call.has_value()) {
    run.unresolved = "malformed call payload";
    return run;
  }
  vm::ExecContext ctx = call_context(tx, height, std::move(call->calldata));
  run.call = store_.call_speculative(call->contract_id, std::move(ctx));
  if (!run.call.has_value()) run.unresolved = "call to unknown contract";
  return run;
}

std::optional<vm::Word> VmExecutionHook::contract_id_of(
    const TxId& deploy_tx) const {
  auto it = deployed_.find(deploy_tx);
  if (it == deployed_.end()) return std::nullopt;
  if (!store_.exists(it->second)) return std::nullopt;  // rolled back
  return it->second;
}

Transaction make_deploy(const crypto::PrivateKey& from, Bytes bytecode,
                        std::uint64_t nonce, Gas gas_limit) {
  Transaction tx;
  tx.kind = TxKind::Deploy;
  tx.nonce = nonce;
  tx.gas_limit = gas_limit;
  tx.payload = std::move(bytecode);
  tx.sign_with(from);
  return tx;
}

Transaction make_call(const crypto::PrivateKey& from, vm::Word contract_id,
                      std::vector<vm::Word> calldata, std::uint64_t nonce,
                      Gas gas_limit) {
  Transaction tx;
  tx.kind = TxKind::Call;
  tx.nonce = nonce;
  tx.gas_limit = gas_limit;
  tx.payload = encode_call_payload(contract_id, calldata);
  tx.sign_with(from);
  return tx;
}

}  // namespace mc::chain
