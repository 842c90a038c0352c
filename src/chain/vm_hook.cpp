#include "chain/vm_hook.hpp"

#include <stdexcept>

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

/// VM context of a Call tx at `height` (execute and speculate alike).
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

Gas VmExecutionHook::execute(const Transaction& tx, Height height) {
  if (tx.kind == TxKind::Deploy) {
    if (!vm::code_well_formed(BytesView(tx.payload)))
      throw std::invalid_argument("malformed contract bytecode");
    // This hook is the one sanctioned route from a Deploy transaction to
    // the store; the admission gate and footprint summaries run inside.
    const vm::Word id =
        // medchain-lint: allow(footprint-bypass)
        store_.deploy(tx.payload, fnv1a(BytesView(tx.from.data)), height);
    // tx.id() here is a cache hit: the id was memoized when the tx was
    // signed/decoded, so indexing by it costs no re-hash even though every
    // member re-executes the deployment.
    deployed_[tx.id()] = id;
    // Deployment gas: proportional to code size (storage rent analogue).
    return 200 * static_cast<Gas>(tx.payload.size());
  }

  if (tx.kind != TxKind::Call)
    throw std::invalid_argument("hook only executes Deploy/Call");

  auto call = decode_call_payload(BytesView(tx.payload));
  if (!call.has_value())
    throw std::invalid_argument("malformed call payload");
  vm::ExecContext ctx = call_context(tx, height, std::move(call->calldata));
  const auto result = store_.call(call->contract_id, std::move(ctx), host_);
  if (!result.has_value())
    throw std::invalid_argument("call to unknown contract");
  if (!result->ok())
    throw std::runtime_error(std::string("contract trapped: ") +
                             std::string(vm::halt_name(result->halt)));
  return result->gas_used;
}

std::optional<exec::SpeculativeRun> VmExecutionHook::speculate(
    const Transaction& tx, Height height) const {
  if (tx.kind != TxKind::Call) return std::nullopt;
  auto call = decode_call_payload(BytesView(tx.payload));
  // Malformed payloads and non-speculable targets (unknown contracts,
  // oracle users) fall back to the commit slot, where execute() raises
  // the same verdict sequential execution would.
  if (!call.has_value()) return std::nullopt;
  if (!store_.speculable(call->contract_id)) return std::nullopt;

  vm::ExecContext ctx = call_context(tx, height, std::move(call->calldata));
  auto spec = store_.call_speculative(call->contract_id, std::move(ctx));
  if (!spec.has_value()) return std::nullopt;
  return exec::SpeculativeRun{std::move(*spec)};
}

void VmExecutionHook::rollback_to(Height height) {
  store_.rollback_to(height);
  // Deploy-id mappings for rolled-back transactions stay harmless: the
  // contracts they name no longer exist, so lookups miss cleanly.
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
