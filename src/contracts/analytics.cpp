#include "contracts/analytics.hpp"

#include "common/serial.hpp"
#include "crypto/sha256.hpp"
#include "vm/assembler.hpp"

namespace mc::contracts {
namespace {

// Storage layout:
//   1              -> bridge (admin) identity
//   2              -> policy contract id (permission source of truth)
//   H(40, req)     -> requester
//   H(41, req)     -> tool id
//   H(42, req)     -> dataset id
//   H(43, req)     -> parameter digest
//   H(44, req)     -> status (1 pending, 2 done)
//   H(45, req)     -> result digest
//
// Permission enforcement is fully on-chain: the request handler SXLOADs
// the policy contract's grant slot H(1, dataset, caller) and requires
// the compute bit (2) — every replica evaluates the identical committed
// state, so no off-chain oracle is in the consensus path. The ORACLE
// opcode remains available to contracts that need off-chain data feeds.
constexpr char kSource[] = R"(
PUSH 0
CALLDATALOAD
DUP 1
PUSH 1
EQ
JUMPI @req
DUP 1
PUSH 2
EQ
JUMPI @complete
DUP 1
PUSH 3
EQ
JUMPI @status
DUP 1
PUSH 4
EQ
JUMPI @result
DUP 1
PUSH 7
EQ
JUMPI @init
REVERT

; ---- init(bridge, policy_id): one-time binding ----
init:
POP
PUSH 1
SLOAD
ISZERO
JUMPI @init_ok
REVERT
init_ok:
PUSH 1
CALLDATALOAD        ; [bridge]
PUSH 1              ; [bridge,1]
SSTORE
PUSH 2
CALLDATALOAD        ; [policy]
PUSH 2              ; [policy,2]
SSTORE
PUSH 1
RETURN 1

; ---- request(req, tool, dataset, param_digest) ----
req:
POP
; fresh request id?
PUSH 44
PUSH 1
CALLDATALOAD
HASHN 2             ; [skey]
SLOAD               ; [status]
ISZERO
JUMPI @req_fresh
REVERT
req_fresh:
; on-chain permission: policy.perm[H(1, dataset, caller)] & COMPUTE
PUSH 1              ; [1]   (policy kind tag)
PUSH 3
CALLDATALOAD        ; [1,dataset]
CALLER              ; [1,dataset,caller]
HASHN 3             ; [pkey]
PUSH 2
SLOAD               ; [pkey,policy_id]
SXLOAD              ; [perm]
PUSH 2              ; compute bit
AND
JUMPI @req_permitted
REVERT
req_permitted:
; store the request fields
CALLER
PUSH 40
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE
PUSH 2
CALLDATALOAD
PUSH 41
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE
PUSH 3
CALLDATALOAD
PUSH 42
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE
PUSH 4
CALLDATALOAD
PUSH 43
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE
; status = pending
PUSH 1
PUSH 44
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
PUSH 3
CALLDATALOAD
PUSH 130            ; topic: analytics requested
EMIT 3
PUSH 1
RETURN 1

; ---- complete(req, result_digest): bridge only ----
complete:
POP
PUSH 1
SLOAD               ; [bridge]
CALLER
EQ
JUMPI @complete_auth
REVERT
complete_auth:
; request must be pending
PUSH 44
PUSH 1
CALLDATALOAD
HASHN 2             ; [skey]
DUP 1
SLOAD               ; [skey,status]
PUSH 1
EQ                  ; [skey,pending]
JUMPI @complete_ok
REVERT
complete_ok:
PUSH 2              ; [skey,2]
SWAP 1              ; [2,skey]
SSTORE              ; status = done
PUSH 2
CALLDATALOAD
PUSH 45
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE              ; result digest
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
PUSH 131            ; topic: analytics completed
EMIT 2
PUSH 1
RETURN 1

; ---- status(req) ----
status:
POP
PUSH 44
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD
RETURN 1

; ---- result(req) ----
result:
POP
PUSH 45
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD
RETURN 1
)";

/// Storage key helper mirroring the on-chain HASHN(2) construction.
Word field_key(Word kind, Word request_id) {
  ByteWriter w;
  w.u64(kind);
  w.u64(request_id);
  return crypto::sha256(BytesView(w.data())).prefix_u64();
}

}  // namespace

const char* AnalyticsContract::source() { return kSource; }

const Bytes& AnalyticsContract::bytecode() {
  static const Bytes code = vm::assemble(kSource);
  return code;
}

bool AnalyticsContract::init(Word caller, Word bridge,
                             Word policy_contract_id) {
  auto r = invoke(caller, encode_call(7, {bridge, policy_contract_id}));
  return r.has_value() && r->ok();
}

bool AnalyticsContract::request(Word caller, Word request_id, Word tool,
                                Word dataset, Word param_digest) {
  auto r = invoke(caller,
                  encode_call(1, {request_id, tool, dataset, param_digest}));
  return r.has_value() && r->ok();
}

bool AnalyticsContract::complete(Word caller, Word request_id,
                                 Word result_digest) {
  auto r = invoke(caller, encode_call(2, {request_id, result_digest}));
  return r.has_value() && r->ok();
}

RequestStatus AnalyticsContract::status(Word request_id) {
  auto r = invoke(0, encode_call(3, {request_id}));
  if (!r.has_value() || !r->ok() || r->returned.empty())
    return RequestStatus::None;
  return static_cast<RequestStatus>(r->returned[0]);
}

Word AnalyticsContract::result(Word request_id) {
  auto r = invoke(0, encode_call(4, {request_id}));
  if (!r.has_value() || !r->ok() || r->returned.empty()) return 0;
  return r->returned[0];
}

std::optional<AnalyticsRequest> AnalyticsContract::load(Word request_id) {
  const vm::DeployedContract* dc = store_.contract(id_);
  if (dc == nullptr) return std::nullopt;
  const auto read = [&](Word kind) -> Word {
    auto it = dc->storage.find(field_key(kind, request_id));
    return it == dc->storage.end() ? 0 : it->second;
  };
  AnalyticsRequest req;
  req.requester = read(40);
  req.tool = read(41);
  req.dataset = read(42);
  req.param_digest = read(43);
  req.status = static_cast<RequestStatus>(read(44));
  req.result_digest = read(45);
  if (req.status == RequestStatus::None && req.requester == 0)
    return std::nullopt;
  return req;
}

}  // namespace mc::contracts
