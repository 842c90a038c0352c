#include "contracts/registry.hpp"

#include "vm/assembler.hpp"

namespace mc::contracts {
namespace {

// Storage layout:
//   H(10, ds)   -> content digest word
//   H(11, ds)   -> owner word
//   H(12, ds)   -> record count
//   H(13, ds)   -> schema id
//   H(20, tool) -> tool code digest
//   H(21, tool) -> tool owner
constexpr char kSource[] = R"(
PUSH 0
CALLDATALOAD
DUP 1
PUSH 1
EQ
JUMPI @reg_ds
DUP 1
PUSH 2
EQ
JUMPI @update
DUP 1
PUSH 3
EQ
JUMPI @get_digest
DUP 1
PUSH 4
EQ
JUMPI @get_meta
DUP 1
PUSH 5
EQ
JUMPI @reg_tool
DUP 1
PUSH 6
EQ
JUMPI @get_tool
REVERT

; ---- register_dataset(ds, digest, count, schema) ----
reg_ds:
POP
; owned already?
PUSH 11
PUSH 1
CALLDATALOAD
HASHN 2             ; [okey]
DUP 1               ; [okey,okey]
SLOAD               ; [okey,owner]
ISZERO
JUMPI @reg_ds_ok
REVERT
reg_ds_ok:
CALLER              ; [okey,caller]
SWAP 1              ; [caller,okey]
SSTORE              ; []
; digest
PUSH 2
CALLDATALOAD        ; [digest]
PUSH 10
PUSH 1
CALLDATALOAD
HASHN 2             ; [digest,dkey]
SSTORE
; record count
PUSH 3
CALLDATALOAD
PUSH 12
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE
; schema id
PUSH 4
CALLDATALOAD
PUSH 13
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
PUSH 110            ; topic: dataset registered
EMIT 2
PUSH 1
RETURN 1

; ---- update_digest(ds, digest, count): owner only ----
update:
POP
PUSH 11
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD
CALLER
EQ
JUMPI @update_ok
REVERT
update_ok:
PUSH 2
CALLDATALOAD
PUSH 10
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE
PUSH 3
CALLDATALOAD
PUSH 12
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
PUSH 111            ; topic: digest updated
EMIT 2
PUSH 1
RETURN 1

; ---- get_digest(ds) ----
get_digest:
POP
PUSH 10
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD
RETURN 1

; ---- get_meta(ds) -> (owner, count, schema, digest) ----
get_meta:
POP
PUSH 11
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD               ; [owner]
PUSH 12
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD               ; [owner,count]
PUSH 13
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD               ; [owner,count,schema]
PUSH 10
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD               ; [owner,count,schema,digest]
RETURN 4

; ---- register_tool(tool, code_digest) ----
reg_tool:
POP
PUSH 21
PUSH 1
CALLDATALOAD
HASHN 2             ; [okey]
DUP 1
SLOAD
ISZERO
JUMPI @reg_tool_ok
REVERT
reg_tool_ok:
CALLER
SWAP 1
SSTORE
PUSH 2
CALLDATALOAD
PUSH 20
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
PUSH 112            ; topic: tool registered
EMIT 2
PUSH 1
RETURN 1

; ---- get_tool(tool) ----
get_tool:
POP
PUSH 20
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD
RETURN 1
)";

}  // namespace

const char* RegistryContract::source() { return kSource; }

const Bytes& RegistryContract::bytecode() {
  static const Bytes code = vm::assemble(kSource);
  return code;
}

bool RegistryContract::register_dataset(Word caller, Word dataset, Word digest,
                                        Word record_count, Word schema_id) {
  auto r = invoke(caller,
                  encode_call(1, {dataset, digest, record_count, schema_id}));
  return r.has_value() && r->ok();
}

bool RegistryContract::update_digest(Word caller, Word dataset, Word digest,
                                     Word record_count) {
  auto r = invoke(caller, encode_call(2, {dataset, digest, record_count}));
  return r.has_value() && r->ok();
}

Word RegistryContract::digest_of(Word dataset) {
  auto r = invoke(0, encode_call(3, {dataset}));
  if (!r.has_value() || !r->ok() || r->returned.empty()) return 0;
  return r->returned[0];
}

std::optional<DatasetMeta> RegistryContract::meta_of(Word dataset) {
  auto r = invoke(0, encode_call(4, {dataset}));
  if (!r.has_value() || !r->ok() || r->returned.size() != 4)
    return std::nullopt;
  DatasetMeta meta;
  meta.owner = r->returned[0];
  meta.record_count = r->returned[1];
  meta.schema_id = r->returned[2];
  meta.digest = r->returned[3];
  if (meta.owner == 0) return std::nullopt;
  return meta;
}

bool RegistryContract::register_tool(Word caller, Word tool,
                                     Word code_digest) {
  auto r = invoke(caller, encode_call(5, {tool, code_digest}));
  return r.has_value() && r->ok();
}

Word RegistryContract::tool_digest(Word tool) {
  auto r = invoke(0, encode_call(6, {tool}));
  if (!r.has_value() || !r->ok() || r->returned.empty()) return 0;
  return r->returned[0];
}

}  // namespace mc::contracts
