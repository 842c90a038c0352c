#include "contracts/policy.hpp"

#include "vm/assembler.hpp"

namespace mc::contracts {
namespace {

// Storage layout:
//   H(2, dataset)           -> owner word
//   H(1, dataset, grantee)  -> permission bits
constexpr char kSource[] = R"(
; ---- dispatch on calldata[0] ----
PUSH 0
CALLDATALOAD
DUP 1
PUSH 1
EQ
JUMPI @register
DUP 1
PUSH 2
EQ
JUMPI @grant
DUP 1
PUSH 3
EQ
JUMPI @revoke
DUP 1
PUSH 4
EQ
JUMPI @check
DUP 1
PUSH 5
EQ
JUMPI @owner_of
REVERT

; ---- register(dataset): claim ownership if unowned ----
register:
POP
PUSH 1
CALLDATALOAD        ; [ds]
PUSH 2              ; [ds,2]
DUP 2               ; [ds,2,ds]
HASHN 2             ; [ds,okey]
DUP 1               ; [ds,okey,okey]
SLOAD               ; [ds,okey,owner]
ISZERO              ; [ds,okey,unowned]
JUMPI @reg_ok
REVERT
reg_ok:
CALLER              ; [ds,okey,caller]
SWAP 1              ; [ds,caller,okey]
SSTORE              ; [ds]
DUP 1               ; [ds,ds]
CALLER              ; [ds,ds,caller]
PUSH 100            ; topic: dataset owner registered
EMIT 2              ; [ds]
POP
PUSH 1
RETURN 1

; ---- grant(dataset, grantee, perm): owner only ----
grant:
POP
PUSH 2
PUSH 1
CALLDATALOAD        ; [2,ds]
HASHN 2             ; [okey]
SLOAD               ; [owner]
CALLER              ; [owner,caller]
EQ
JUMPI @grant_ok
REVERT
grant_ok:
PUSH 1              ; [1]
PUSH 1
CALLDATALOAD        ; [1,ds]
PUSH 2
CALLDATALOAD        ; [1,ds,grantee]
HASHN 3             ; [pkey]
PUSH 3
CALLDATALOAD        ; [pkey,perm]
SWAP 1              ; [perm,pkey]
SSTORE              ; []
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
PUSH 3
CALLDATALOAD
PUSH 101            ; topic: access granted
EMIT 3
PUSH 1
RETURN 1

; ---- revoke(dataset, grantee): owner only ----
revoke:
POP
PUSH 2
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD
CALLER
EQ
JUMPI @revoke_ok
REVERT
revoke_ok:
PUSH 0              ; [0]  (cleared permission value)
PUSH 1              ; [0,1]
PUSH 1
CALLDATALOAD        ; [0,1,ds]
PUSH 2
CALLDATALOAD        ; [0,1,ds,grantee]
HASHN 3             ; [0,pkey]
SSTORE              ; []
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
PUSH 102            ; topic: access revoked
EMIT 2
PUSH 1
RETURN 1

; ---- check(dataset, grantee, need) -> (perm & need) == need ----
check:
POP
PUSH 1
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
HASHN 3             ; [pkey]
SLOAD               ; [perm]
PUSH 3
CALLDATALOAD        ; [perm,need]
DUP 1               ; [perm,need,need]
SWAP 2              ; [need,need,perm]
AND                 ; [need,need&perm]
EQ                  ; [ok]
RETURN 1

; ---- owner_of(dataset) ----
owner_of:
POP
PUSH 2
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD
RETURN 1
)";

}  // namespace

const char* PolicyContract::source() { return kSource; }

const Bytes& PolicyContract::bytecode() {
  static const Bytes code = vm::assemble(kSource);
  return code;
}

bool PolicyContract::register_dataset(Word caller, Word dataset) {
  auto r = invoke(caller, encode_call(1, {dataset}));
  return r.has_value() && r->ok();
}

bool PolicyContract::grant(Word caller, Word dataset, Word grantee,
                           Word perm) {
  auto r = invoke(caller, encode_call(2, {dataset, grantee, perm}));
  return r.has_value() && r->ok();
}

bool PolicyContract::revoke(Word caller, Word dataset, Word grantee) {
  auto r = invoke(caller, encode_call(3, {dataset, grantee}));
  return r.has_value() && r->ok();
}

bool PolicyContract::check(Word dataset, Word grantee, Word need) {
  auto r = invoke(/*caller=*/0, encode_call(4, {dataset, grantee, need}));
  return r.has_value() && r->ok() && !r->returned.empty() &&
         r->returned[0] == 1;
}

Word PolicyContract::owner_of(Word dataset) {
  auto r = invoke(/*caller=*/0, encode_call(5, {dataset}));
  if (!r.has_value() || !r->ok() || r->returned.empty()) return 0;
  return r->returned[0];
}

}  // namespace mc::contracts
