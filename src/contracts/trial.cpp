#include "contracts/trial.hpp"

#include "vm/assembler.hpp"

namespace mc::contracts {
namespace {

// Storage layout:
//   H(30, trial)          -> owner (sponsor)
//   H(35, trial)          -> protocol digest
//   H(36, trial)          -> committed primary outcome id
//   H(31, trial, patient) -> 1 when enrolled
//   H(32, trial)          -> enrollment count
//   H(33, trial)          -> reported outcome id
//   H(34, trial)          -> reported result digest
constexpr char kSource[] = R"(
PUSH 0
CALLDATALOAD
DUP 1
PUSH 1
EQ
JUMPI @reg
DUP 1
PUSH 2
EQ
JUMPI @enroll
DUP 1
PUSH 3
EQ
JUMPI @report
DUP 1
PUSH 4
EQ
JUMPI @verify
DUP 1
PUSH 5
EQ
JUMPI @count
DUP 1
PUSH 6
EQ
JUMPI @proto
REVERT

; ---- register(trial, protocol_digest, primary_outcome) ----
reg:
POP
PUSH 30
PUSH 1
CALLDATALOAD
HASHN 2             ; [okey]
DUP 1
SLOAD
ISZERO
JUMPI @reg_ok
REVERT
reg_ok:
CALLER
SWAP 1
SSTORE              ; owner = caller
PUSH 2
CALLDATALOAD
PUSH 35
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE              ; protocol digest
PUSH 3
CALLDATALOAD
PUSH 36
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE              ; committed primary outcome
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
PUSH 3
CALLDATALOAD
PUSH 120            ; topic: trial registered
EMIT 3
PUSH 1
RETURN 1

; ---- enroll(trial, patient) ----
enroll:
POP
; trial must exist
PUSH 30
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD
ISZERO
JUMPI @enroll_fail
; patient not yet enrolled
PUSH 31
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
HASHN 3             ; [ekey]
DUP 1
SLOAD               ; [ekey,already]
ISZERO
JUMPI @enroll_ok
enroll_fail:
REVERT
enroll_ok:
PUSH 1              ; [ekey,1]
SWAP 1              ; [1,ekey]
SSTORE              ; enrolled[trial,patient] = 1
; count += 1
PUSH 32
PUSH 1
CALLDATALOAD
HASHN 2             ; [ckey]
DUP 1
SLOAD               ; [ckey,count]
PUSH 1
ADD                 ; [ckey,count+1]
SWAP 1              ; [count+1,ckey]
SSTORE
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
PUSH 121            ; topic: patient enrolled
EMIT 2
PUSH 1
RETURN 1

; ---- report(trial, outcome, result_digest): owner only ----
report:
POP
PUSH 30
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD
CALLER
EQ
JUMPI @report_ok
REVERT
report_ok:
PUSH 2
CALLDATALOAD
PUSH 33
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE              ; reported outcome
PUSH 3
CALLDATALOAD
PUSH 34
PUSH 1
CALLDATALOAD
HASHN 2
SSTORE              ; result digest
PUSH 1
CALLDATALOAD
PUSH 2
CALLDATALOAD
PUSH 3
CALLDATALOAD
PUSH 122            ; topic: outcome reported
EMIT 3
PUSH 1
RETURN 1

; ---- verify(trial) -> reported outcome == committed outcome, both set ----
verify:
POP
PUSH 36
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD               ; [committed]
DUP 1
ISZERO
JUMPI @verify_zero  ; unregistered -> 0
PUSH 33
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD               ; [committed,reported]
DUP 1
ISZERO
JUMPI @verify_zero2 ; not yet reported -> 0
EQ                  ; [match]
RETURN 1
verify_zero2:
POP                 ; drop reported(=0)
verify_zero:
POP                 ; drop committed
PUSH 0
RETURN 1

; ---- count(trial) ----
count:
POP
PUSH 32
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD
RETURN 1

; ---- proto(trial) ----
proto:
POP
PUSH 35
PUSH 1
CALLDATALOAD
HASHN 2
SLOAD
RETURN 1
)";

}  // namespace

const char* TrialContract::source() { return kSource; }

const Bytes& TrialContract::bytecode() {
  static const Bytes code = vm::assemble(kSource);
  return code;
}

bool TrialContract::register_trial(Word caller, Word trial,
                                   Word protocol_digest,
                                   Word primary_outcome) {
  auto r =
      invoke(caller, encode_call(1, {trial, protocol_digest, primary_outcome}));
  return r.has_value() && r->ok();
}

bool TrialContract::enroll(Word caller, Word trial, Word patient) {
  auto r = invoke(caller, encode_call(2, {trial, patient}));
  return r.has_value() && r->ok();
}

bool TrialContract::report(Word caller, Word trial, Word outcome,
                           Word result_digest) {
  auto r = invoke(caller, encode_call(3, {trial, outcome, result_digest}));
  return r.has_value() && r->ok();
}

bool TrialContract::verify_outcome(Word trial) {
  auto r = invoke(0, encode_call(4, {trial}));
  return r.has_value() && r->ok() && !r->returned.empty() &&
         r->returned[0] == 1;
}

Word TrialContract::enrollment(Word trial) {
  auto r = invoke(0, encode_call(5, {trial}));
  if (!r.has_value() || !r->ok() || r->returned.empty()) return 0;
  return r->returned[0];
}

Word TrialContract::protocol_digest(Word trial) {
  auto r = invoke(0, encode_call(6, {trial}));
  if (!r.has_value() || !r->ok() || r->returned.empty()) return 0;
  return r->returned[0];
}

}  // namespace mc::contracts
