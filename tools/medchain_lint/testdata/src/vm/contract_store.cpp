// Self-test fixture for the vm-direct-execute exemption: under a src/
// path of vm/contract_store.cpp, the reference interpreter may be called
// inside the MEDCHAIN_AUDIT leg only.
//
// This file is never compiled — it only needs to look like C++.

void run_both() {
  auto spec = vm::execute(program, storage, ctx, host);  // vm/ owns it: must not fire
#if defined(MEDCHAIN_AUDIT)
  auto ref = audit::reference_execute(code, storage, ctx, host);  // audit leg: must not fire
#else
  auto ref = audit::reference_execute(code, storage, ctx, host);  // expect(vm-direct-execute)
#endif
#ifndef MEDCHAIN_AUDIT
  auto off = audit::reference_execute(code, storage, ctx, host);  // expect(vm-direct-execute)
#else
  auto on = audit::reference_execute(code, storage, ctx, host);  // audit leg: must not fire
#endif
  auto after = audit::reference_execute(code, storage, ctx, host);  // expect(vm-direct-execute)
}
