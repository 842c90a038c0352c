// Self-test fixture: every lint rule must fire exactly on the lines
// marked `expect(<rule>)` and nowhere else. `medchain_lint --self-test`
// cross-checks the reported set against these markers, so a rule that
// silently stops matching (or starts over-matching) fails CI.
//
// This file is never compiled — it only needs to look like C++.

#include <cstdint>

void determinism_violations() {
  std::random_device rd;                  // expect(determinism-random)
  int r = rand();                         // expect(determinism-random)
  std::uint64_t t = time(nullptr);        // expect(determinism-time)
  auto now = std::chrono::system_clock::now();  // expect(determinism-time)
  (void)rd; (void)r; (void)t; (void)now;
}

void concurrency_violations() {
  std::mutex m;                           // expect(concurrency-primitives)
  std::thread worker([] {});              // expect(concurrency-primitives)
  worker.join();
}

void assert_violation(int x) {
  assert(x > 0);                          // expect(raw-assert)
}

void vm_bypass_violation() {
  auto r = vm::execute(code, storage, ctx, host);   // expect(vm-direct-execute)
  auto q = mc::vm::execute(code, storage, ctx, host);  // expect(vm-direct-execute)
  (void)r; (void)q;
  store.call(id, ctx, host);  // admission path: must not fire
}

void reference_bypass_violations() {
  auto r = audit::reference_execute(code, storage, ctx, host);  // expect(vm-direct-execute)
#if defined(MEDCHAIN_AUDIT)
  // An audit leg outside vm/contract_store.cpp is no exemption.
  auto q = reference_execute(code, storage, ctx, host);  // expect(vm-direct-execute)
#endif
  (void)r; (void)q;
}

void footprint_bypass_violations() {
  store.deploy(deploy_tx, 7);               // expect(footprint-bypass)
  contract_store_->deploy(tx, height);      // expect(footprint-bypass)
  auto id = node_store.deploy(std::move(tx), h);  // expect(footprint-bypass)
  deployer.deploy(fleet);       // unrelated deploy(): must not fire
  store.deployments();          // wrong member name: must not fire
  (void)id;
}

void state_bypass_violations() {
  state.apply(tx, proposer, params);        // expect(state-direct-apply)
  src_state.apply(tx, Address{}, params);   // expect(state-direct-apply)
  world_state_->apply(tx, proposer, params);  // expect(state-direct-apply)
  overlay.apply(tx, proposer, params);      // expect(state-direct-apply)
  standardizer.apply(core.x);   // unrelated apply(): must not fire
  estate.applying(tx);          // wrong member name: must not fire
}

void state_copy_violations(const WorldState& state_, const Node& node) {
  WorldState preview = state_;              // expect(state-copy)
  chain::WorldState next{state_};           // expect(state-copy)
  WorldState snap(node.state());            // expect(state-copy)
  WorldState fresh;                         // fresh state: must not fire
  WorldState moved = std::move(preview);    // move: must not fire
  const WorldState& view = state_;          // reference: must not fire
  WorldState* ptr = &next;                  // pointer: must not fire
  (void)snap; (void)fresh; (void)moved; (void)view; (void)ptr;
}

void adopt_by_value(WorldState new_state, int height);  // expect(state-copy)
void adopt_by_move(WorldState&& new_state, int height);  // must not fire
WorldState build_state(const ChainParams& params);  // returns: must not fire
std::optional<WorldState> replay(const Path& path);  // must not fire

void storage_copy_violations(const DeployedContract& dc, const Storage& s) {
  Storage working = dc.storage;             // expect(storage-copy)
  vm::Storage scratch{s};                   // expect(storage-copy)
  Storage before(dc.storage);               // expect(storage-copy)
  Storage fresh;                            // empty storage: must not fire
  Storage moved = std::move(working);       // move: must not fire
  const vm::Storage& view = dc.storage;     // reference: must not fire
  Storage& sink = moved;                    // reference: must not fire
  (void)scratch; (void)before; (void)fresh; (void)view; (void)sink;
}

void fold_into(Storage storage, const WriteSet& writes);  // expect(storage-copy)
void fold_in_place(Storage& storage, const WriteSet& writes);  // must not fire
ExecResult execute(BytesView code, const Storage& storage);  // must not fire
using Storage = std::map<Word, Word>;       // alias: must not fire

void suppressed_lines() {
  // Justification: fixture proves the escape hatch suppresses a match.
  int r = rand();  // medchain-lint: allow(determinism-random)
  // medchain-lint: allow(concurrency-primitives) — annotation-above form
  std::mutex guarded;
  (void)r; (void)guarded;
}

void non_violations() {
  // Comments and strings must never fire: rand() time() std::mutex
  const char* text = "std::random_device in a string literal";
  static_assert(sizeof(text) > 0, "static_assert is not assert");
  (void)text;
}
