// medchain-lint: project-invariant checker for rules clang-tidy cannot
// express (see DESIGN.md "Adversarial inputs & determinism lint").
//
// Rules:
//   determinism-random       std::random_device / rand() / srand() are
//                            banned outside common/rng.hpp — every
//                            stochastic component takes a seeded mc::Rng
//                            so runs replay from a single seed.
//   determinism-time         system_clock / time() / gettimeofday / ...
//                            are banned outside sim/clock.hpp — protocol
//                            code reads simulated time, never the wall.
//   concurrency-primitives   naked std::mutex / std::thread / condition
//                            variables are banned outside common/ and
//                            sim/ — concurrency goes through ThreadPool
//                            and EventQueue so TSan coverage and replay
//                            stay centralized.
//   raw-assert               assert() is banned everywhere — invariants
//                            use MC_ASSERT / MC_DCHECK, which stay alive
//                            in audit builds and compile to nothing in
//                            Release without evaluating the condition.
//   nodiscard-decode         public decode*/verify* declarations in
//                            headers must be [[nodiscard]] — a dropped
//                            verdict on an untrusted-input path is a
//                            vulnerability, not a style issue.
//   vm-direct-execute        raw vm::execute calls are banned outside
//                            vm/ — contract code runs through
//                            ContractStore::deploy/call so the static
//                            analyzer's admission gate (and, in audit
//                            builds, its soundness check) cannot be
//                            bypassed.
//   state-direct-apply       raw WorldState .apply() calls
//                            are banned outside chain/state and
//                            chain/execution/ — block transactions go
//                            through BlockExecutor so sequential and
//                            wave-parallel replicas stay bit-identical.
//   footprint-bypass         direct <store>.deploy() calls are banned
//                            outside vm/ and tests — contracts reach the
//                            chain through Deploy transactions so the
//                            admission gate runs and the per-selector
//                            footprint summaries the parallel scheduler
//                            concretizes are computed exactly once, at
//                            the choke point.
//   state-copy               copying a WorldState by value is banned
//                            outside chain/state and audit/ — nodes
//                            apply blocks in place under per-block
//                            undo records, so an O(state) copy per
//                            block must not creep back (DESIGN.md §16).
//   storage-copy             copying a vm::Storage by value is banned —
//                            contract runs read committed storage and
//                            buffer a write-set, so an O(storage) copy
//                            per call must not creep back (DESIGN.md §13).
//
// Escape hatch: `// medchain-lint: allow(<rule>[, <rule>...])` on the
// offending line or the line directly above it; `allow-file(<rule>)`
// anywhere in a file suppresses the rule file-wide. Every allow is
// expected to carry a justification comment next to it.
//
// Usage:
//   medchain_lint <dir-or-file>...                 walk and lint
//   medchain_lint --compile-commands <json> [...]  lint the "file" list
//   medchain_lint --self-test <dir>...             verify against
//                                                  `expect(<rule>)` markers
//   medchain_lint --list-rules
//
// Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

struct Rule {
  std::string_view name;
  std::string_view why;
};

constexpr Rule kRules[] = {
    {"determinism-random",
     "seeded mc::Rng only (common/rng.hpp) - replay needs one seed"},
    {"determinism-time",
     "simulated sim::Clock time only (sim/clock.hpp) - no wall clock"},
    {"concurrency-primitives",
     "ThreadPool/EventQueue only - raw mutex/thread outside common/, sim/"},
    {"raw-assert", "use MC_ASSERT / MC_DCHECK instead of assert()"},
    {"nodiscard-decode",
     "public decode*/verify* header declarations must be [[nodiscard]]"},
    {"vm-direct-execute",
     "ContractStore::deploy/call only - raw vm::execute skips the "
     "admission gate (vm/analysis) outside vm/"},
    {"state-direct-apply",
     "BlockExecutor (chain/execution) only - raw <state>.apply() outside "
     "chain/state skips the scheduled execution pipeline"},
    {"footprint-bypass",
     "Deploy transactions only - raw <store>.deploy() outside vm/ and "
     "tests skips the admission gate and its footprint summaries"},
    {"state-copy",
     "block undo records (rollback_to) only - a by-value WorldState copy outside "
     "chain/state and audit/ costs O(state) per use"},
    {"storage-copy",
     "write-sets and fold_writes() only - a by-value vm::Storage copy "
     "costs O(storage) per contract call"},
};

bool is_known_rule(std::string_view name) {
  for (const Rule& r : kRules)
    if (r.name == name) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Path tail relative to the last "src/" component (rules are written
/// against src-relative paths); the generic full path when absent.
std::string src_relative(const fs::path& path) {
  const std::string p = path.generic_string();
  const auto at = p.rfind("src/");
  return at == std::string::npos ? p : p.substr(at + 4);
}

bool in_dir(const std::string& rel, std::string_view dir) {
  return rel.rfind(dir, 0) == 0;  // rel starts with "common/" etc.
}

/// Occurrences of `token` in `line` that start and end on word
/// boundaries (the trailing '(' of tokens like "rand(" anchors the end).
bool has_token(std::string_view line, std::string_view token) {
  std::size_t at = 0;
  while ((at = line.find(token, at)) != std::string_view::npos) {
    const bool left_ok = at == 0 || !is_word(line[at - 1]);
    const std::size_t end = at + token.size();
    const bool right_ok = end >= line.size() || !is_word(line[end]) ||
                          token.back() == '(';
    if (left_ok && right_ok) return true;
    ++at;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Comment / string stripping (so tokens in comments and literals never
// fire). Handles //, /*...*/ across lines, "..." and '...' literals, and
// raw strings R"delim(...)delim".
// ---------------------------------------------------------------------------

class Stripper {
 public:
  /// Returns `line` with comment and literal bytes blanked to spaces.
  std::string strip(const std::string& line) {
    std::string out(line.size(), ' ');
    std::size_t i = 0;
    while (i < line.size()) {
      if (mode_ == Mode::BlockComment) {
        const auto end = line.find("*/", i);
        if (end == std::string::npos) return out;
        i = end + 2;
        mode_ = Mode::Code;
        continue;
      }
      if (mode_ == Mode::RawString) {
        const std::string close = ")" + raw_delim_ + "\"";
        const auto end = line.find(close, i);
        if (end == std::string::npos) return out;
        i = end + close.size();
        mode_ = Mode::Code;
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') return out;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        mode_ = Mode::BlockComment;
        i += 2;
        continue;
      }
      if (c == 'R' && i + 1 < line.size() && line[i + 1] == '"' &&
          (i == 0 || !is_word(line[i - 1]))) {
        const auto open = line.find('(', i + 2);
        if (open != std::string::npos) {
          raw_delim_ = line.substr(i + 2, open - (i + 2));
          mode_ = Mode::RawString;
          i = open + 1;
          continue;
        }
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == quote) break;
          ++i;
        }
        ++i;  // past closing quote (or end of line: unterminated)
        continue;
      }
      out[i] = c;
      ++i;
    }
    return out;
  }

 private:
  enum class Mode { Code, BlockComment, RawString };
  Mode mode_ = Mode::Code;
  std::string raw_delim_;
};

// ---------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------

/// Parses `marker(<rule>[, <rule>...])` occurrences in a raw line.
std::vector<std::string> parse_marker(const std::string& line,
                                      std::string_view marker) {
  std::vector<std::string> rules;
  std::size_t at = line.find(marker);
  if (at == std::string::npos) return rules;
  at = line.find('(', at);
  const auto close = line.find(')', at);
  if (at == std::string::npos || close == std::string::npos) return rules;
  std::string inner = line.substr(at + 1, close - at - 1);
  std::size_t start = 0;
  while (start <= inner.size()) {
    auto comma = inner.find(',', start);
    if (comma == std::string::npos) comma = inner.size();
    std::string rule = inner.substr(start, comma - start);
    rule.erase(std::remove_if(rule.begin(), rule.end(),
                              [](char c) { return std::isspace(
                                    static_cast<unsigned char>(c)) != 0; }),
               rule.end());
    if (!rule.empty()) rules.push_back(rule);
    start = comma + 1;
  }
  return rules;
}

// ---------------------------------------------------------------------------
// Per-rule line checks (on stripped lines)
// ---------------------------------------------------------------------------

const char* check_determinism_random(std::string_view line) {
  for (const char* tok : {"std::random_device", "rand(", "srand(",
                          "random_shuffle"})
    if (has_token(line, tok)) return tok;
  return nullptr;
}

const char* check_determinism_time(std::string_view line) {
  for (const char* tok : {"system_clock", "time(", "gettimeofday",
                          "clock_gettime", "localtime", "gmtime("})
    if (has_token(line, tok)) return tok;
  return nullptr;
}

const char* check_concurrency(std::string_view line) {
  for (const char* tok : {"std::mutex", "std::shared_mutex",
                          "std::recursive_mutex", "std::timed_mutex",
                          "std::condition_variable", "std::thread",
                          "std::jthread"})
    if (has_token(line, tok)) return tok;
  return nullptr;
}

const char* check_raw_assert(std::string_view line) {
  return has_token(line, "assert(") ? "assert(" : nullptr;
}

const char* check_vm_direct_execute(std::string_view line) {
  return has_token(line, "vm::execute(") ? "vm::execute(" : nullptr;
}

bool ends_with_ci(std::string_view s, std::string_view suffix) {
  if (s.size() < suffix.size()) return false;
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(
        s[s.size() - suffix.size() + i])));
    if (c != suffix[i]) return false;
  }
  return true;
}

/// Matches `<recv>.member(` / `<recv>->member(` where the receiver
/// identifier, trailing underscores stripped, case-insensitively ends
/// with one of `suffixes`. Shared receiver-matching core of the
/// state-direct-apply and footprint-bypass rules.
const char* receiver_member_call(
    std::string_view line, std::initializer_list<const char*> members,
    std::initializer_list<const char*> suffixes) {
  for (const char* member : members) {
    std::size_t at = 0;
    while ((at = line.find(member, at)) != std::string_view::npos) {
      std::size_t back = at;
      while (back > 0 && is_word(line[back - 1])) --back;
      std::string_view recv = line.substr(back, at - back);
      while (!recv.empty() && recv.back() == '_') recv.remove_suffix(1);
      for (const char* suffix : suffixes)
        if (ends_with_ci(recv, suffix)) return member;
      at += std::strlen(member);
    }
  }
  return nullptr;
}

/// Matches `<recv>.apply(` / `<recv>->apply(` where the receiver
/// identifier names a ledger state or execution overlay. Catches
/// `state.apply`, `src_state.apply`, `preview_state_->apply` without
/// firing on unrelated apply() methods (learners, standardizers).
const char* check_state_direct_apply(std::string_view line) {
  return receiver_member_call(line, {".apply(", "->apply("},
                              {"state", "overlay"});
}

/// Matches `<recv>.deploy(` / `<recv>->deploy(` where the receiver
/// names a contract store. Catches `store.deploy`, `store_->deploy`,
/// `contract_store.deploy` without firing on unrelated deploy()
/// helpers (fleet deployers, infra scripts).
const char* check_footprint_bypass(std::string_view line) {
  return receiver_member_call(line, {".deploy(", "->deploy("}, {"store"});
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

/// Matches an object of type `type` copied by value: a declaration
/// initialized from an existing object (`WorldState next = state_;`,
/// `WorldState s{x};`, `WorldState s(x);`) or a by-value parameter
/// (`WorldState s,` / `WorldState s)`). Moves, references, pointers,
/// default-constructed objects and functions returning the type do not
/// fire. Shared core of the state-copy and storage-copy rules.
bool copies_by_value(std::string_view line, std::string_view type) {
  std::size_t at = 0;
  while ((at = line.find(type, at)) != std::string_view::npos) {
    const std::size_t start = at;
    at += type.size();
    if ((start > 0 && is_word(line[start - 1])) ||
        (at < line.size() && is_word(line[at])))
      continue;  // part of a longer identifier
    std::size_t i = at;
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t name = i;
    while (i < line.size() && is_word(line[i])) ++i;
    // No declarator name: `WorldState&`, `<WorldState>`, `WorldState::`.
    if (i == name || line.substr(name, i - name) == "const") continue;
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) continue;
    const char c = line[i];
    if (c == ',' || c == ')') return true;  // parameter by value
    std::string_view init;
    if (c == '=' && (i + 1 >= line.size() || line[i + 1] != '=')) {
      init = trim(line.substr(i + 1));
      if (!init.empty() && init.back() == ';') init.remove_suffix(1);
    } else if (c == '{' || c == '(') {
      const char close = c == '{' ? '}' : ')';
      const std::size_t end = line.rfind(close);
      if (end == std::string_view::npos || end < i) continue;
      init = trim(line.substr(i + 1, end - i - 1));
      // A parameter list (`WorldState make(const X& x)`) declares a
      // function; a copy's initializer is one expression with no spaces.
      if (c == '(' && init.find_first_of(" ,") != std::string_view::npos)
        continue;
    } else {
      continue;
    }
    init = trim(init);
    if (init.empty() || init == "{}" || init.rfind("std::move(", 0) == 0 ||
        init.rfind(std::string(type) + "{", 0) == 0 ||
        init.rfind(std::string(type) + "(", 0) == 0)
      continue;
    return true;
  }
  return false;
}

const char* check_state_copy(std::string_view line) {
  return copies_by_value(line, "WorldState") ? "WorldState copy" : nullptr;
}

const char* check_storage_copy(std::string_view line) {
  return copies_by_value(line, "Storage") ? "Storage copy" : nullptr;
}

/// Heuristic declaration finder for decode*/verify* in headers. A match
/// is a declaration when the name is preceded by a type-ish token on the
/// same line (identifier/`>`/`&`/`*` that is not `return`), not reached
/// through `.` `->` `::` `(` `,` `=` `!` (those are calls), and neither
/// this line nor the one above carries [[nodiscard]].
const char* check_nodiscard(std::string_view line, std::string_view prev) {
  if (line.find("nodiscard") != std::string_view::npos ||
      prev.find("nodiscard") != std::string_view::npos)
    return nullptr;
  for (std::string_view name : {"decode", "verify"}) {
    std::size_t at = 0;
    while ((at = line.find(name, at)) != std::string_view::npos) {
      const std::size_t start = at;
      at += name.size();
      if (start > 0 && is_word(line[start - 1])) continue;  // mid-word
      // Extend over verify_signature-style suffixes.
      std::size_t end = start + name.size();
      while (end < line.size() && is_word(line[end])) ++end;
      if (end >= line.size() || line[end] != '(') continue;  // not a call/decl
      // Walk back to the previous non-space character.
      std::size_t back = start;
      while (back > 0 && line[back - 1] == ' ') --back;
      if (back == 0) continue;  // nothing before: continuation line, skip
      const char before = line[back - 1];
      if (before == '.' || before == ':' || before == '(' || before == ',' ||
          before == '=' || before == '!' || before == '>')
        continue;  // member call / qualified call / argument
      if (!is_word(before) && before != '&' && before != '*') continue;
      // Previous token must be a type, not a keyword that precedes calls.
      std::size_t tok_end = back;
      std::size_t tok_start = tok_end;
      while (tok_start > 0 && is_word(line[tok_start - 1])) --tok_start;
      const std::string_view tok = line.substr(tok_start, tok_end - tok_start);
      if (tok == "return" || tok == "if" || tok == "while" || tok == "case")
        continue;
      return name == "decode" ? "decode" : "verify*";
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// File scanning
// ---------------------------------------------------------------------------

struct Violation {
  std::string file;  // src-relative for readability
  std::size_t line = 0;
  std::string rule;
  std::string token;
};

struct Expectation {
  std::string file;
  std::size_t line = 0;
  std::string rule;

  auto operator<=>(const Expectation&) const = default;
};

struct ScanResult {
  std::vector<Violation> violations;
  std::vector<Expectation> expectations;  // only in --self-test mode
  std::size_t files_scanned = 0;
  bool bad_annotation = false;
};

bool rule_applies(std::string_view rule, const std::string& rel,
                  bool is_header) {
  if (rule == "determinism-random") return rel != "common/rng.hpp";
  if (rule == "determinism-time") return rel != "sim/clock.hpp";
  if (rule == "concurrency-primitives")
    return !in_dir(rel, "common/") && !in_dir(rel, "sim/");
  if (rule == "raw-assert") return true;
  if (rule == "nodiscard-decode") return is_header;
  // vm/ owns the interpreter: vm.cpp defines execute and contract_store
  // is the admission choke point that wraps it.
  if (rule == "vm-direct-execute") return !in_dir(rel, "vm/");
  // chain/state defines the apply methods; chain/execution is the one
  // sanctioned caller (the pipeline the rule funnels everyone through).
  if (rule == "state-direct-apply")
    return !in_dir(rel, "chain/execution/") && rel != "chain/state.hpp" &&
           rel != "chain/state.cpp";
  // vm/ owns ContractStore::deploy (the admission gate itself); tests
  // exercise the raw entry point deliberately.
  if (rule == "footprint-bypass")
    return !in_dir(rel, "vm/") && rel.find("tests/") == std::string::npos;
  // chain/state owns the copy constructor; audit/ rebuilds states from
  // scratch as the independent reference.
  if (rule == "state-copy")
    return rel != "chain/state.hpp" && rel != "chain/state.cpp" &&
           !in_dir(rel, "audit/");
  if (rule == "storage-copy") return true;
  return false;
}

void scan_file(const fs::path& path, bool self_test, ScanResult& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "medchain_lint: cannot read %s\n",
                 path.string().c_str());
    out.bad_annotation = true;
    return;
  }
  ++out.files_scanned;
  const std::string rel = src_relative(path);
  const std::string ext = path.extension().string();
  const bool is_header = ext == ".hpp" || ext == ".h";

  Stripper stripper;
  std::set<std::string> file_allows;
  std::vector<std::string> prev_allows;
  std::string prev_stripped;
  std::string raw;
  std::size_t line_no = 0;

  // File-wide allows can appear anywhere; gather them first.
  {
    std::ifstream pre(path);
    std::string l;
    while (std::getline(pre, l))
      for (const auto& rule : parse_marker(l, "medchain-lint: allow-file"))
        file_allows.insert(rule);
  }

  while (std::getline(in, raw)) {
    ++line_no;
    const std::vector<std::string> line_allows =
        parse_marker(raw, "medchain-lint: allow");
    for (const auto& rule : line_allows)
      if (!is_known_rule(rule)) {
        std::fprintf(stderr, "%s:%zu: unknown rule '%s' in allow()\n",
                     rel.c_str(), line_no, rule.c_str());
        out.bad_annotation = true;
      }
    if (self_test)
      for (const auto& rule : parse_marker(raw, "expect"))
        if (is_known_rule(rule))
          out.expectations.push_back({rel, line_no, rule});

    const std::string stripped = stripper.strip(raw);

    const auto allowed = [&](std::string_view rule) {
      const auto match = [&](const std::vector<std::string>& list) {
        return std::find(list.begin(), list.end(), rule) != list.end();
      };
      return file_allows.count(std::string(rule)) > 0 ||
             match(line_allows) || match(prev_allows);
    };
    const auto report = [&](std::string_view rule, const char* token) {
      if (token == nullptr) return;
      if (!rule_applies(rule, rel, is_header)) return;
      if (allowed(rule)) return;
      out.violations.push_back(
          {rel, line_no, std::string(rule), std::string(token)});
    };

    report("determinism-random", check_determinism_random(stripped));
    report("determinism-time", check_determinism_time(stripped));
    report("concurrency-primitives", check_concurrency(stripped));
    report("raw-assert", check_raw_assert(stripped));
    report("nodiscard-decode", check_nodiscard(stripped, prev_stripped));
    report("vm-direct-execute", check_vm_direct_execute(stripped));
    report("state-direct-apply", check_state_direct_apply(stripped));
    report("footprint-bypass", check_footprint_bypass(stripped));
    report("state-copy", check_state_copy(stripped));
    report("storage-copy", check_storage_copy(stripped));

    prev_allows = line_allows;
    prev_stripped = stripped;
  }
}

std::vector<fs::path> collect_files(const std::vector<std::string>& roots) {
  std::vector<fs::path> files;
  for (const auto& root : roots) {
    const fs::path p(root);
    if (fs::is_directory(p)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc")
          files.push_back(entry.path());
      }
    } else if (fs::exists(p)) {
      files.push_back(p);
    } else {
      std::fprintf(stderr, "medchain_lint: no such path: %s\n", root.c_str());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Extract "file" entries from a compile_commands.json (string scan — the
/// format is machine-generated and flat, so a parser is overkill).
std::vector<std::string> compile_commands_files(const std::string& json_path) {
  std::vector<std::string> files;
  std::ifstream in(json_path);
  std::string line;
  while (std::getline(in, line)) {
    const auto key = line.find("\"file\"");
    if (key == std::string::npos) continue;
    const auto open = line.find('"', line.find(':', key));
    const auto close = line.find('"', open + 1);
    if (open == std::string::npos || close == std::string::npos) continue;
    files.push_back(line.substr(open + 1, close - open - 1));
  }
  return files;
}

int run_self_test(ScanResult& result) {
  std::set<Expectation> expected(result.expectations.begin(),
                                 result.expectations.end());
  std::set<Expectation> actual;
  for (const auto& v : result.violations)
    actual.insert({v.file, v.line, v.rule});

  bool ok = true;
  for (const auto& e : expected)
    if (actual.count(e) == 0) {
      std::fprintf(stderr,
                   "self-test FAIL: expected %s at %s:%zu, not reported\n",
                   e.rule.c_str(), e.file.c_str(), e.line);
      ok = false;
    }
  for (const auto& a : actual)
    if (expected.count(a) == 0) {
      std::fprintf(stderr,
                   "self-test FAIL: unexpected %s at %s:%zu\n",
                   a.rule.c_str(), a.file.c_str(), a.line);
      ok = false;
    }
  // Every rule must be exercised at least once by the testdata, so a
  // rule that silently stops matching cannot pass the gate.
  for (const Rule& rule : kRules) {
    const bool seen = std::any_of(
        expected.begin(), expected.end(),
        [&](const Expectation& e) { return e.rule == rule.name; });
    if (!seen) {
      std::fprintf(stderr, "self-test FAIL: rule %.*s has no expect() case\n",
                   static_cast<int>(rule.name.size()), rule.name.data());
      ok = false;
    }
  }
  std::fprintf(stderr, "medchain_lint self-test: %zu expectation(s), %s\n",
               expected.size(), ok ? "all matched" : "MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_test = false;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      for (const Rule& r : kRules)
        std::printf("%-24.*s %.*s\n", static_cast<int>(r.name.size()),
                    r.name.data(), static_cast<int>(r.why.size()),
                    r.why.data());
      return 0;
    }
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (arg == "--compile-commands") {
      if (++i >= argc) {
        std::fprintf(stderr, "medchain_lint: --compile-commands needs a path\n");
        return 2;
      }
      for (auto& f : compile_commands_files(argv[i])) roots.push_back(f);
      continue;
    }
    roots.push_back(std::string(arg));
  }
  if (roots.empty()) {
    std::fprintf(stderr,
                 "usage: medchain_lint [--self-test] [--compile-commands "
                 "<json>] <dir-or-file>...\n");
    return 2;
  }

  ScanResult result;
  for (const fs::path& file : collect_files(roots))
    scan_file(file, self_test, result);

  if (self_test) return run_self_test(result);

  for (const auto& v : result.violations)
    std::printf("%s:%zu: [%s] forbidden '%s' (see --list-rules; suppress "
                "with // medchain-lint: allow(%s))\n",
                v.file.c_str(), v.line, v.rule.c_str(), v.token.c_str(),
                v.rule.c_str());
  std::fprintf(stderr, "medchain_lint: %zu violation(s) across %zu file(s)\n",
               result.violations.size(), result.files_scanned);
  if (result.bad_annotation) return 2;
  return result.violations.empty() ? 0 : 1;
}
