// netrs_lint: project-specific determinism lint for the simulation core.
//
// The simulator's contract is bit-for-bit reproducibility for a given seed
// (ROADMAP north star; the golden-digest tests enforce it end-to-end). This
// tool rejects the source patterns that historically break that contract
// long before a digest drifts:
//
//   unordered-iteration   range-for / begin() iteration over
//                         unordered_map/unordered_set state. Hash-table
//                         walk order depends on libstdc++ version, seed
//                         mixing, and insertion history, so any decision or
//                         ordered accumulation driven by it is
//                         nondeterministic. Lookups are fine.
//   wall-clock            std::chrono::*_clock::now(), time(), gettimeofday
//                         etc. inside simulation code: anything keyed to
//                         wall time makes results machine-speed-dependent
//                         (the placement B&B's max_seconds cutoff was a
//                         live instance of this; that budget is gone and
//                         the node budget is the solver's only cutoff).
//   unseeded-random       rand()/srand()/std::random_device: randomness
//                         outside the seeded sim::Rng tree.
//   pointer-order         std::map/std::set keyed on a pointer type:
//                         iteration order becomes allocation-address order.
//   std-function-hot-path std::function reappearing in the files the
//                         allocation-free hot path was scrubbed of it
//                         (sim/task, sim/event_queue, net/fabric,
//                         net/switch, net/packet, net/payload). sim::Task
//                         is the sanctioned callable there.
//   unordered-in-obs      any unordered container in src/obs: the trace /
//                         metrics emitters promise byte-identical output
//                         across --jobs values, so even a lookup-only
//                         unordered map there is one refactor away from
//                         hash-ordered output. Ordered containers only.
//   cross-shard-sim       ShardGroup internals (shard_sim / global_sim /
//                         drain_shard / current_shard) outside the three
//                         layers allowed to touch them (sim/, harness/,
//                         net/fabric). A component that grabs another
//                         shard's Simulator bypasses the cross-shard inbox
//                         protocol and races its event queue; components
//                         use Fabric::simulator_for(node) instead.
//   fault-hook-discipline receiver-qualified calls to the component fault
//                         hooks (.fail() / .recover(), fail_operator() /
//                         restore_operator(), set_link_state()) outside
//                         sim/, harness/, tests/ and tools/. Faults are
//                         injected only through a declarative
//                         sim::FaultPlan executed by sim::FaultInjector at
//                         global-simulator barriers, which keeps fault
//                         timing bit-identical at any --shards/--jobs
//                         split and routes every transition through the
//                         audit ledger; a direct call from bench, example
//                         or component code fires at an arbitrary point in
//                         the event interleaving and bypasses both.
//   shard-annotation      every top-level class/struct defined in a header
//                         under src/{net,kv,netrs,rs,obs} must carry one of
//                         the sim/affinity.hpp ownership markers
//                         (NETRS_SHARD_LOCAL / NETRS_COORD_GLOBAL /
//                         NETRS_SHARED_IMMUTABLE) on its class token. The
//                         markers feed the cross-TU affinity table the two
//                         rules below consume (DESIGN.md §7.3).
//   shard-affinity-capture a sim::Task lambda passed to at()/after()/
//                         every() that captures a variable of a
//                         NETRS_SHARD_LOCAL class owned by a different
//                         component layer, or scheduling directly on the
//                         result of Fabric::simulator_for(...). Either way
//                         an event on one shard's queue holds a live
//                         reference into another shard's state.
//   shard-foreign-mutation a non-const method call on a variable of a
//                         NETRS_SHARD_LOCAL class from a layer that does
//                         not own (or co-locate with) that class; mutable
//                         shard state must only be driven by its owning
//                         layer or the coordinator-side harness.
//   mutable-static        mutable `static` / `thread_local` declarations
//                         anywhere in the tree: function-local or global
//                         mutable statics are shared across shard workers
//                         and --jobs repeat threads, so they race and leak
//                         state between runs. const/constexpr and function
//                         declarations are fine.
//
// Escape hatch — a justified suppression directly above (or on) the line:
//   // netrs-lint: allow(<rule>): <reason>
// The reason is mandatory; an allow without one is itself an error.
//
// Implementation: a comment/string/raw-string-aware lexer splits each file
// into code text and comment text, a global two-phase pass collects the
// names of unordered-typed variables, type aliases, and unordered-returning
// functions across all inputs, then per-file rule scans run over the code
// text. No libclang dependency: the container image has no clang, and the
// patterns above are regular enough for token matching (self-tested against
// tools/lint/fixtures/).
//
// Usage:
//   netrs_lint [--github] <file-or-dir>...  lint; exit 1 on any violation.
//                                        --github additionally emits GitHub
//                                        Actions ::error annotations.
//   netrs_lint --self-test <fixture-dir> check fixtures against their
//                                        embedded lint-fixture-expect
//                                        directives; exit 1 on mismatch

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------------------------
// Lexing: split a translation unit into code text (comments and literal
// contents blanked out, structure preserved) and per-line comment text.
// --------------------------------------------------------------------------

struct FileText {
  std::string path;           ///< as given on the command line
  std::string effective_path; ///< overridden by lint-fixture-path directives
  std::string code;           ///< newline-preserving, comments/strings blanked
  std::vector<std::string> comment;  ///< comment text by 0-based line
  std::vector<std::size_t> line_start;  ///< offset of each line in `code`
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

FileText lex_file(const std::string& path, const std::string& text) {
  FileText out;
  out.path = path;
  out.effective_path = path;
  out.code.reserve(text.size());

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for raw strings: the )delim" terminator
  std::size_t line = 0;
  out.comment.emplace_back();

  auto emit_code = [&](char c) { out.code.push_back(c); };
  auto emit_blank = [&](char c) { out.code.push_back(c == '\n' ? '\n' : ' '); };
  auto emit_comment = [&](char c) {
    if (c != '\n') out.comment[line].push_back(c);
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          emit_blank(c);
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          emit_blank(c);
          emit_blank(next);
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !ident_char(text[i - 1]))) {
          // R"delim( ... )delim"
          std::size_t p = i + 2;
          std::string delim;
          while (p < text.size() && text[p] != '(') delim.push_back(text[p++]);
          raw_delim = ")" + delim + "\"";
          state = State::kRawString;
          emit_blank(c);
          emit_blank(next);
          for (std::size_t k = i + 2; k <= p && k < text.size(); ++k) {
            emit_blank(text[k]);
          }
          i = p;
        } else if (c == '"') {
          state = State::kString;
          emit_blank(c);
        } else if (c == '\'' &&
                   (i == 0 || !std::isdigit(static_cast<unsigned char>(
                                  text[i - 1])))) {
          // Skip digit separators (1'000'000) — only enter char-literal
          // state when not between digits.
          state = State::kChar;
          emit_blank(c);
        } else {
          emit_code(c);
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          emit_code(c);
        } else {
          emit_comment(c);
          emit_blank(c);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          emit_blank(c);
          emit_blank(next);
          ++i;
        } else {
          emit_comment(c);
          emit_blank(c);
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          emit_blank(c);
          emit_blank(next);
          ++i;
        } else {
          if (c == '"') state = State::kCode;
          emit_blank(c);
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          emit_blank(c);
          emit_blank(next);
          ++i;
        } else {
          if (c == '\'') state = State::kCode;
          emit_blank(c);
        }
        break;
      case State::kRawString:
        if (c == ')' && text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) emit_blank(' ');
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else {
          emit_blank(c);
        }
        break;
    }
    if (c == '\n') {
      ++line;
      out.comment.emplace_back();
    }
  }

  out.line_start.push_back(0);
  for (std::size_t i = 0; i < out.code.size(); ++i) {
    if (out.code[i] == '\n') out.line_start.push_back(i + 1);
  }
  return out;
}

std::size_t line_of_offset(const FileText& f, std::size_t off) {
  // 1-based line number for a code offset.
  auto it = std::upper_bound(f.line_start.begin(), f.line_start.end(), off);
  return static_cast<std::size_t>(it - f.line_start.begin());
}

// --------------------------------------------------------------------------
// Small token helpers over the blanked code text.
// --------------------------------------------------------------------------

/// Finds the next occurrence of `word` at or after `from` with identifier
/// boundaries on both sides. Returns npos when absent.
std::size_t find_word(const std::string& s, const std::string& word,
                      std::size_t from) {
  for (std::size_t p = s.find(word, from); p != std::string::npos;
       p = s.find(word, p + 1)) {
    const bool left_ok = p == 0 || !ident_char(s[p - 1]);
    const bool right_ok =
        p + word.size() >= s.size() || !ident_char(s[p + word.size()]);
    if (left_ok && right_ok) return p;
  }
  return std::string::npos;
}

std::size_t skip_ws(const std::string& s, std::size_t p) {
  while (p < s.size() &&
         std::isspace(static_cast<unsigned char>(s[p])) != 0) {
    ++p;
  }
  return p;
}

std::size_t skip_ws_back(const std::string& s, std::size_t p) {
  // Returns the index of the last non-space char at or before p, or npos.
  while (p != std::string::npos &&
         std::isspace(static_cast<unsigned char>(s[p])) != 0) {
    if (p == 0) return std::string::npos;
    --p;
  }
  return p;
}

std::string read_ident(const std::string& s, std::size_t p,
                       std::size_t* end = nullptr) {
  std::size_t q = p;
  while (q < s.size() && ident_char(s[q])) ++q;
  if (end != nullptr) *end = q;
  return s.substr(p, q - p);
}

/// True when the word at `p` looks like a function *declaration* rather
/// than a call: the preceding token is an identifier (its return type, as
/// in `long time() const;`) that is not a statement keyword. `return
/// time(0)` and `= time(0)` still count as calls.
bool is_declaration_context(const std::string& s, std::size_t p) {
  std::size_t q = skip_ws_back(s, p == 0 ? 0 : p - 1);
  if (q == std::string::npos || !ident_char(s[q])) return false;
  std::size_t begin = q;
  while (begin > 0 && ident_char(s[begin - 1])) --begin;
  const std::string prev = s.substr(begin, q - begin + 1);
  return prev != "return" && prev != "co_return" && prev != "case" &&
         prev != "throw" && prev != "co_yield";
}

/// Matches the `(...)` starting at `open` (s[open] == '('); returns the
/// offset of the closing ')' or npos.
std::size_t match_paren(const std::string& s, std::size_t open) {
  int depth = 0;
  for (std::size_t p = open; p < s.size(); ++p) {
    if (s[p] == '(') ++depth;
    if (s[p] == ')') {
      --depth;
      if (depth == 0) return p;
    }
  }
  return std::string::npos;
}

/// Matches the `<...>` starting at `open` (s[open] == '<'); returns the
/// offset of the closing '>' or npos. Tracks parens so `foo<bar(1,2)>`
/// nests correctly; treats '<'/'>' as brackets, which is valid inside a
/// template-argument type position.
std::size_t match_angle(const std::string& s, std::size_t open) {
  int angle = 0;
  int paren = 0;
  for (std::size_t p = open; p < s.size(); ++p) {
    const char c = s[p];
    if (c == '(') ++paren;
    if (c == ')') --paren;
    if (paren > 0) continue;
    if (c == '<') ++angle;
    if (c == '>') {
      --angle;
      if (angle == 0) return p;
    }
    if (c == ';') return std::string::npos;  // runaway: not a template
  }
  return std::string::npos;
}

// --------------------------------------------------------------------------
// Violations and allow directives.
// --------------------------------------------------------------------------

struct Violation {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct Directive {
  std::string rule;
  bool has_reason = false;
};

/// Parses every `netrs-lint: allow(<rule>): <reason>` in a comment string.
std::vector<Directive> parse_allows(const std::string& comment) {
  std::vector<Directive> out;
  const std::string kKey = "netrs-lint:";
  for (std::size_t p = comment.find(kKey); p != std::string::npos;
       p = comment.find(kKey, p + 1)) {
    std::size_t q = skip_ws(comment, p + kKey.size());
    if (comment.compare(q, 6, "allow(") != 0) continue;
    q += 6;
    const std::size_t close = comment.find(')', q);
    if (close == std::string::npos) continue;
    Directive d;
    d.rule = comment.substr(q, close - q);
    std::size_t after = skip_ws(comment, close + 1);
    if (after < comment.size() && comment[after] == ':') {
      const std::string reason = comment.substr(after + 1);
      // A reason must contain a word character, not just punctuation.
      d.has_reason = std::any_of(reason.begin(), reason.end(), ident_char);
    }
    out.push_back(std::move(d));
  }
  return out;
}

/// True when a violation of `rule` at 1-based `line` is covered by an allow
/// directive on that line or in the contiguous comment/blank block directly
/// above it. Malformed (reason-less) allows are reported via `errors`.
bool is_allowed(const FileText& f, const std::string& rule, std::size_t line,
                std::vector<Violation>* errors) {
  auto line_has_code = [&](std::size_t l) {
    // l is 1-based.
    const std::size_t a = f.line_start[l - 1];
    const std::size_t b =
        l < f.line_start.size() ? f.line_start[l] : f.code.size();
    for (std::size_t p = a; p < b; ++p) {
      if (std::isspace(static_cast<unsigned char>(f.code[p])) == 0) {
        return true;
      }
    }
    return false;
  };
  for (std::size_t l = line;; --l) {
    if (l - 1 < f.comment.size()) {
      for (const Directive& d : parse_allows(f.comment[l - 1])) {
        if (d.rule != rule) continue;
        if (!d.has_reason) {
          errors->push_back({f.path, l, "allow-without-reason",
                             "allow(" + d.rule +
                                 ") must carry a reason: "
                                 "`// netrs-lint: allow(" +
                                 d.rule + "): <why this is safe>`"});
          continue;
        }
        return true;
      }
    }
    if (l != line && line_has_code(l)) break;  // hit real code above
    if (l == 1) break;
  }
  return false;
}

// --------------------------------------------------------------------------
// Phase 1: global symbol collection.
// --------------------------------------------------------------------------

struct SymbolTable {
  std::set<std::string> unordered_vars;   ///< variables/members of unordered type
  std::set<std::string> unordered_funcs;  ///< functions returning unordered
  std::set<std::string> aliases;          ///< type aliases for unordered types
};

/// After a type spelled at [.., type_end] (offset one past its closing '>'
/// or last ident char), classify what is being declared and record it.
void record_decl_after_type(const std::string& code, std::size_t type_end,
                            SymbolTable* table) {
  std::size_t p = skip_ws(code, type_end);
  // Skip refs/pointers and cv-qualifiers between type and name.
  while (p < code.size()) {
    if (code[p] == '&' || code[p] == '*') {
      ++p;
      p = skip_ws(code, p);
      continue;
    }
    if (code.compare(p, 5, "const") == 0 && !ident_char(code[p + 5])) {
      p = skip_ws(code, p + 5);
      continue;
    }
    break;
  }
  if (p >= code.size() || !ident_char(code[p])) return;
  std::size_t name_end = 0;
  const std::string name = read_ident(code, p, &name_end);
  if (name.empty()) return;
  std::size_t q = skip_ws(code, name_end);
  if (q < code.size() && code[q] == '(') {
    table->unordered_funcs.insert(name);
  } else if (q < code.size() &&
             (code[q] == ';' || code[q] == '=' || code[q] == '{' ||
              code[q] == ',' || code[q] == ')')) {
    table->unordered_vars.insert(name);
  }
}

void collect_symbols(const FileText& f, SymbolTable* table) {
  const std::string& code = f.code;

  // Direct unordered_* spellings.
  for (std::size_t p = code.find("unordered_"); p != std::string::npos;
       p = code.find("unordered_", p + 1)) {
    if (p > 0 && ident_char(code[p - 1])) continue;
    std::size_t ident_end = 0;
    read_ident(code, p, &ident_end);
    const std::size_t open = skip_ws(code, ident_end);
    if (open >= code.size() || code[open] != '<') continue;
    const std::size_t close = match_angle(code, open);
    if (close == std::string::npos) continue;

    // `using NAME = std::unordered_map<...>;` → alias NAME.
    {
      std::size_t b = p;
      // Step back over std:: qualification.
      while (b >= 2 && code[b - 1] == ':' && code[b - 2] == ':') {
        std::size_t q = b - 2;
        while (q > 0 && ident_char(code[q - 1])) --q;
        b = q;
      }
      const std::size_t eq = skip_ws_back(code, b == 0 ? 0 : b - 1);
      if (eq != std::string::npos && code[eq] == '=') {
        std::size_t name_last = skip_ws_back(code, eq == 0 ? 0 : eq - 1);
        if (name_last != std::string::npos && ident_char(code[name_last])) {
          std::size_t name_begin = name_last;
          while (name_begin > 0 && ident_char(code[name_begin - 1])) {
            --name_begin;
          }
          table->aliases.insert(
              code.substr(name_begin, name_last - name_begin + 1));
          continue;  // the alias itself declares nothing else
        }
      }
    }
    record_decl_after_type(code, close + 1, table);
  }
}

void collect_alias_uses(const FileText& f, SymbolTable* table) {
  // Declarations whose type is a known alias: `Counts snapshot_and_reset()`
  // or `RsNodeDirectory directory;` (possibly Namespace::Alias-qualified —
  // the word match finds the trailing alias component).
  for (const std::string& alias : table->aliases) {
    for (std::size_t p = find_word(f.code, alias, 0); p != std::string::npos;
         p = find_word(f.code, alias, p + 1)) {
      record_decl_after_type(f.code, p + alias.size(), table);
    }
  }
}

// --------------------------------------------------------------------------
// Phase 2: rules.
// --------------------------------------------------------------------------

using Sink = std::vector<Violation>;

void report(const FileText& f, std::size_t line, const char* rule,
            std::string message, Sink* violations, Sink* errors) {
  if (is_allowed(f, rule, line, errors)) return;
  violations->push_back({f.path, line, rule, std::move(message)});
}

/// The expression a range-for iterates, reduced to its terminal name: the
/// called function for `mon->snapshot_and_reset()`, the member for
/// `state.rates_`, the variable for `rates_`.
std::string terminal_name(const std::string& expr) {
  std::string e = expr;
  // Trim whitespace.
  while (!e.empty() && std::isspace(static_cast<unsigned char>(e.back()))) {
    e.pop_back();
  }
  // Strip one trailing call: `...name(...)` → `...name`.
  if (!e.empty() && e.back() == ')') {
    int depth = 0;
    std::size_t p = e.size();
    while (p > 0) {
      --p;
      if (e[p] == ')') ++depth;
      if (e[p] == '(') {
        --depth;
        if (depth == 0) break;
      }
    }
    if (depth == 0) e.erase(p);
  }
  while (!e.empty() && std::isspace(static_cast<unsigned char>(e.back()))) {
    e.pop_back();
  }
  // Last identifier run.
  std::size_t end = e.size();
  while (end > 0 && !ident_char(e[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && ident_char(e[begin - 1])) --begin;
  return e.substr(begin, end - begin);
}

void rule_unordered_iteration(const FileText& f, const SymbolTable& table,
                              Sink* violations, Sink* errors) {
  const std::string& code = f.code;
  // Range-for statements: `for (` decl `:` range `)`.
  for (std::size_t p = find_word(code, "for", 0); p != std::string::npos;
       p = find_word(code, "for", p + 1)) {
    const std::size_t open = skip_ws(code, p + 3);
    if (open >= code.size() || code[open] != '(') continue;
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t q = open; q < code.size(); ++q) {
      const char c = code[q];
      if (c == '(') ++depth;
      if (c == ')') {
        --depth;
        if (depth == 0) {
          close = q;
          break;
        }
      }
      if (c == ':' && depth == 1 && colon == std::string::npos) {
        const bool scope = (q + 1 < code.size() && code[q + 1] == ':') ||
                           (q > 0 && code[q - 1] == ':');
        if (!scope) colon = q;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    const std::string range = code.substr(colon + 1, close - colon - 1);
    const std::string name = terminal_name(range);
    const std::size_t line = line_of_offset(f, p);
    if (range.find("unordered_") != std::string::npos) {
      report(f, line, "unordered-iteration",
             "range-for over an unordered container expression; iteration "
             "order is not deterministic",
             violations, errors);
    } else if (table.unordered_vars.count(name) != 0) {
      report(f, line, "unordered-iteration",
             "range-for over `" + name +
                 "`, declared as an unordered container; iteration order is "
                 "not deterministic",
             violations, errors);
    } else if (table.unordered_funcs.count(name) != 0) {
      report(f, line, "unordered-iteration",
             "range-for over the result of `" + name +
                 "()`, which returns an unordered container; iteration order "
                 "is not deterministic",
             violations, errors);
    }
  }

  // Explicit iterator walks: name.begin() / name->begin() on a known
  // unordered variable (find()/count()/at() lookups stay legal).
  for (const std::string& name : table.unordered_vars) {
    for (std::size_t p = find_word(code, name, 0); p != std::string::npos;
         p = find_word(code, name, p + 1)) {
      std::size_t q = skip_ws(code, p + name.size());
      if (code.compare(q, 1, ".") == 0) {
        q = skip_ws(code, q + 1);
      } else if (code.compare(q, 2, "->") == 0) {
        q = skip_ws(code, q + 2);
      } else {
        continue;
      }
      std::size_t call_end = 0;
      const std::string member = read_ident(code, q, &call_end);
      if ((member == "begin" || member == "cbegin" || member == "rbegin") &&
          call_end < code.size() && code[skip_ws(code, call_end)] == '(') {
        report(f, line_of_offset(f, p), "unordered-iteration",
               "iterator walk over `" + name +
                   "`, declared as an unordered container; use find()/at() "
                   "for lookups or an ordered container for iteration",
               violations, errors);
      }
    }
  }
}

void rule_wall_clock(const FileText& f, Sink* violations, Sink* errors) {
  const std::string& code = f.code;
  static const char* kClockPatterns[] = {
      "steady_clock", "system_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime",
  };
  for (const char* pat : kClockPatterns) {
    for (std::size_t p = find_word(code, pat, 0); p != std::string::npos;
         p = find_word(code, pat, p + 1)) {
      report(f, line_of_offset(f, p), "wall-clock",
             std::string("`") + pat +
                 "` couples simulation code to wall time; results become "
                 "machine-speed-dependent. Use sim::Simulator::now()",
             violations, errors);
    }
  }
  // C `time(...)` / `std::time(...)` call (word `time` directly applied).
  for (std::size_t p = find_word(code, "time", 0); p != std::string::npos;
       p = find_word(code, "time", p + 1)) {
    const std::size_t q = skip_ws(code, p + 4);
    if (q >= code.size() || code[q] != '(') continue;
    // Member calls `x.time(...)` are project API, not the libc function,
    // and `long time() const;` is a member declaration, not a call.
    if (p >= 1 && (code[p - 1] == '.' || code[p - 1] == '>')) continue;
    if (is_declaration_context(code, p)) continue;
    report(f, line_of_offset(f, p), "wall-clock",
           "`time()` reads the wall clock; use sim::Simulator::now()",
           violations, errors);
  }
}

void rule_unseeded_random(const FileText& f, Sink* violations, Sink* errors) {
  const std::string& code = f.code;
  for (std::size_t p = find_word(code, "random_device", 0);
       p != std::string::npos;
       p = find_word(code, "random_device", p + 1)) {
    report(f, line_of_offset(f, p), "unseeded-random",
           "`std::random_device` is entropy-seeded; derive a child of the "
           "run's sim::Rng instead",
           violations, errors);
  }
  for (const char* fn : {"rand", "srand"}) {
    for (std::size_t p = find_word(code, fn, 0); p != std::string::npos;
         p = find_word(code, fn, p + 1)) {
      const std::size_t q = skip_ws(code, p + std::string(fn).size());
      if (q >= code.size() || code[q] != '(') continue;
      if (p >= 1 && (code[p - 1] == '.' || code[p - 1] == '>')) continue;
      if (is_declaration_context(code, p)) continue;
      report(f, line_of_offset(f, p), "unseeded-random",
             std::string("`") + fn +
                 "()` uses global libc PRNG state; derive a child of the "
                 "run's sim::Rng instead",
             violations, errors);
    }
  }
}

void rule_pointer_order(const FileText& f, Sink* violations, Sink* errors) {
  const std::string& code = f.code;
  for (const char* container : {"map", "set", "multimap", "multiset"}) {
    for (std::size_t p = find_word(code, container, 0);
         p != std::string::npos;
         p = find_word(code, container, p + 1)) {
      // Require std:: (or ::) qualification so member names don't match.
      if (p < 2 || code[p - 1] != ':' || code[p - 2] != ':') continue;
      const std::size_t open = skip_ws(code, p + std::string(container).size());
      if (open >= code.size() || code[open] != '<') continue;
      const std::size_t close = match_angle(code, open);
      if (close == std::string::npos) continue;
      // First template argument = key type.
      int angle = 0;
      std::size_t key_end = close;
      for (std::size_t q = open; q <= close; ++q) {
        if (code[q] == '<') ++angle;
        if (code[q] == '>') --angle;
        if (code[q] == ',' && angle == 1) {
          key_end = q;
          break;
        }
      }
      std::string key = code.substr(open + 1, key_end - open - 1);
      while (!key.empty() &&
             std::isspace(static_cast<unsigned char>(key.back()))) {
        key.pop_back();
      }
      if (!key.empty() && key.back() == '*') {
        report(f, line_of_offset(f, p), "pointer-order",
               "std::" + std::string(container) + " keyed on pointer `" +
                   key +
                   "`: iteration order becomes allocation-address order. "
                   "Key on a stable id instead",
               violations, errors);
      }
    }
  }
}

/// Files PR 2 scrubbed of std::function to keep the per-event/per-packet
/// path allocation-free. sim/simulator.* is deliberately NOT listed: its
/// every() takes std::function as the sanctioned periodic-task API (one
/// allocation per periodic task, not per event).
const char* kHotPathFiles[] = {
    "sim/task.",    "sim/event_queue.", "net/fabric.",
    "net/switch.",  "net/packet.",      "net/payload.",
};

void rule_std_function_hot_path(const FileText& f, Sink* violations,
                                Sink* errors) {
  std::string norm = f.effective_path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  bool hot = false;
  for (const char* frag : kHotPathFiles) {
    if (norm.find(frag) != std::string::npos) hot = true;
  }
  if (!hot) return;
  const std::string& code = f.code;
  for (std::size_t p = code.find("std::function"); p != std::string::npos;
       p = code.find("std::function", p + 1)) {
    if (ident_char(code[p + 13])) continue;
    report(f, line_of_offset(f, p), "std-function-hot-path",
           "std::function in the allocation-free hot path; use sim::Task "
           "(small-buffer, move-only) instead",
           violations, errors);
  }
}

/// The observability emitters (src/obs) must be byte-stable: their output
/// files are compared bit-for-bit across --jobs values, so even an
/// unordered container used only for lookup is a landmine — one later
/// refactor away from hash-order output. Ban the types there outright
/// (the general unordered-iteration rule only catches actual walks).
void rule_unordered_in_obs(const FileText& f, Sink* violations, Sink* errors) {
  std::string norm = f.effective_path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  if (norm.find("/obs/") == std::string::npos &&
      norm.rfind("obs/", 0) != 0) {
    return;
  }
  const std::string& code = f.code;
  for (const char* type : {"unordered_map", "unordered_set",
                           "unordered_multimap", "unordered_multiset"}) {
    for (std::size_t p = find_word(code, type, 0); p != std::string::npos;
         p = find_word(code, type, p + 1)) {
      report(f, line_of_offset(f, p), "unordered-in-obs",
             std::string("`") + type +
                 "` in an observability emitter: trace/metrics output must "
                 "be byte-identical across runs, so obs code uses ordered "
                 "containers only (std::map / sorted vector)",
             violations, errors);
    }
  }
}

/// The only layers allowed to hold ShardGroup internals: the shard runtime
/// itself, the harness (which owns the group and drives run_until), and
/// the fabric (which implements the cross-shard inbox protocol on top of
/// them). Everything else gets its own shard's Simulator via
/// Fabric::simulator_for(node) and must stay inside it.
const char* kShardLayerFiles[] = {
    "sim/",
    "harness/",
    "net/fabric.",
};

void rule_cross_shard_sim(const FileText& f, Sink* violations, Sink* errors) {
  std::string norm = f.effective_path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  for (const char* frag : kShardLayerFiles) {
    if (norm.find(frag) != std::string::npos) return;
  }
  const std::string& code = f.code;
  for (const char* token :
       {"shard_sim", "global_sim", "drain_shard", "current_shard"}) {
    for (std::size_t p = find_word(code, token, 0); p != std::string::npos;
         p = find_word(code, token, p + 1)) {
      report(f, line_of_offset(f, p), "cross-shard-sim",
             std::string("`") + token +
                 "` outside the shard runtime / harness / fabric: grabbing "
                 "another shard's Simulator bypasses the cross-shard inbox "
                 "protocol and races its event queue; use "
                 "Fabric::simulator_for(node) and stay on your own shard",
             violations, errors);
    }
  }
}

/// The layers allowed to drive component fault hooks directly: the fault
/// engine itself (sim/fault.cpp executes the plan), the harness (which
/// binds FaultInjector hooks to the live components), and tests/tools
/// (which exercise the hooks to validate them). Everyone else describes
/// faults declaratively via ExperimentConfig::fault_plan.
const char* kFaultLayerFiles[] = {
    "sim/",
    "harness/",
    "tests/",
    "tools/",
};

/// The hook entry points FaultInjector drives. `fail` / `recover` cover
/// KvServer and SharedAccelerator (and SelectorNode via the harness
/// lambdas); the controller and fabric hooks have distinct names.
const char* kFaultHooks[] = {
    "fail", "recover", "fail_operator", "restore_operator", "set_link_state",
};

void rule_fault_hook_discipline(const FileText& f, Sink* violations,
                                Sink* errors) {
  std::string norm = f.effective_path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  for (const char* frag : kFaultLayerFiles) {
    if (norm.find(frag) != std::string::npos) return;
  }
  const std::string& code = f.code;
  for (const char* hook : kFaultHooks) {
    for (std::size_t p = find_word(code, hook, 0); p != std::string::npos;
         p = find_word(code, hook, p + 1)) {
      // Receiver-qualified calls only: `x.fail(...)` / `x->fail(...)`.
      // Declarations, definitions (`void Controller::fail_operator(...)`)
      // and in-class unqualified calls all lack the receiver and pass.
      const bool dot = p >= 1 && code[p - 1] == '.';
      const bool arrow = p >= 2 && code[p - 2] == '-' && code[p - 1] == '>';
      if (!dot && !arrow) continue;
      const std::size_t open = skip_ws(code, p + std::string(hook).size());
      if (open >= code.size() || code[open] != '(') continue;
      report(f, line_of_offset(f, p), "fault-hook-discipline",
             std::string("direct call to fault hook `") + hook +
                 "()` outside sim/harness/tests/tools: faults are injected "
                 "declaratively via ExperimentConfig::fault_plan so "
                 "sim::FaultInjector fires them at global-simulator "
                 "barriers (deterministic at any --shards/--jobs) with "
                 "audit-ledger accounting; a direct call bypasses both",
             violations, errors);
    }
  }
}

// --------------------------------------------------------------------------
// Shard-ownership checking (DESIGN.md §7.3): a cross-TU class -> affinity
// table built from the sim/affinity.hpp markers, consumed by the
// shard-annotation / shard-affinity-capture / shard-foreign-mutation rules.
// --------------------------------------------------------------------------

/// Component layer of a path: the first known directory component
/// ("src/netrs/rules.cpp" -> "netrs", "bench/macro.cpp" -> "bench").
/// Longer names are checked first so "netrs" never matches as "net".
std::string path_layer(const std::string& effective_path) {
  std::string norm = effective_path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  static const char* kLayers[] = {"harness", "examples", "netrs", "bench",
                                  "tests",   "tools",    "net",   "ilp",
                                  "sim",     "obs",      "kv",    "rs"};
  for (const char* layer : kLayers) {
    const std::string frag = std::string(layer) + "/";
    if (norm.find("/" + frag) != std::string::npos || norm.rfind(frag, 0) == 0) {
      return layer;
    }
  }
  return "";
}

/// One class in the affinity table. `affinity` is 'L' (NETRS_SHARD_LOCAL),
/// 'G' (NETRS_COORD_GLOBAL), 'I' (NETRS_SHARED_IMMUTABLE), or '?' for an
/// unannotated class (tracked so name lookups don't misfire, ignored by
/// the affinity rules).
struct ClassInfo {
  std::string name;
  char affinity = '?';
  std::string layer;  ///< owning layer, from the innermost namespace
  std::set<std::string> mutators;       ///< non-const member functions
  std::set<std::string> const_methods;  ///< const member functions
};

using AffinityTable = std::map<std::string, ClassInfo>;

/// A top-level class/struct *definition* found by the scope-stack walker.
struct ClassDecl {
  std::string name;
  std::string marker;  ///< the NETRS_* marker token, or empty
  std::string layer;   ///< innermost enclosing namespace, core -> netrs
  std::size_t line = 0;
  std::size_t body_begin = 0;  ///< offset of the '{' opening the body
  bool top_level = false;      ///< every enclosing scope is a namespace
};

char marker_affinity(const std::string& marker) {
  if (marker == "NETRS_SHARD_LOCAL") return 'L';
  if (marker == "NETRS_COORD_GLOBAL") return 'G';
  if (marker == "NETRS_SHARED_IMMUTABLE") return 'I';
  return '?';
}

/// Walks the blanked code with a namespace/class/other scope stack and
/// returns every class/struct definition (forward declarations skipped).
/// The owning layer is the innermost enclosing namespace at the definition
/// — not the file path — so `namespace netrs::core` classes belong to
/// "netrs" wherever the file lives.
std::vector<ClassDecl> scan_classes(const FileText& f) {
  const std::string& code = f.code;
  struct Scope {
    enum Kind { kNamespace, kClass, kOther } kind = kOther;
    std::string name;
  };
  std::vector<Scope> stack;
  Scope pending;  // what the next '{' opens
  std::vector<ClassDecl> out;

  std::size_t p = 0;
  while (p < code.size()) {
    const char c = code[p];
    if (c == '{') {
      stack.push_back(pending);
      pending = Scope{};
      ++p;
      continue;
    }
    if (c == '}') {
      if (!stack.empty()) stack.pop_back();
      ++p;
      continue;
    }
    if (!ident_char(c) || (p > 0 && ident_char(code[p - 1]))) {
      ++p;
      continue;
    }
    std::size_t e = 0;
    const std::string w = read_ident(code, p, &e);
    if (w == "template") {
      const std::size_t open = skip_ws(code, e);
      if (open < code.size() && code[open] == '<') {
        const std::size_t close = match_angle(code, open);
        if (close != std::string::npos) {
          p = close + 1;
          continue;
        }
      }
      p = e;
      continue;
    }
    if (w == "namespace") {
      // `namespace a::b {` / `namespace {` / `namespace x = y;` (alias).
      std::size_t q = skip_ws(code, e);
      std::string last;
      while (q < code.size()) {
        if (ident_char(code[q])) {
          last = read_ident(code, q, &q);
        } else if (code[q] == ':' && q + 1 < code.size() &&
                   code[q + 1] == ':') {
          q += 2;
        } else {
          break;
        }
        q = skip_ws(code, q);
      }
      if (q < code.size() && code[q] == '{') {
        pending = Scope{Scope::kNamespace, last};
        p = q;  // let the '{' branch push it
      } else {
        p = q;  // alias or using-directive: no scope opens here
      }
      continue;
    }
    if (w == "enum") {
      // `enum class X { ... }` must not register as a class; skip an
      // immediately following class/struct keyword.
      std::size_t q = skip_ws(code, e);
      const std::string next = read_ident(code, q, &q);
      if (next == "class" || next == "struct") {
        p = q;
      } else {
        p = e;
      }
      continue;
    }
    if (w == "class" || w == "struct") {
      std::size_t q = skip_ws(code, e);
      // Skip attributes / alignas between the keyword and the name.
      for (;;) {
        if (q + 1 < code.size() && code[q] == '[' && code[q + 1] == '[') {
          const std::size_t close = code.find("]]", q);
          if (close == std::string::npos) break;
          q = skip_ws(code, close + 2);
          continue;
        }
        if (code.compare(q, 8, "alignas(") == 0) {
          const std::size_t close = match_paren(code, q + 7);
          if (close == std::string::npos) break;
          q = skip_ws(code, close + 1);
          continue;
        }
        break;
      }
      ClassDecl decl;
      std::string first = read_ident(code, q, &q);
      if (marker_affinity(first) != '?') {
        decl.marker = first;
        q = skip_ws(code, q);
        first = read_ident(code, q, &q);
      }
      decl.name = first;
      if (decl.name.empty()) {  // anonymous struct
        p = e;
        continue;
      }
      // Definition (`{`) vs forward declaration (`;`): scan past the
      // base clause, skipping template-argument angles.
      std::size_t r = q;
      std::size_t brace = std::string::npos;
      while (r < code.size()) {
        const char rc = code[r];
        if (rc == '<') {
          const std::size_t close = match_angle(code, r);
          if (close != std::string::npos) {
            r = close + 1;
            continue;
          }
        }
        if (rc == '{') {
          brace = r;
          break;
        }
        if (rc == ';' || rc == '=' || rc == ')') break;  // fwd decl / param
        ++r;
      }
      if (brace == std::string::npos) {
        p = r < code.size() ? r + 1 : r;
        continue;
      }
      decl.line = line_of_offset(f, p);
      decl.body_begin = brace;
      decl.top_level = std::all_of(
          stack.begin(), stack.end(),
          [](const Scope& s) { return s.kind == Scope::kNamespace; });
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->kind == Scope::kNamespace) {
          decl.layer = it->name;
          break;
        }
      }
      if (decl.layer == "core") decl.layer = "netrs";  // netrs::core
      out.push_back(decl);
      pending = Scope{Scope::kClass, decl.name};
      p = brace;  // let the '{' branch push it
      continue;
    }
    p = e;
  }
  return out;
}

/// Records a definition's member functions into `info`, split by constness.
/// Depth-1 scan of the class body: an identifier directly applied to `(...)`
/// is a member function; `const` as the first token after the closing paren
/// marks it const. Heuristic by design — nested classes (depth > 1) and
/// statement keywords are skipped.
void collect_methods(const std::string& code, const ClassDecl& decl,
                     ClassInfo* info) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",    "switch",   "return",
      "sizeof",   "catch",    "operator", "assert",   "static_assert",
      "decltype", "noexcept", "alignas",  "alignof",  "explicit",
      "new",      "delete",   "throw",    "co_return", "co_await",
      "co_yield", "requires", "template"};
  int depth = 0;
  std::size_t p = decl.body_begin;
  while (p < code.size()) {
    const char c = code[p];
    if (c == '{') {
      ++depth;
      ++p;
      continue;
    }
    if (c == '}') {
      --depth;
      if (depth == 0) return;
      ++p;
      continue;
    }
    if (depth != 1 || !ident_char(c) || (p > 0 && ident_char(code[p - 1]))) {
      ++p;
      continue;
    }
    std::size_t e = 0;
    const std::string w = read_ident(code, p, &e);
    p = e;
    if (kKeywords.count(w) != 0 || w == decl.name) continue;
    const std::size_t open = skip_ws(code, e);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = match_paren(code, open);
    if (close == std::string::npos) continue;
    const std::size_t after = skip_ws(code, close + 1);
    if (code.compare(after, 5, "const") == 0 &&
        (after + 5 >= code.size() || !ident_char(code[after + 5]))) {
      info->const_methods.insert(w);
    } else {
      info->mutators.insert(w);
    }
  }
}

/// Folds a file's class definitions into the affinity table (first
/// definition wins — headers are collected before .cpp locals).
void collect_classes(const FileText& f, AffinityTable* table) {
  for (const ClassDecl& decl : scan_classes(f)) {
    ClassInfo info;
    info.name = decl.name;
    info.affinity = marker_affinity(decl.marker);
    info.layer = decl.layer;
    collect_methods(f.code, decl, &info);
    table->emplace(decl.name, std::move(info));
  }
}

/// Variables (locals, members, parameters) of NETRS_SHARD_LOCAL classes
/// declared in this file, by name. Deliberate heuristic: only direct
/// `Type[*&] name` declarations are tracked — container- or
/// smart-pointer-held instances are not, which keeps false positives near
/// zero at the cost of missing indirected captures.
std::map<std::string, const ClassInfo*> collect_class_vars(
    const FileText& f, const AffinityTable& table) {
  std::map<std::string, const ClassInfo*> vars;
  const std::string& code = f.code;
  for (const auto& [name, info] : table) {
    if (info.affinity != 'L') continue;
    for (std::size_t p = find_word(code, name, 0); p != std::string::npos;
         p = find_word(code, name, p + 1)) {
      std::size_t q = skip_ws(code, p + name.size());
      // Skip refs/pointers/cv between type and name.
      while (q < code.size()) {
        if (code[q] == '*' || code[q] == '&') {
          q = skip_ws(code, q + 1);
          continue;
        }
        if (code.compare(q, 5, "const") == 0 && !ident_char(code[q + 5])) {
          q = skip_ws(code, q + 5);
          continue;
        }
        break;
      }
      if (q >= code.size() || !ident_char(code[q])) continue;
      std::size_t e = 0;
      const std::string var = read_ident(code, q, &e);
      if (var == "final" || var == "override" || var == "noexcept") continue;
      const std::size_t r = skip_ws(code, e);
      if (r >= code.size()) continue;
      const char rc = code[r];
      const bool decl_end =
          rc == ';' || rc == '=' || rc == ',' || rc == ')' || rc == '{' ||
          (rc == ':' && (r + 1 >= code.size() || code[r + 1] != ':'));
      if (decl_end) vars[var] = &info;
    }
  }
  return vars;
}

/// True when `file_layer` may mutate (or capture) state of a shard-local
/// class owned by `class_layer`. Same-layer access is free; the harness /
/// bench / example / test drivers own whole topologies and run serially or
/// at barriers; net and rs objects are embedded co-located inside the kv
/// and netrs components that wrap them (operators attach to their own
/// switch, clients own their selectors), so those pairs are sanctioned.
bool layer_allowed(const std::string& class_layer,
                   const std::string& file_layer) {
  if (class_layer == file_layer) return true;
  if (file_layer == "harness" || file_layer == "bench" ||
      file_layer == "examples" || file_layer == "tests" ||
      file_layer == "tools") {
    return true;
  }
  if (class_layer == "net" && (file_layer == "netrs" || file_layer == "kv")) {
    return true;
  }
  if (class_layer == "rs" && (file_layer == "netrs" || file_layer == "kv")) {
    return true;
  }
  // The obs recorders are shard-local lanes reached through the
  // component's own simulator (`simulator().observer()`), so every
  // recording call from a component layer lands on that component's own
  // shard observer by construction (DESIGN.md §8.6).
  if (class_layer == "obs" && (file_layer == "net" || file_layer == "kv" ||
                               file_layer == "netrs" || file_layer == "rs")) {
    return true;
  }
  return false;
}

/// Rule shard-annotation: every top-level class/struct defined in a header
/// under src/{net,kv,netrs,rs,obs} carries an ownership marker.
void rule_shard_annotation(const FileText& f,
                           const std::vector<ClassDecl>& decls,
                           Sink* violations, Sink* errors) {
  std::string norm = f.effective_path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  if (!norm.ends_with(".hpp") && !norm.ends_with(".h")) return;
  const std::string layer = path_layer(norm);
  if (layer != "net" && layer != "kv" && layer != "netrs" && layer != "rs" &&
      layer != "obs") {
    return;
  }
  for (const ClassDecl& decl : decls) {
    if (!decl.top_level || !decl.marker.empty()) continue;
    report(f, decl.line, "shard-annotation",
           "`" + decl.name + "` in src/" + layer +
               " must declare its shard ownership: put NETRS_SHARD_LOCAL, "
               "NETRS_COORD_GLOBAL, or NETRS_SHARED_IMMUTABLE on the class "
               "token (see sim/affinity.hpp and DESIGN.md §7.3)",
           violations, errors);
  }
}

/// Rule shard-affinity-capture (see file comment): scheduling lambdas that
/// capture foreign shard-local state, and inline scheduling on
/// simulator_for(...)'s result.
void rule_shard_affinity_capture(
    const FileText& f, const std::map<std::string, const ClassInfo*>& vars,
    Sink* violations, Sink* errors) {
  std::string norm = f.effective_path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  for (const char* frag : kShardLayerFiles) {
    if (norm.find(frag) != std::string::npos) return;
  }
  const std::string file_layer = path_layer(norm);
  const std::string& code = f.code;

  // (a1) `simulator_for(...).at/after/every(...)`: the temporary handle may
  // belong to a foreign shard; components must cache their own simulator.
  for (std::size_t p = find_word(code, "simulator_for", 0);
       p != std::string::npos; p = find_word(code, "simulator_for", p + 1)) {
    const std::size_t open = skip_ws(code, p + 13);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = match_paren(code, open);
    if (close == std::string::npos) continue;
    std::size_t q = skip_ws(code, close + 1);
    if (q >= code.size() || code[q] != '.') continue;
    q = skip_ws(code, q + 1);
    std::size_t e = 0;
    const std::string m = read_ident(code, q, &e);
    if (m != "at" && m != "after" && m != "every") continue;
    if (skip_ws(code, e) >= code.size() || code[skip_ws(code, e)] != '(') {
      continue;
    }
    report(f, line_of_offset(f, p), "shard-affinity-capture",
           "scheduling directly on simulator_for(...)'s result: the handle "
           "may belong to a foreign shard, and pushing onto its queue races "
           "the owning worker. Cache your own node's simulator at "
           "construction and schedule on that",
           violations, errors);
  }

  // (a2) lambdas handed to at()/after()/every() capturing a variable of a
  // foreign shard-local class.
  for (const char* sched : {"at", "after", "every"}) {
    for (std::size_t p = find_word(code, sched, 0); p != std::string::npos;
         p = find_word(code, sched, p + 1)) {
      // Member call only: `.after(` / `->after(`.
      if (p == 0 || (code[p - 1] != '.' && code[p - 1] != '>')) continue;
      const std::size_t open = skip_ws(code, p + std::string(sched).size());
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t close = match_paren(code, open);
      if (close == std::string::npos) continue;
      // Lambdas inside the call: a '[' not preceded by an identifier,
      // ')' or ']' (which would make it a subscript).
      for (std::size_t b = open + 1; b < close; ++b) {
        if (code[b] != '[') continue;
        const std::size_t prev = skip_ws_back(code, b - 1);
        if (prev != std::string::npos &&
            (ident_char(code[prev]) || code[prev] == ')' ||
             code[prev] == ']')) {
          continue;
        }
        // Capture list ends at the matching ']'.
        int bdepth = 0;
        std::size_t cl_end = std::string::npos;
        for (std::size_t q = b; q < close; ++q) {
          if (code[q] == '[') ++bdepth;
          if (code[q] == ']') {
            --bdepth;
            if (bdepth == 0) {
              cl_end = q;
              break;
            }
          }
        }
        if (cl_end == std::string::npos) continue;
        const std::string list = code.substr(b + 1, cl_end - b - 1);
        bool default_capture = false;
        std::vector<std::string> names;
        {
          int depth = 0;
          std::string item;
          auto flush = [&] {
            std::string t = item;
            item.clear();
            // Trim.
            while (!t.empty() && std::isspace(static_cast<unsigned char>(
                                     t.front())) != 0) {
              t.erase(t.begin());
            }
            while (!t.empty() &&
                   std::isspace(static_cast<unsigned char>(t.back())) != 0) {
              t.pop_back();
            }
            if (t.empty()) return;
            if (t == "&" || t == "=") {
              default_capture = true;
              return;
            }
            if (!t.empty() && (t[0] == '&' || t[0] == '*')) t.erase(t.begin());
            // Init-capture `x = expr` keeps the introduced name.
            const std::size_t eq = t.find('=');
            if (eq != std::string::npos) t.erase(eq);
            const std::string name = read_ident(t, 0);
            if (!name.empty() && name != "this") names.push_back(name);
          };
          for (char lc : list) {
            if (lc == '(' || lc == '<' || lc == '{') ++depth;
            if (lc == ')' || lc == '>' || lc == '}') --depth;
            if (lc == ',' && depth == 0) {
              flush();
            } else {
              item.push_back(lc);
            }
          }
          flush();
        }
        const std::size_t line = line_of_offset(f, b);
        std::set<std::string> reported;
        auto flag = [&](const std::string& name, const ClassInfo& info,
                        const char* how) {
          if (!reported.insert(name).second) return;
          report(f, line, "shard-affinity-capture",
                 "scheduled lambda " + std::string(how) + " `" + name +
                     "`, a NETRS_SHARD_LOCAL " + info.name + " owned by the " +
                     info.layer +
                     " layer: the event would touch another shard's state "
                     "from this shard's worker. Route the interaction "
                     "through Fabric::send / the coordinator instead",
                 violations, errors);
        };
        for (const std::string& name : names) {
          const auto it = vars.find(name);
          if (it == vars.end()) continue;
          if (layer_allowed(it->second->layer, file_layer)) continue;
          flag(name, *it->second, "captures");
        }
        if (default_capture) {
          // `[&]` / `[=]`: scan the lambda body for tracked variables.
          std::size_t body = code.find('{', cl_end);
          if (body == std::string::npos || body >= close) continue;
          int depth = 0;
          std::size_t body_end = body;
          for (std::size_t q = body; q < code.size(); ++q) {
            if (code[q] == '{') ++depth;
            if (code[q] == '}') {
              --depth;
              if (depth == 0) {
                body_end = q;
                break;
              }
            }
          }
          const std::string body_text =
              code.substr(body, body_end - body + 1);
          for (const auto& [name, info] : vars) {
            if (layer_allowed(info->layer, file_layer)) continue;
            if (find_word(body_text, name, 0) != std::string::npos) {
              flag(name, *info, "default-captures");
            }
          }
        }
      }
    }
  }
}

/// Rule shard-foreign-mutation (see file comment): `var.method(...)` /
/// `var->method(...)` where `var` is a shard-local class instance, `method`
/// is non-const, and this file's layer has no business mutating it.
void rule_shard_foreign_mutation(
    const FileText& f, const std::map<std::string, const ClassInfo*>& vars,
    Sink* violations, Sink* errors) {
  const std::string file_layer = path_layer(f.effective_path);
  const std::string& code = f.code;
  for (const auto& [name, info] : vars) {
    if (layer_allowed(info->layer, file_layer)) continue;
    for (std::size_t p = find_word(code, name, 0); p != std::string::npos;
         p = find_word(code, name, p + 1)) {
      std::size_t q = p + name.size();
      if (code.compare(q, 1, ".") == 0) {
        q = skip_ws(code, q + 1);
      } else if (code.compare(q, 2, "->") == 0) {
        q = skip_ws(code, q + 2);
      } else {
        continue;
      }
      std::size_t e = 0;
      const std::string method = read_ident(code, q, &e);
      if (method.empty()) continue;
      const std::size_t open = skip_ws(code, e);
      if (open >= code.size() || code[open] != '(') continue;
      if (info->mutators.count(method) == 0 ||
          info->const_methods.count(method) != 0) {
        continue;
      }
      report(f, line_of_offset(f, p), "shard-foreign-mutation",
             "`" + name + "." + method + "(...)` mutates a NETRS_SHARD_LOCAL " +
                 info->name + " owned by the " + info->layer +
                 " layer from " +
                 (file_layer.empty() ? std::string("an unowned file")
                                     : "the " + file_layer + " layer") +
                 ": shard-local state must only be driven by its owning "
                 "layer (or the coordinator-side harness)",
             violations, errors);
    }
  }
}

/// Rule mutable-static (see file comment): mutable `static` / `thread_local`
/// declarations. Function declarations and const/constexpr/constinit
/// qualified declarations are fine; everything else is cross-shard,
/// cross-repeat shared state.
void rule_mutable_static(const FileText& f, Sink* violations, Sink* errors) {
  const std::string& code = f.code;
  std::set<std::size_t> flagged;  // dedupe `static thread_local` pairs
  for (const char* kw : {"static", "thread_local"}) {
    for (std::size_t p = find_word(code, kw, 0); p != std::string::npos;
         p = find_word(code, kw, p + 1)) {
      std::size_t q = p;
      bool is_const = false;
      bool is_function = false;
      while (q < code.size()) {
        const char c = code[q];
        if (c == '<') {
          const std::size_t close = match_angle(code, q);
          if (close != std::string::npos) {
            q = close + 1;
            continue;
          }
        }
        if (c == '(') {
          is_function = true;
          break;
        }
        if (c == ';' || c == '=' || c == '{') break;
        if (ident_char(c) && (q == 0 || !ident_char(code[q - 1]))) {
          std::size_t e = 0;
          const std::string w = read_ident(code, q, &e);
          if (w == "const" || w == "constexpr" || w == "constinit" ||
              w == "consteval") {
            is_const = true;
          }
          q = e;
          continue;
        }
        ++q;
      }
      if (is_function || is_const) continue;
      const std::size_t line = line_of_offset(f, p);
      if (!flagged.insert(line).second) continue;
      report(f, line, "mutable-static",
             std::string("mutable `") + kw +
                 "` state is shared across shard workers and --jobs repeat "
                 "threads: it races under the parallel core and leaks state "
                 "between runs. Make it const/constexpr, thread it through "
                 "the component, or justify it with an allow()",
             violations, errors);
    }
  }
}

void run_rules(const FileText& f, const SymbolTable& table,
               const AffinityTable& classes, Sink* violations, Sink* errors) {
  rule_unordered_iteration(f, table, violations, errors);
  rule_wall_clock(f, violations, errors);
  rule_unseeded_random(f, violations, errors);
  rule_pointer_order(f, violations, errors);
  rule_std_function_hot_path(f, violations, errors);
  rule_unordered_in_obs(f, violations, errors);
  rule_cross_shard_sim(f, violations, errors);
  rule_fault_hook_discipline(f, violations, errors);
  const std::vector<ClassDecl> decls = scan_classes(f);
  rule_shard_annotation(f, decls, violations, errors);
  const std::map<std::string, const ClassInfo*> vars =
      collect_class_vars(f, classes);
  rule_shard_affinity_capture(f, vars, violations, errors);
  rule_shard_foreign_mutation(f, vars, violations, errors);
  rule_mutable_static(f, violations, errors);
}

// --------------------------------------------------------------------------
// Input handling.
// --------------------------------------------------------------------------

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

std::vector<std::string> gather_inputs(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  for (const std::string& a : args) {
    std::error_code ec;
    if (fs::is_directory(a, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(a)) {
        if (entry.is_regular_file() && lintable(entry.path())) {
          files.push_back(entry.path().string());
        }
      }
    } else {
      files.push_back(a);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool read_file(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *text = ss.str();
  return true;
}

/// Applies `// lint-fixture-path: <path>` (fixtures masquerading as hot-path
/// files) found anywhere in the comments.
void apply_fixture_path(FileText* f) {
  const std::string kKey = "lint-fixture-path:";
  for (const std::string& c : f->comment) {
    const std::size_t p = c.find(kKey);
    if (p == std::string::npos) continue;
    std::size_t b = skip_ws(c, p + kKey.size());
    std::size_t e = b;
    while (e < c.size() &&
           std::isspace(static_cast<unsigned char>(c[e])) == 0) {
      ++e;
    }
    f->effective_path = c.substr(b, e - b);
    return;
  }
}

// --------------------------------------------------------------------------
// Modes.
// --------------------------------------------------------------------------

int lint_mode(const std::vector<std::string>& paths, bool github) {
  const std::vector<std::string> files = gather_inputs(paths);
  if (files.empty()) {
    std::fprintf(stderr, "netrs_lint: no input files\n");
    return 2;
  }
  std::vector<FileText> texts;
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, &text)) {
      std::fprintf(stderr, "netrs_lint: cannot read %s\n", path.c_str());
      return 2;
    }
    texts.push_back(lex_file(path, text));
  }

  // Symbol scoping: headers are shared (members and aliases declared in a
  // .hpp are legitimately iterated from any .cpp), but symbols local to one
  // .cpp must not leak into another — a local `out` that happens to be an
  // unordered map in monitor.cpp must not taint a std::vector named `out`
  // in rng.cpp.
  auto is_header = [](const std::string& path) {
    return path.size() >= 2 && (path.ends_with(".hpp") || path.ends_with(".h"));
  };
  SymbolTable headers;
  AffinityTable header_classes;
  for (const FileText& f : texts) {
    if (is_header(f.path)) {
      collect_symbols(f, &headers);
      collect_classes(f, &header_classes);
    }
  }
  for (const FileText& f : texts) {
    if (is_header(f.path)) collect_alias_uses(f, &headers);
  }

  Sink violations;
  Sink errors;
  for (const FileText& f : texts) {
    SymbolTable table = headers;
    AffinityTable classes = header_classes;
    if (!is_header(f.path)) {
      collect_symbols(f, &table);
      collect_alias_uses(f, &table);
      collect_classes(f, &classes);
    }
    run_rules(f, table, classes, &violations, &errors);
  }

  for (const Violation& v : errors) {
    std::printf("%s:%zu: error [%s] %s\n", v.file.c_str(), v.line,
                v.rule.c_str(), v.message.c_str());
  }
  for (const Violation& v : violations) {
    std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }
  if (github) {
    // GitHub Actions workflow-command annotations, in addition to (never
    // instead of) the plain report above.
    for (const Violation& v : errors) {
      std::printf("::error file=%s,line=%zu,title=netrs_lint[%s]::%s\n",
                  v.file.c_str(), v.line, v.rule.c_str(), v.message.c_str());
    }
    for (const Violation& v : violations) {
      std::printf("::error file=%s,line=%zu,title=netrs_lint[%s]::%s\n",
                  v.file.c_str(), v.line, v.rule.c_str(), v.message.c_str());
    }
  }
  if (violations.empty() && errors.empty()) {
    std::printf("netrs_lint: %zu files clean\n", texts.size());
    return 0;
  }
  std::printf("netrs_lint: %zu violation(s), %zu error(s) in %zu files\n",
              violations.size(), errors.size(), texts.size());
  return 1;
}

int self_test_mode(const std::vector<std::string>& paths) {
  const std::vector<std::string> files = gather_inputs(paths);
  if (files.empty()) {
    std::fprintf(stderr, "netrs_lint: no fixtures found\n");
    return 2;
  }
  int failures = 0;
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, &text)) {
      std::fprintf(stderr, "netrs_lint: cannot read %s\n", path.c_str());
      return 2;
    }
    // Each fixture is linted in isolation so symbol tables don't leak
    // between fixtures.
    FileText f = lex_file(path, text);
    apply_fixture_path(&f);
    SymbolTable table;
    collect_symbols(f, &table);
    collect_alias_uses(f, &table);
    AffinityTable classes;
    collect_classes(f, &classes);
    Sink violations;
    Sink errors;
    run_rules(f, table, classes, &violations, &errors);

    // Expected counts from `// lint-fixture-expect: <rule> <count>`.
    std::map<std::string, int> expected;
    const std::string kKey = "lint-fixture-expect:";
    for (const std::string& c : f.comment) {
      const std::size_t p = c.find(kKey);
      if (p == std::string::npos) continue;
      std::istringstream ss(c.substr(p + kKey.size()));
      std::string rule;
      int count = 0;
      if (ss >> rule >> count) expected[rule] += count;
    }
    // Zero-count directives document "this rule must not fire" — normalize
    // them away so the map comparison below treats them as absence.
    std::erase_if(expected, [](const auto& kv) { return kv.second == 0; });

    std::map<std::string, int> actual;
    for (const Violation& v : violations) ++actual[v.rule];
    for (const Violation& v : errors) ++actual[v.rule];

    if (actual == expected) {
      std::printf("PASS %s\n", path.c_str());
    } else {
      ++failures;
      std::printf("FAIL %s\n", path.c_str());
      for (const auto& [rule, n] : expected) {
        std::printf("  expected %-24s %d  got %d\n", rule.c_str(), n,
                    actual.count(rule) != 0 ? actual.at(rule) : 0);
      }
      for (const auto& [rule, n] : actual) {
        if (expected.count(rule) == 0) {
          std::printf("  unexpected %-22s %d\n", rule.c_str(), n);
        }
      }
      for (const Violation& v : violations) {
        std::printf("  %s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                    v.rule.c_str(), v.message.c_str());
      }
    }
  }
  std::printf("netrs_lint --self-test: %zu fixtures, %d failure(s)\n",
              files.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--self-test") {
    return self_test_mode({args.begin() + 1, args.end()});
  }
  bool github = false;
  std::erase_if(args, [&](const std::string& a) {
    if (a == "--github") {
      github = true;
      return true;
    }
    return false;
  });
  if (args.empty() || args[0] == "--help") {
    std::fprintf(stderr,
                 "usage: netrs_lint [--github] <file-or-dir>...\n"
                 "       netrs_lint --self-test <fixture-dir>\n");
    return args.empty() ? 2 : 0;
  }
  return lint_mode(args, github);
}
